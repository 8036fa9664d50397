// perfbench — the repository's end-to-end benchmark (see perfbench/README.md).
//
//   perfbench --workload <serve_stream|serve_hot|train_epoch|city_16k>
//             --seed <n> --seconds <s> --trace <0|1> [--smoke]
//             [--out-dir <dir>]
//
// Prints a human-readable report, then as its last stdout line one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. A run whose
// correctness checks fail prints no metrics and exits 1.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "tensor/parallel.hpp"
#include "tensor/simd.hpp"

namespace {

using perfbench::Metric;
using perfbench::RunOptions;
using perfbench::RunResult;
using perfbench::ThreadPlan;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Every run prints all of these; BENCHMARK.json lists the same names.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},          {"peak_rss_mb", "MB"},
    {"p50_ms", "ms"},          {"tail_ms", "ms"},
    {"throughput_per_s", "1/s"}, {"forecast_mae", "mph"},
    {"served_ratio", "ratio"},
};

// Per-layer metrics a workload does not exercise read 0.
constexpr MetricSpec kPerLayer[] = {
    {"serve.ingest_us", "us"},
    {"serve.queue_wait_ms.p50", "ms"},
    {"serve.queue_wait_ms.tail", "ms"},
    {"serve.engine_ms.p50", "ms"},
    {"serve.settle_ms.p50", "ms"},
    {"serve.batch_mean", "windows"},
    {"serve.coalesce_ratio", "ratio"},
    {"serve.pool_util", "ratio"},
    {"serve.publish_ms", "ms"},
    {"serve.swaps", "count"},
    {"serve.shed_ratio", "ratio"},
    {"serve.expired_ratio", "ratio"},
    {"serve.fallback_ratio", "ratio"},
    {"loadgen.lag_ms", "ms"},
    {"engine.compile_ms", "ms"},
    {"engine.call_ms.b1", "ms"},
    {"engine.call_ms.b2", "ms"},
    {"engine.call_ms.b3", "ms"},
    {"engine.call_ms.b4", "ms"},
    {"engine.call_ms.b5", "ms"},
    {"engine.call_ms.b6", "ms"},
    {"engine.call_ms.b7", "ms"},
    {"engine.call_ms.b8", "ms"},
    {"engine.window_ms.b1", "ms"},
    {"engine.window_ms.b8", "ms"},
    {"sharded.compile_s", "s"},
    {"sharded.shards", "count"},
    {"timeseries.graphs_s", "s"},
    {"timeseries.dtw_started_ratio", "ratio"},
    {"graph.partition_ms", "ms"},
    {"data.generate_s", "s"},
    {"data.window_us", "us"},
    {"train.fwd_ms", "ms"},
    {"train.bwd_ms", "ms"},
    {"train.optim_ms", "ms"},
    {"train.tape_nodes", "count"},
    {"train.val_s", "s"},
};

using Runner = RunResult (*)(const RunOptions&);

struct WorkloadSpec {
  const char* name;
  Runner run;
  ThreadPlan plan;
};

ThreadPlan plan(std::size_t engine, std::size_t workers, std::size_t trainer,
                std::size_t loops, std::size_t loadgen, std::size_t busy) {
  ThreadPlan p;
  p.global_pool = 2;
  p.engine_threads = engine;
  p.exec_workers = workers;
  p.trainer_threads = trainer;
  p.loop_threads = loops;
  p.loadgen_threads = loadgen;
  p.busy = busy;
  return p;
}

// busy = the most threads computing at once:
//   serve_stream: 2 pool workers + the server loop + the generator (the
//                 collector thread only waits on futures);
//   serve_hot:    the loop (inline flush) + 2 clients;
//   train_epoch:  2 trainer threads (kernels inside them run inline), then
//                 the global pool (2) for validation;
//   city_16k:     2 trainer threads, the global pool (2) for graphs and
//                 sharded forecasts.
const WorkloadSpec kWorkloads[] = {
    {"serve_stream", perfbench::run_serve_stream, plan(1, 2, 0, 1, 2, 4)},
    {"serve_hot", perfbench::run_serve_hot, plan(1, 0, 0, 1, 2, 3)},
    {"train_epoch", perfbench::run_train_epoch, plan(1, 0, 2, 0, 0, 2)},
    {"city_16k", perfbench::run_city_16k, plan(0, 0, 2, 0, 0, 2)},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--smoke] [--out-dir <dir>]\n",
               why);
  std::exit(2);
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out;
}

std::string number(double v) { return perfbench::strf("%.10g", v); }

}  // namespace

int main(int argc, char** argv) {
  RunOptions opt;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        opt.workload = value();
        have_workload = true;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value());
        have_seed = true;
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value());
        have_seconds = opt.seconds > 0.0 && opt.seconds <= 600.0;
        if (!have_seconds) usage("--seconds must be in (0, 600]");
      } else if (arg == "--trace") {
        const std::string t = value();
        if (t != "0" && t != "1") usage("--trace must be 0 or 1");
        opt.trace = t == "1";
        have_trace = true;
      } else if (arg == "--smoke") {
        opt.smoke = true;
      } else if (arg == "--out-dir") {
        opt.out_dir = value();
      } else {
        usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + arg).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (opt.workload == w.name) spec = &w;
  }
  if (spec == nullptr) usage(("unknown workload " + opt.workload).c_str());
  opt.plan = spec->plan;

  // Thread budget: pin every pool size before anything starts a thread, and
  // refuse to run where the workload's busy threads would oversubscribe.
  const std::size_t nproc = std::thread::hardware_concurrency();
  ::setenv("RIHGCN_THREADS", std::to_string(opt.plan.global_pool).c_str(), 1);
  ::unsetenv("RIHGCN_SERVE_WORKERS");
  if (opt.plan.busy > nproc) {
    std::fprintf(stderr,
                 "perfbench: %s keeps %zu threads busy but this host has "
                 "nproc=%zu\n",
                 spec->name, opt.plan.busy, nproc);
    return 3;
  }
  if (rihgcn::ThreadPool::global().num_threads() != opt.plan.global_pool) {
    std::fprintf(stderr, "perfbench: the global pool did not take RIHGCN_THREADS=%zu\n",
                 opt.plan.global_pool);
    return 3;
  }

  const std::string host = perfbench::strf(
      "{\"cpu\": \"%s\", \"nproc\": %zu, \"isa\": \"%s\", \"compiler\": \"gcc "
      "%s\", \"build_type\": \"%s\"}",
      json_escape(cpu_model()).c_str(), nproc,
      rihgcn::simd::isa_name(rihgcn::simd::active_isa()), __VERSION__,
      PERFBENCH_BUILD_TYPE);
  const std::string run = perfbench::strf(
      "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
      "\"smoke\": %d, \"threads\": \"%s\"}",
      spec->name, static_cast<unsigned long long>(opt.seed), opt.seconds,
      opt.trace ? 1 : 0, opt.smoke ? 1 : 0, opt.plan.describe().c_str());
  std::printf("host: %s\nrun: %s\n", host.c_str(), run.c_str());
  std::fflush(stdout);

  RunResult res;
  try {
    res = spec->run(opt);
  } catch (const std::exception& e) {
    res.gate_failures.push_back(std::string("exception: ") + e.what());
  }

  // Schema: every end-to-end metric present, finite and non-zero; per-layer
  // metrics of layers the workload does not exercise read 0.
  std::map<std::string, const Metric*> e2e, layer;
  for (const Metric& m : res.end_to_end) e2e[m.name] = &m;
  for (const Metric& m : res.per_layer) layer[m.name] = &m;
  for (const MetricSpec& m : kEndToEnd) {
    const auto it = e2e.find(m.name);
    if (res.gate_failures.empty() &&
        (it == e2e.end() || !std::isfinite(it->second->value) ||
         it->second->value <= 0.0)) {
      res.gate_failures.push_back(std::string("metric missing, zero or not finite: ") + m.name);
    }
  }
  std::vector<Metric> layer_out;
  for (const MetricSpec& m : kPerLayer) {
    const auto it = layer.find(m.name);
    if (it == layer.end()) {
      layer_out.push_back({m.name, 0.0, m.unit, 0, "not on this workload's path"});
    } else {
      layer_out.push_back(*it->second);
    }
  }

  for (const std::string& line : res.notes) std::printf("note: %s\n", line.c_str());
  const auto print_table = [](const char* title, const std::vector<Metric>& ms) {
    std::printf("%s\n  %-30s %14s %-8s %8s  %s\n", title, "metric", "value", "unit",
                "samples", "statistic");
    for (const Metric& m : ms) {
      std::printf("  %-30s %14.6g %-8s %8zu  %s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.samples, m.stat.c_str());
    }
  };
  const bool correct = res.gate_failures.empty();
  for (const std::string& g : res.gate_failures) {
    std::printf("CHECK FAILED: %s\n", g.c_str());
  }
  if (correct) {
    print_table("end-to-end metrics:", res.end_to_end);
    if (opt.trace) print_table("per-layer metrics:", layer_out);
  }

  // Full report (host, run, every metric with its statistic and sample
  // count) beside the trace, for the steadiness script and later readers.
  const std::string report_path = perfbench::strf(
      "%s/report-%s-seed%llu-trace%d.json", opt.out_dir.c_str(), spec->name,
      static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0);
  if (std::FILE* f = std::fopen(report_path.c_str(), "w")) {
    std::fprintf(f, "{\"host\": %s, \"run\": %s, \"correct\": %s, \"checks_failed\": [",
                 host.c_str(), run.c_str(), correct ? "true" : "false");
    for (std::size_t i = 0; i < res.gate_failures.size(); ++i) {
      std::fprintf(f, "%s\"%s\"", i ? ", " : "", json_escape(res.gate_failures[i]).c_str());
    }
    std::fprintf(f, "], \"notes\": [");
    for (std::size_t i = 0; i < res.notes.size(); ++i) {
      std::fprintf(f, "%s\"%s\"", i ? ", " : "", json_escape(res.notes[i]).c_str());
    }
    std::fprintf(f, "], \"metrics\": [");
    const std::vector<Metric>& all = opt.trace ? layer_out : res.end_to_end;
    for (std::size_t i = 0; i < all.size() && correct; ++i) {
      const Metric& m = all[i];
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"value\": %s, \"unit\": \"%s\", "
                   "\"samples\": %zu, \"statistic\": \"%s\"}",
                   i ? ", " : "", m.name.c_str(), number(m.value).c_str(),
                   m.unit.c_str(), m.samples, json_escape(m.stat).c_str());
    }
    std::fprintf(f, "]}\n");
    std::fclose(f);
  }

  std::string metrics;
  if (correct) {
    const std::vector<Metric>& out = opt.trace ? layer_out : res.end_to_end;
    for (const Metric& m : out) {
      metrics += perfbench::strf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                                 metrics.empty() ? "" : ", ", m.name.c_str(),
                                 number(m.value).c_str(), m.unit.c_str());
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false", std::max<std::size_t>(1, res.attempted),
              res.failed, metrics.c_str());
  return correct ? 0 : 1;
}
