// serve_stream: open-loop ingest-then-forecast traffic at N = 1024 through a
// pooled ForecastServer — latency at one light fixed rate, and capacity as
// the highest rung of a fixed rate ladder that meets the latency limit.
// serve_hot: closed-loop dashboard fan-out at N = 256 on four hot streams
// through the inline flush, with ingests and engine publishes beside it.
#include <algorithm>
#include <atomic>
#include <climits>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/robust.hpp"
#include "serve/server.hpp"
#include "world.hpp"

namespace perfbench {

using namespace rihgcn;

namespace {

/// Latency limit a ladder rung's tail must meet.
constexpr double kTailLimitMs = 100.0;
/// The fixed light rate of serve_stream — about a quarter of the knee on a
/// 4-core host. Never derived from the measured capacity.
constexpr double kLightRate = 50.0;
/// Ladder rungs are kRungBase * kRungStep^k requests per second. The 5%
/// spacing is finer than the bound on the capacity metric.
constexpr double kRungBase = 100.0;
constexpr double kRungStep = 1.05;
constexpr int kGallop = 4;
constexpr int kMinRung = -28;
constexpr int kMaxRung = 40;

double rung_rate(int k) { return kRungBase * std::pow(kRungStep, k); }

/// Serving-scale inputs and model (the dimensions of bench/bench_serve.cpp):
/// lookback 6, horizon 3, two temporal graphs. Weights are the seeded
/// initialization — serving cost does not depend on their values.
WorldSpec serving_world(std::size_t nodes, std::size_t knn) {
  WorldSpec spec;
  spec.nodes = nodes;
  spec.days = 8;
  spec.steps_per_day = 48;
  spec.knn = knn;
  spec.dtw_band = knn > 0 ? 4 : -1;
  spec.temporal_graphs = 2;
  spec.model.lookback = 6;
  spec.model.horizon = 3;
  spec.model.gcn_dim = 8;
  spec.model.lstm_dim = 8;
  return spec;
}

/// A set of streams. Stream k of the set (server id ids[k]) replays dataset
/// timesteps base[k], base[k] + 1, ... of the raw series; every reading it
/// ingests is logged for trace attribution.
struct Feeds {
  std::size_t usable = 0;  ///< timesteps whose full horizon exists
  std::vector<std::size_t> ids;
  std::vector<std::size_t> base;
  std::vector<std::size_t> next;
  std::vector<std::pair<std::size_t, std::size_t>> log;  ///< (id, t)

  std::size_t take(std::size_t k) {
    const std::size_t t = (base[k] + next[k]++) % usable;
    log.emplace_back(ids[k], t);
    return t;
  }
};

/// Registers `count` streams whose start points are spread over the series
/// (shifted by `phase` of one spacing) and fills each with a full lookback.
Feeds add_streams(serve::ForecastServer& srv, const World& w,
                  std::size_t count, std::size_t lookback, double phase) {
  Feeds f;
  f.usable = w.raw.num_timesteps() - srv.horizon();
  for (std::size_t k = 0; k < count; ++k) {
    const auto offset = static_cast<std::size_t>(
        (static_cast<double>(k) + phase) * static_cast<double>(f.usable) /
        static_cast<double>(count));
    f.base.push_back(offset % f.usable);
    f.next.push_back(0);
    f.ids.push_back(srv.add_stream(f.base[k] % w.raw.steps_per_day));
    for (std::size_t r = 0; r < lookback; ++r) {
      const std::size_t t = f.take(k);
      srv.ingest(f.ids[k], w.raw.truth[t], w.raw.mask[t]);
    }
  }
  return f;
}

/// Fingerprint of the normalized reading the server stores for timestep t —
/// the same bits TracedEngine sees as a window's newest step.
std::uint64_t reading_fingerprint(const World& w, std::size_t t) {
  Matrix normalized(w.raw.num_nodes(), w.raw.num_features());
  Matrix mask(w.raw.num_nodes(), w.raw.num_features());
  core::sanitize_reading(w.raw.truth[t], w.raw.mask[t], *w.normalizer,
                         normalized, mask);
  return fingerprint(normalized);
}

struct Request {
  std::int64_t due = 0;     ///< scheduled send time (open loop) / submit
  std::int64_t send = 0;    ///< generator woke up
  std::int64_t submit = 0;  ///< forecast_async called (after the ingest)
  std::int64_t ready = 0;   ///< the client observed the answer
  std::size_t stream = 0;
  std::size_t timestep = 0;  ///< newest reading ingested before the request
  bool failed = false;
};

/// Per-request stage breakdown built from the engine window records.
struct Stages {
  std::vector<double> lag, ingest, queue, engine, settle;
  std::size_t unmatched = 0;
};

/// Attributes each request to the first engine call that ran a window of its
/// stream at or after the request was submitted.
Stages attribute(const std::vector<Request>& reqs,
                 const std::vector<WindowRecord>& recs,
                 const std::map<std::uint64_t, std::vector<std::size_t>>& fp_streams,
                 std::size_t num_streams, Trace& trace) {
  std::vector<std::vector<const WindowRecord*>> by_stream(
      num_streams);
  for (const auto& r : recs) {
    const auto it = fp_streams.find(r.fingerprint);
    if (it == fp_streams.end()) continue;
    for (const std::size_t s : it->second) by_stream[s].push_back(&r);
  }
  for (auto& v : by_stream) {
    std::sort(v.begin(), v.end(), [](const auto* a, const auto* b) {
      return a->start_ns < b->start_ns;
    });
  }
  Stages st;
  std::uint64_t id = 0;
  for (const Request& q : reqs) {
    ++id;
    if (q.failed) continue;
    const auto& v = by_stream[q.stream];
    const auto it = std::lower_bound(
        v.begin(), v.end(), q.submit,
        [](const auto* r, std::int64_t t) { return r->start_ns < t; });
    if (it == v.end() || (*it)->end_ns > q.ready) {
      ++st.unmatched;
      continue;
    }
    const auto& r = **it;
    st.lag.push_back(ns_to_ms(q.send - q.due));
    st.ingest.push_back(ns_to_ms(q.submit - q.send));
    st.queue.push_back(ns_to_ms(r.start_ns - q.submit));
    st.engine.push_back(ns_to_ms(r.end_ns - r.start_ns));
    st.settle.push_back(ns_to_ms(q.ready - r.end_ns));
    const std::int64_t root = trace.add("serve.request", q.due, q.ready, -1, id);
    trace.add("loadgen.lag", q.due, q.send, root, id);
    trace.add("serve.ingest", q.send, q.submit, root, id);
    trace.add("serve.queue_wait", q.submit, r.start_ns, root, id);
    trace.add("serve.engine", r.start_ns, r.end_ns, root, id);
    trace.add("serve.settle", r.end_ns, q.ready, root, id);
  }
  return st;
}

std::map<std::uint64_t, std::vector<std::size_t>> fingerprint_streams(
    const World& w, const std::vector<Feeds>& feeds) {
  std::map<std::uint64_t, std::vector<std::size_t>> out;
  for (const Feeds& f : feeds) {
    for (const auto& [s, t] : f.log) {
      auto& v = out[reading_fingerprint(w, t)];
      if (std::find(v.begin(), v.end(), s) == v.end()) v.push_back(s);
    }
  }
  return out;
}

/// The window records of serving calls inside [t0, t1]: calls whose windows
/// came from stream readings. Accuracy and direct predict_batch probes run
/// outside the interval, and the publish canary's probe window is no
/// stream's reading, so all three are left out.
std::vector<WindowRecord> serving_calls(
    const std::vector<WindowRecord>& recs,
    const std::map<std::uint64_t, std::vector<std::size_t>>& fp_streams,
    std::int64_t t0, std::int64_t t1) {
  std::vector<WindowRecord> out;
  for (const WindowRecord& r : recs) {
    if (r.start_ns >= t0 && r.end_ns <= t1 && fp_streams.count(r.fingerprint) > 0) {
      out.push_back(r);
    }
  }
  return out;
}

/// Engine busy time (ns) over window records.
std::int64_t busy_ns(const std::vector<WindowRecord>& recs) {
  std::int64_t busy = 0;
  std::int64_t last_span = -1;
  for (const WindowRecord& r : recs) {
    if (r.span == last_span) continue;
    last_span = r.span;
    busy += r.end_ns - r.start_ns;
  }
  return busy;
}

/// ServerStats difference over a phase.
serve::ServerStats delta(const serve::ServerStats& a,
                         const serve::ServerStats& b) {
  serve::ServerStats d;
  d.requests = b.requests - a.requests;
  d.responses = b.responses - a.responses;
  d.engine_calls = b.engine_calls - a.engine_calls;
  d.batched_windows = b.batched_windows - a.batched_windows;
  d.coalesced_requests = b.coalesced_requests - a.coalesced_requests;
  d.snapshot_swaps = b.snapshot_swaps - a.snapshot_swaps;
  d.shed_requests = b.shed_requests - a.shed_requests;
  d.deadline_expired = b.deadline_expired - a.deadline_expired;
  d.aborted_requests = b.aborted_requests - a.aborted_requests;
  d.fallback_responses = b.fallback_responses - a.fallback_responses;
  return d;
}

/// The counter identity every finished phase must satisfy.
bool stats_identity(const serve::ServerStats& s) {
  return s.requests ==
         s.responses + s.shed_requests + s.deadline_expired + s.aborted_requests;
}

// ---- serve_stream --------------------------------------------------------

struct OpenLoopResult {
  std::vector<Request> reqs;
  std::uint64_t digest = 0;  ///< chained over the phase's answers
  double abs_err = 0.0;
  std::size_t err_count = 0;
  std::size_t malformed = 0;
  std::size_t failed = 0;
  bool aborted = false;
  bool backlog_grew = false;
  serve::ServerStats stats;  ///< delta over the phase
  std::int64_t t_begin = 0, t_end = 0;

  [[nodiscard]] std::vector<double> latencies_ms() const {
    std::vector<double> v;
    for (const Request& q : reqs) {
      if (!q.failed) v.push_back(ns_to_ms(q.ready - q.due));
    }
    return v;
  }
};

/// One open-loop phase: `count` arrivals at `rate` per second, round-robin
/// over the streams; each arrival ingests its stream's next reading and
/// then requests a forecast for it. A collector thread waits on the answers
/// in arrival order. Sending stops early once more than `abort_backlog`
/// requests are unanswered.
OpenLoopResult open_loop(serve::ForecastServer& srv, const World& w,
                         Feeds& feeds, double rate, std::size_t count,
                         std::size_t abort_backlog, std::uint64_t digest) {
  OpenLoopResult out;
  out.digest = digest;
  out.reqs.resize(count);
  const std::size_t n = srv.num_nodes();
  const std::size_t h = srv.horizon();
  const serve::ServerStats before = srv.stats();

  struct Pending {
    std::size_t idx;
    std::future<Matrix> fut;
  };
  std::mutex mu;  // guards queue, closed
  std::condition_variable cv;
  std::deque<Pending> queue;
  bool closed = false;
  std::atomic<std::size_t> completed{0};

  std::thread collector([&] {
    for (;;) {
      Pending p;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !queue.empty() || closed; });
        if (queue.empty()) return;
        p = std::move(queue.front());
        queue.pop_front();
      }
      Request& q = out.reqs[p.idx];
      try {
        const Matrix m = p.fut.get();
        q.ready = now_ns();
        if (!well_formed(m, n, h)) {
          ++out.malformed;
        } else {
          out.digest = fingerprint(m, out.digest);
          for (std::size_t k = 0; k < h; ++k) {
            const Matrix& truth = w.raw.truth[q.timestep + 1 + k];
            for (std::size_t i = 0; i < n; ++i) {
              out.abs_err += std::fabs(m(i, k) - truth(i, 0));
            }
          }
          out.err_count += n * h;
        }
      } catch (const std::exception&) {
        q.ready = now_ns();
        q.failed = true;
        ++out.failed;
      }
      completed.fetch_add(1, std::memory_order_release);
    }
  });
  const auto close_collector = [&] {
    {
      std::lock_guard<std::mutex> lock(mu);
      closed = true;
    }
    cv.notify_one();
    collector.join();
  };

  const double period_ns = 1e9 / rate;
  const std::size_t streams = feeds.ids.size();
  std::size_t backlog_quarter = 0;
  std::size_t sent = 0;
  out.t_begin = now_ns() + 1'000'000;  // first arrival 1 ms from now
  try {
    for (; sent < count; ++sent) {
      const std::size_t backlog =
          sent - completed.load(std::memory_order_acquire);
      if (backlog > abort_backlog) {
        out.aborted = true;
        break;
      }
      if (sent == count / 4) backlog_quarter = backlog;
      Request& q = out.reqs[sent];
      q.due = out.t_begin +
              static_cast<std::int64_t>(period_ns * static_cast<double>(sent));
      wait_until_ns(q.due);
      q.send = now_ns();
      q.stream = feeds.ids[sent % streams];
      q.timestep = feeds.take(sent % streams);
      srv.ingest(q.stream, w.raw.truth[q.timestep], w.raw.mask[q.timestep]);
      q.submit = now_ns();
      std::future<Matrix> fut = srv.forecast_async(q.stream);
      {
        std::lock_guard<std::mutex> lock(mu);
        queue.push_back(Pending{sent, std::move(fut)});
      }
      cv.notify_one();
    }
  } catch (...) {
    close_collector();
    throw;
  }
  const std::size_t backlog_end =
      sent - completed.load(std::memory_order_acquire);
  close_collector();
  out.reqs.resize(sent);
  out.t_end = now_ns();
  out.backlog_grew =
      backlog_end > backlog_quarter +
                        std::max<std::size_t>(4, static_cast<std::size_t>(
                                                     0.05 * static_cast<double>(sent)));
  out.stats = delta(before, srv.stats());
  // Fallback answers are served but not engine-fresh: they count as failed.
  out.failed += out.stats.fallback_responses;
  return out;
}

constexpr std::uint64_t kDigestSeed = 1469598103934665603ULL;

struct StreamSession {
  std::shared_ptr<core::InferenceEngine> engine;
  std::unique_ptr<serve::ForecastServer> server;
  std::vector<Feeds> feeds;  ///< one entry per stream set
};

/// A started server over `engine` with one stream set per entry of `sets`.
StreamSession open_session(std::shared_ptr<core::InferenceEngine> engine,
                           const World& w, const serve::ServeConfig& cfg,
                           const std::vector<std::size_t>& sets) {
  StreamSession s;
  s.engine = std::move(engine);
  s.server = std::make_unique<serve::ForecastServer>(s.engine, *w.normalizer, cfg);
  for (std::size_t i = 0; i < sets.size(); ++i) {
    s.feeds.push_back(add_streams(*s.server, w, sets[i], s.engine->lookback(),
                                  static_cast<double>(i) / static_cast<double>(sets.size())));
  }
  return s;
}

/// The light-rate phase, run as blocks on its own stream set. Answers chain
/// into one digest in arrival order; each block yields its own sized tail.
struct LightPhase {
  std::vector<OpenLoopResult> blocks;
  std::uint64_t digest = kDigestSeed;

  void run(serve::ForecastServer& srv, const World& w, Feeds& feeds,
           std::size_t count, std::size_t abort_backlog) {
    blocks.push_back(open_loop(srv, w, feeds, kLightRate, count, abort_backlog, digest));
    digest = blocks.back().digest;
  }
  [[nodiscard]] std::vector<Request> requests() const {
    std::vector<Request> out;
    for (const auto& b : blocks) out.insert(out.end(), b.reqs.begin(), b.reqs.end());
    return out;
  }
  [[nodiscard]] std::vector<double> latencies_ms() const {
    std::vector<double> out;
    for (const auto& b : blocks) {
      const auto v = b.latencies_ms();
      out.insert(out.end(), v.begin(), v.end());
    }
    return out;
  }
  /// Median over blocks of each block's sized tail.
  [[nodiscard]] Tail tail() const {
    std::vector<double> tails;
    Tail t;
    for (const auto& b : blocks) {
      t = sized_tail(b.latencies_ms());
      tails.push_back(t.value);
    }
    t.value = median(tails);
    return t;
  }
  [[nodiscard]] double mae() const {
    double err = 0.0;
    std::size_t n = 0;
    for (const auto& b : blocks) {
      err += b.abs_err;
      n += b.err_count;
    }
    return n == 0 ? 0.0 : err / static_cast<double>(n);
  }
  [[nodiscard]] std::size_t sent() const {
    std::size_t n = 0;
    for (const auto& b : blocks) n += b.reqs.size();
    return n;
  }
  [[nodiscard]] std::size_t failed() const {
    std::size_t n = 0;
    for (const auto& b : blocks) n += b.failed;
    return n;
  }
  [[nodiscard]] bool well_formed() const {
    for (const auto& b : blocks) {
      if (b.malformed != 0 || !stats_identity(b.stats)) return false;
    }
    return true;
  }
  [[nodiscard]] serve::ServerStats stats() const {
    serve::ServerStats sum;
    for (const auto& b : blocks) {
      sum.requests += b.stats.requests;
      sum.coalesced_requests += b.stats.coalesced_requests;
      sum.shed_requests += b.stats.shed_requests;
      sum.deadline_expired += b.stats.deadline_expired;
      sum.fallback_responses += b.stats.fallback_responses;
    }
    return sum;
  }
};

/// One ladder rung: up to two trials; it passes if either trial meets the
/// latency limit with no failure and no growing backlog, so one burst of
/// host interference does not end the climb.
struct Rung {
  int k = 0;
  double rate = 0.0;
  bool pass = false;
  std::vector<OpenLoopResult> trials;
  std::vector<Tail> tails;
};

bool trial_passes(const OpenLoopResult& r, const Tail& tail) {
  return !r.aborted && r.failed == 0 && r.malformed == 0 && !r.backlog_grew &&
         tail.value <= kTailLimitMs;
}

}  // namespace

RunResult run_serve_stream(const RunOptions& opt) {
  RunResult res;
  const WorldSpec spec = serving_world(opt.smoke ? 64 : 1024, 8);
  const std::size_t num_streams = opt.smoke ? 8 : 32;
  const std::vector<std::size_t> sets = {num_streams, num_streams};  // light, ladder
  constexpr std::size_t kLightBlocks = 8;
  core::InferenceEngine::Options eopt;
  eopt.max_batch = 8;
  eopt.num_threads = opt.plan.engine_threads;
  serve::ServeConfig scfg;
  scfg.num_workers = opt.plan.exec_workers;

  // Set-up: inputs, graphs, model, compiled engine, a started server with
  // every stream warmed to a full lookback. Repeated; the median is setup_s.
  Trace trace(opt.trace);
  std::vector<double> setup_s;
  std::unique_ptr<World> world;
  StreamSession session;
  double compile_ms = 0.0;
  for (std::size_t r = 0; r < opt.setup_reps(); ++r) {
    session = StreamSession{};
    world.reset();
    const std::int64_t t0 = now_ns();
    world = make_world(spec, opt.seed, trace);
    const std::int64_t tc = now_ns();
    auto engine = std::make_shared<core::InferenceEngine>(*world->model, eopt);
    compile_ms = ns_to_ms(now_ns() - tc);
    trace.add("engine.compile", tc, now_ns());
    session = open_session(engine, *world, scfg, sets);
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  const World& w = *world;

  // Light phase: kLightBlocks blocks at the fixed light rate, spread between
  // the ladder's trials so the latency figures sample the whole run.
  const auto block_count = static_cast<std::size_t>(
      std::llround(kLightRate * 0.8 * opt.seconds / kLightBlocks));
  const std::size_t abort_backlog = scfg.max_queue;
  LightPhase light;
  light.run(*session.server, w, session.feeds[0], block_count, abort_backlog);
  // The footprint at the operating point. The ladder overloads the server on
  // purpose; its extra memory is bounded by max_queue.
  const double rss_mb = peak_rss_mb();

  LightPhase traced_light;
  LightPhase* interleaved = &light;
  if (opt.trace) {
    // Untraced reference: the remaining light blocks back to back. Then the
    // same arrivals against a fresh server whose engine records spans: the
    // answers must be bit-identical, and the latency difference is the
    // tracing overhead.
    while (light.blocks.size() < kLightBlocks) {
      light.run(*session.server, w, session.feeds[0], block_count, abort_backlog);
    }
    session.server->drain();
    session = StreamSession{};
    session = open_session(std::make_shared<TracedEngine>(*w.model, eopt, trace),
                           w, scfg, sets);
    traced_light.run(*session.server, w, session.feeds[0], block_count, abort_backlog);
    interleaved = &traced_light;
  }
  const auto light_block = [&] {
    if (interleaved->blocks.size() < kLightBlocks) {
      interleaved->run(*session.server, w, session.feeds[0], block_count, abort_backlog);
    }
  };

  // Capacity ladder on the second stream set: gallop from kRungBase by
  // kGallop rungs until a rung fails, then climb one rung at a time from
  // the last pass.
  const double rung_s = std::clamp(0.06 * opt.seconds, 0.4, 2.0);
  std::vector<Rung> rungs;
  const auto try_rung = [&](int k) {
    Rung r;
    r.k = k;
    r.rate = rung_rate(k);
    const auto count = std::max<std::size_t>(
        20, static_cast<std::size_t>(std::llround(r.rate * rung_s)));
    for (int trial = 0; trial < 2 && !r.pass; ++trial) {
      light_block();
      r.trials.push_back(open_loop(*session.server, w, session.feeds[1], r.rate,
                                   count, abort_backlog, kDigestSeed));
      const OpenLoopResult& t = r.trials.back();
      r.tails.push_back(sized_tail(t.latencies_ms()));
      r.pass = trial_passes(t, r.tails.back());
      res.note(strf("rung %+d trial %d: %.1f rps, %zu sent, %s %.2f ms, "
                    "failed %zu, backlog %s -> %s",
                    k, trial + 1, r.rate, t.reqs.size(),
                    r.tails.back().label().c_str(), r.tails.back().value,
                    t.failed, t.backlog_grew || t.aborted ? "grew" : "steady",
                    r.pass ? "pass" : "fail"));
    }
    rungs.push_back(std::move(r));
    return rungs.back().pass;
  };
  int lo = INT_MIN;  // highest passing rung
  int hi = INT_MAX;  // lowest failing rung above it
  if (try_rung(0)) {
    lo = 0;
    for (int k = kGallop; k <= kMaxRung; k += kGallop) {
      if (!try_rung(k)) {
        hi = k;
        break;
      }
      lo = k;
    }
  } else {
    hi = 0;
    for (int k = -kGallop; k >= kMinRung; k -= kGallop) {
      if (try_rung(k)) {
        lo = k;
        break;
      }
      hi = k;
    }
  }
  if (lo != INT_MIN) {
    for (int k = lo + 1; k < hi && k <= kMaxRung; ++k) {
      if (!try_rung(k)) break;
      lo = k;
    }
  }
  while (interleaved->blocks.size() < kLightBlocks) light_block();
  res.gate(lo != INT_MIN, "serve_stream: no ladder rung met the latency limit");
  // Capacity: the answer rate measured over the passing trial of the highest
  // passing rung (its nominal rate, rung_rate(lo), is in the notes).
  double max_rate = 0.0;
  for (const Rung& r : rungs) {
    if (r.k != lo || !r.pass) continue;
    const OpenLoopResult& t = r.trials.back();
    std::int64_t last_ready = t.reqs.front().due;
    for (const Request& q : t.reqs) last_ready = std::max(last_ready, q.ready);
    max_rate = static_cast<double>(t.reqs.size()) /
               (static_cast<double>(last_ready - t.reqs.front().due) * 1e-9);
    res.note(strf("capacity: rung %+d (%.1f rps nominal), %.2f answers per second",
                  lo, rung_rate(lo), max_rate));
  }

  session.server->drain();
  res.gate(stats_identity(session.server->stats()),
           "serve_stream: requests != responses + shed + expired + aborted");
  for (const LightPhase* phase : {&light, &traced_light}) {
    res.gate(phase->well_formed(),
             "serve_stream: a light-rate answer was not finite N x horizon, or "
             "its counters violate the request identity");
  }
  for (const Rung& r : rungs) {
    for (const OpenLoopResult& t : r.trials) {
      res.gate(t.malformed == 0,
               "serve_stream: a ladder answer was not finite N x horizon");
    }
  }
  res.attempted = light.sent();
  res.failed = light.failed();

  const std::vector<double> light_lat = light.latencies_ms();
  const Tail light_tail = light.tail();
  std::vector<double> lag_ms;
  for (const Request& q : light.requests()) lag_ms.push_back(ns_to_ms(q.send - q.due));
  const Tail lag_tail = sized_tail(lag_ms);
  std::string block_tails;
  for (const OpenLoopResult& b : light.blocks) {
    block_tails += strf(" %.2f", sized_tail(b.latencies_ms()).value);
  }
  res.note(strf("light phase: %zu blocks x %zu requests at %.0f rps, digest %016llx, "
                "generator lag p50 %.3f ms, %s %.3f ms; block tails (ms):%s",
                light.blocks.size(), block_count, kLightRate,
                static_cast<unsigned long long>(light.digest), median(lag_ms),
                lag_tail.label().c_str(), lag_tail.value, block_tails.c_str()));
  res.e2e("setup_s", median(setup_s), "s", setup_s.size(), "median");
  res.e2e("peak_rss_mb", rss_mb, "MB", 0, "through the first light block");
  res.e2e("p50_ms", median(light_lat), "ms", light_lat.size(), "p50");
  res.e2e("tail_ms", light_tail.value, "ms", light_tail.samples,
          strf("%s per block, median of %zu blocks", light_tail.label().c_str(),
               light.blocks.size()));
  res.e2e("throughput_per_s", max_rate, "1/s", rungs.size(),
          strf("answer rate at the highest rung with tail <= %.0f ms", kTailLimitMs));
  res.e2e("forecast_mae", light.mae(), "mph", light.sent(), "mean over answers");
  res.e2e("served_ratio",
          1.0 - ratio_of(light.failed(), std::max<std::size_t>(1, light.sent())),
          "ratio", light.sent(), "mean");
  if (!opt.trace) return res;

  // ---- per-layer metrics from the traced session ---------------------------
  res.gate(traced_light.digest == light.digest,
           "serve_stream: traced and untraced light-rate answers differ");
  const std::vector<double> traced_lat = traced_light.latencies_ms();
  const Tail traced_tail = traced_light.tail();
  res.note(strf("tracing overhead (light rate): p50 %.3f -> %.3f ms (%+.1f%%), "
                "tail %.3f -> %.3f ms (%+.1f%%)",
                median(light_lat), median(traced_lat),
                100.0 * (median(traced_lat) / median(light_lat) - 1.0),
                light_tail.value, traced_tail.value,
                100.0 * (traced_tail.value / light_tail.value - 1.0)));

  const auto recs = trace.windows();
  const auto fps = fingerprint_streams(w, session.feeds);
  const std::size_t total_streams = num_streams * sets.size();
  const Stages st =
      attribute(traced_light.requests(), recs, fps, total_streams, trace);
  res.gate(st.unmatched == 0,
           "serve_stream: a traced request has no engine span");
  // Stage reconciliation: the stages are consecutive intervals of each
  // request, so their medians must add up to the median latency.
  const double stage_sum = median(st.lag) + median(st.ingest) +
                           median(st.queue) + median(st.engine) +
                           median(st.settle);
  const double p50_traced = median(traced_lat);
  const bool reconciled = std::fabs(stage_sum - p50_traced) <= 0.15 * p50_traced;
  res.note(strf("stage reconciliation (light rate, medians): lag %.3f + ingest "
                "%.3f + queue %.3f + engine %.3f + settle %.3f = %.3f ms vs p50 "
                "%.3f ms (tolerance 15%%: %s)",
                median(st.lag), median(st.ingest), median(st.queue),
                median(st.engine), median(st.settle), stage_sum, p50_traced,
                reconciled ? "ok" : "FAILED"));
  res.gate(reconciled, "serve_stream: stage medians do not add up to the p50 latency");

  const Tail qtail = sized_tail(st.queue);
  const Tail traced_lag = sized_tail(st.lag);
  const serve::ServerStats ls = traced_light.stats();
  res.layer("serve.ingest_us", 1e3 * median(st.ingest), "us", st.ingest.size(), "p50");
  res.layer("serve.queue_wait_ms.p50", median(st.queue), "ms", st.queue.size(), "p50");
  res.layer("serve.queue_wait_ms.tail", qtail.value, "ms", qtail.samples, qtail.label());
  res.layer("serve.engine_ms.p50", median(st.engine), "ms", st.engine.size(), "p50");
  res.layer("serve.settle_ms.p50", median(st.settle), "ms", st.settle.size(), "p50");
  res.layer("serve.coalesce_ratio", ratio_of(ls.coalesced_requests, ls.requests), "ratio");
  res.layer("serve.shed_ratio", ratio_of(ls.shed_requests, ls.requests), "ratio");
  res.layer("serve.expired_ratio", ratio_of(ls.deadline_expired, ls.requests), "ratio");
  res.layer("serve.fallback_ratio", ratio_of(ls.fallback_responses, ls.requests), "ratio");
  res.layer("loadgen.lag_ms", traced_lag.value, "ms", traced_lag.samples, traced_lag.label());
  res.gate(ls.coalesced_requests == 0,
           "serve_stream: requests coalesced although every arrival ingests");

  // Batching and pool use at capacity: the passing trial of the highest
  // passing rung.
  const Rung* top = nullptr;
  for (const Rung& r : rungs) {
    if (r.pass && (top == nullptr || r.k > top->k)) top = &r;
  }
  if (top != nullptr) {
    const OpenLoopResult& t = top->trials.back();
    const std::int64_t busy = busy_ns(serving_calls(recs, fps, t.t_begin, t.t_end));
    res.layer("serve.batch_mean",
              ratio_of(t.stats.batched_windows, t.stats.engine_calls), "windows");
    res.layer("serve.pool_util",
              static_cast<double>(busy) /
                  (static_cast<double>(t.t_end - t.t_begin) *
                   static_cast<double>(std::max<std::size_t>(1, scfg.num_workers))),
              "ratio");
  }
  report_engine_calls(serving_calls(recs, fps, traced_light.blocks.front().t_begin,
                                    std::max(traced_light.blocks.back().t_end,
                                             rungs.back().trials.back().t_end)),
                      res);
  res.layer("engine.compile_ms", compile_ms, "ms");
  const std::vector<std::size_t> test = spread(w.split.test, 16);
  res.layer("engine.window_ms.b1", window_ms(*session.engine, w, test, 1, opt.smoke ? 3 : 30), "ms");
  res.layer("engine.window_ms.b8", window_ms(*session.engine, w, test, 8, opt.smoke ? 2 : 10), "ms");
  res.layer("data.generate_s", w.generate_s, "s");
  res.layer("data.window_us", make_window_us(*w.sampler, test, 200), "us", 200, "p50");
  res.layer("timeseries.graphs_s", w.graphs_s, "s");
  const ts::KnnStats& knn = w.graphs->temporal_knn_stats();
  res.layer("timeseries.dtw_started_ratio", ratio_of(knn.dtw_started, knn.pairs), "ratio");
  res.note(strf("trace: %zu spans", trace.spans().size()));
  if (!trace.write(opt.out_dir + "/trace-serve_stream.jsonl")) {
    res.note("trace: could not write the span file");
  }
  return res;
}

// ---- serve_hot ------------------------------------------------------------

RunResult run_serve_hot(const RunOptions& opt) {
  RunResult res;
  const WorldSpec spec = serving_world(opt.smoke ? 32 : 256, 0);
  constexpr std::size_t kStreams = 4;
  constexpr std::size_t kClients = 2;
  constexpr std::size_t kOutstanding = 8;
  constexpr std::int64_t kIngestEveryNs = 50'000'000;
  constexpr std::int64_t kPublishEveryNs = 1'000'000'000;
  core::InferenceEngine::Options eopt;
  eopt.max_batch = 8;
  eopt.num_threads = opt.plan.engine_threads;
  serve::ServeConfig scfg;
  scfg.num_workers = opt.plan.exec_workers;

  Trace trace(opt.trace);
  const auto compile = [&](const World& w) -> std::shared_ptr<core::InferenceEngine> {
    if (opt.trace) return std::make_shared<TracedEngine>(*w.model, eopt, trace);
    return std::make_shared<core::InferenceEngine>(*w.model, eopt);
  };
  std::vector<double> setup_s;
  std::unique_ptr<World> world;
  StreamSession session;
  for (std::size_t r = 0; r < opt.setup_reps(); ++r) {
    session = StreamSession{};
    world.reset();
    const std::int64_t t0 = now_ns();
    world = make_world(spec, opt.seed, trace);
    session = open_session(compile(*world), *world, scfg, {kStreams});
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  const World& w = *world;
  serve::ForecastServer& srv = *session.server;
  const std::size_t n = srv.num_nodes();
  const std::size_t h = srv.horizon();

  // Client 0 also ingests one reading per stream every 50 ms; client 1 also
  // compiles and publishes a fresh engine once a second. Both keep
  // kOutstanding forecasts in flight, rotating over the hot streams.
  struct ClientLog {
    std::vector<Request> reqs;
    std::vector<double> ingest_us, lag_ms, publish_ms, compile_ms;
    std::size_t malformed = 0, failed = 0, publishes = 0, rejected = 0;
    std::exception_ptr error;
  };
  std::vector<ClientLog> logs(kClients);
  // A fixed request count (not a fixed time), so the tail percentile the
  // sample supports does not move when serving gets faster.
  const auto total_requests = static_cast<std::size_t>(360.0 * opt.seconds);
  std::atomic<std::size_t> issued{0};
  const serve::ServerStats before = srv.stats();
  const std::int64_t t_begin = now_ns();

  const auto client = [&](std::size_t c) {
    ClientLog& log = logs[c];
    std::deque<std::pair<std::size_t, std::future<Matrix>>> inflight;
    std::size_t rr = c;
    std::int64_t next_ingest = t_begin + kIngestEveryNs;
    std::int64_t next_publish = t_begin + kPublishEveryNs;
    const auto collect_oldest = [&] {
      Request& q = log.reqs[inflight.front().first];
      try {
        const Matrix m = inflight.front().second.get();
        q.ready = now_ns();
        if (!well_formed(m, n, h)) ++log.malformed;
      } catch (const std::exception&) {
        q.ready = now_ns();
        q.failed = true;
        ++log.failed;
      }
      inflight.pop_front();
    };
    try {
      for (bool issuing = true; issuing;) {
        const std::int64_t now = now_ns();
        if (c == 0 && now >= next_ingest) {
          log.lag_ms.push_back(ns_to_ms(now - next_ingest));
          for (std::size_t s = 0; s < kStreams; ++s) {
            Feeds& feeds = session.feeds[0];  // client 0 only
            const std::size_t t = feeds.take(s);
            const std::int64_t ti = now_ns();
            srv.ingest(feeds.ids[s], w.raw.truth[t], w.raw.mask[t]);
            log.ingest_us.push_back(static_cast<double>(now_ns() - ti) * 1e-3);
          }
          next_ingest += kIngestEveryNs;
        }
        if (c == 1 && now >= next_publish) {
          const std::int64_t tc = now_ns();
          std::shared_ptr<core::InferenceEngine> fresh = compile(w);
          const std::int64_t tp = now_ns();
          const bool ok = srv.publish(std::move(fresh));
          const std::int64_t te = now_ns();
          log.compile_ms.push_back(ns_to_ms(tp - tc));
          log.publish_ms.push_back(ns_to_ms(te - tp));
          trace.add("engine.compile", tc, tp);
          trace.add("serve.publish", tp, te);
          ++log.publishes;
          if (!ok) ++log.rejected;
          next_publish += kPublishEveryNs;
        }
        while (inflight.size() < kOutstanding) {
          if (issued.fetch_add(1) >= total_requests) {
            issuing = false;
            break;
          }
          Request q;
          q.stream = rr++ % kStreams;
          q.due = q.send = q.submit = now_ns();
          inflight.emplace_back(log.reqs.size(), srv.forecast_async(q.stream));
          log.reqs.push_back(q);
        }
        if (!inflight.empty()) collect_oldest();
      }
      while (!inflight.empty()) collect_oldest();
    } catch (...) {
      log.error = std::current_exception();
      while (!inflight.empty()) {
        inflight.front().second.wait();
        inflight.pop_front();
      }
    }
  };
  {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kClients; ++c) threads.emplace_back(client, c);
    for (std::thread& t : threads) t.join();
  }
  const std::int64_t t_end = now_ns();
  for (const ClientLog& log : logs) {
    if (log.error) std::rethrow_exception(log.error);
  }
  srv.drain();
  const serve::ServerStats d = delta(before, srv.stats());

  std::vector<double> lat;
  std::vector<Request> all;
  std::size_t failed = 0, malformed = 0, rejected = 0, publishes = 0;
  for (const ClientLog& log : logs) {
    for (const Request& q : log.reqs) {
      if (!q.failed) lat.push_back(ns_to_ms(q.ready - q.submit));
      all.push_back(q);
    }
    failed += log.failed;
    malformed += log.malformed;
    rejected += log.rejected;
    publishes += log.publishes;
  }
  failed += d.fallback_responses;
  res.gate(malformed == 0, "serve_hot: an answer was not finite N x horizon");
  res.gate(stats_identity(d),
           "serve_hot: requests != responses + shed + expired + aborted");
  res.gate(d.requests == all.size(), "serve_hot: server saw a different request count");
  res.gate(rejected == 0, "serve_hot: the canary rejected a healthy engine");
  res.gate(d.snapshot_swaps == publishes, "serve_hot: a published engine was not swapped in");
  res.attempted = all.size();
  res.failed = failed;

  const double wall_s = static_cast<double>(t_end - t_begin) * 1e-9;
  const Tail tail = sized_tail(lat);
  const std::vector<std::size_t> test = spread(heldout(w.split), opt.smoke ? 4 : 64);
  res.e2e("setup_s", median(setup_s), "s", setup_s.size(), "median");
  res.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  res.e2e("p50_ms", median(lat), "ms", lat.size(), "p50");
  res.e2e("tail_ms", tail.value, "ms", tail.samples, tail.label());
  res.e2e("throughput_per_s",
          static_cast<double>(d.responses - d.fallback_responses) / wall_s,
          "1/s", d.responses, "engine-fresh answers per second");
  res.e2e("forecast_mae", engine_mae(*session.engine, w, test), "mph",
          test.size(), "held-out windows");
  res.e2e("served_ratio", 1.0 - ratio_of(failed, std::max<std::size_t>(1, all.size())),
          "ratio", all.size(), "mean");
  res.note(strf("closed loop: %zu clients x %zu outstanding on %zu streams, "
                "%zu requests in %.2f s, %zu publishes, ingest lag p50 %.3f ms",
                kClients, kOutstanding, kStreams, all.size(), wall_s, publishes,
                median(logs[0].lag_ms)));
  if (!opt.trace) return res;

  const auto recs = trace.windows();
  const auto fps = fingerprint_streams(w, session.feeds);
  const std::vector<WindowRecord> serving = serving_calls(recs, fps, t_begin, t_end);
  const Stages st = attribute(all, serving, fps, kStreams, trace);
  res.gate(st.unmatched <= all.size() / 100,
           "serve_hot: more than 1% of traced requests have no engine span");
  const Tail qtail = sized_tail(st.queue);
  const Tail lag_tail = sized_tail(logs[0].lag_ms);
  res.layer("serve.ingest_us", median(logs[0].ingest_us), "us",
            logs[0].ingest_us.size(), "p50");
  res.layer("serve.queue_wait_ms.p50", median(st.queue), "ms", st.queue.size(), "p50");
  res.layer("serve.queue_wait_ms.tail", qtail.value, "ms", qtail.samples, qtail.label());
  res.layer("serve.engine_ms.p50", median(st.engine), "ms", st.engine.size(), "p50");
  res.layer("serve.settle_ms.p50", median(st.settle), "ms", st.settle.size(), "p50");
  res.layer("serve.batch_mean", ratio_of(d.batched_windows, d.engine_calls), "windows");
  res.layer("serve.coalesce_ratio", ratio_of(d.coalesced_requests, d.requests), "ratio");
  res.layer("serve.pool_util",
            static_cast<double>(busy_ns(serving)) /
                static_cast<double>(t_end - t_begin),
            "ratio");
  res.layer("serve.publish_ms", median(logs[1].publish_ms), "ms",
            logs[1].publish_ms.size(), "p50");
  res.layer("serve.swaps", static_cast<double>(d.snapshot_swaps), "count");
  res.layer("serve.shed_ratio", ratio_of(d.shed_requests, d.requests), "ratio");
  res.layer("serve.expired_ratio", ratio_of(d.deadline_expired, d.requests), "ratio");
  res.layer("serve.fallback_ratio", ratio_of(d.fallback_responses, d.requests), "ratio");
  res.layer("loadgen.lag_ms", lag_tail.value, "ms", lag_tail.samples, lag_tail.label());
  report_engine_calls(serving, res);
  res.layer("engine.compile_ms", median(logs[1].compile_ms), "ms",
            logs[1].compile_ms.size(), "p50");
  res.layer("engine.window_ms.b1", window_ms(*session.engine, w, test, 1, opt.smoke ? 3 : 50), "ms");
  res.layer("engine.window_ms.b8", window_ms(*session.engine, w, test, 8, opt.smoke ? 2 : 20), "ms");
  res.layer("data.generate_s", w.generate_s, "s");
  res.layer("data.window_us", make_window_us(*w.sampler, test, 200), "us", 200, "p50");
  res.layer("timeseries.graphs_s", w.graphs_s, "s");
  const ts::KnnStats& knn = w.graphs->temporal_knn_stats();
  res.layer("timeseries.dtw_started_ratio", ratio_of(knn.dtw_started, knn.pairs), "ratio");
  res.note(strf("trace: %zu spans", trace.spans().size()));
  if (!trace.write(opt.out_dir + "/trace-serve_hot.jsonl")) {
    res.note("trace: could not write the span file");
  }
  return res;
}

}  // namespace perfbench
