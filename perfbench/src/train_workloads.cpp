// train_epoch: the f64 tape trainer under the Table-I protocol at N = 256,
// then the compiled engine over the held-out test windows.
// city_16k: N = 16384 without any N x N intermediate — pruned-DTW k-NN
// graphs, clustered training, and batch-1 ShardedEngine forecasts.
#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/sharded_engine.hpp"
#include "core/trainer.hpp"
#include "nn/optim.hpp"
#include "tensor/parallel.hpp"
#include "tensor/rng.hpp"
#include "world.hpp"

namespace perfbench {

using namespace rihgcn;

namespace {

double seconds_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

bool finite_losses(const core::TrainReport& r) {
  for (const double l : r.train_losses) {
    if (!std::isfinite(l)) return false;
  }
  return true;
}

/// Single-thread replay of the trainer's public calls on the workload's own
/// windows: the loss forward, Tape::backward, and one Adam step per item.
/// `clusters` = 0 replays full-graph items; otherwise each window expands
/// into one cluster_training_loss item per cluster. Mutates the model's
/// parameters, so it runs after every other measurement.
void replay_training(core::RihgcnModel& model, const data::WindowSampler& sampler,
                     const std::vector<std::size_t>& starts,
                     std::size_t clusters, std::size_t global_pool,
                     Trace& trace, RunResult& res) {
  ThreadPool::set_global_threads(1);
  std::vector<ad::Parameter*> params = model.parameters();
  nn::AdamOptimizer optimizer(params);
  ad::Tape tape;
  std::vector<double> fwd, bwd, optim;
  std::size_t nodes = 0;
  for (const std::size_t start : starts) {
    const data::Window w = sampler.make_window(start);
    for (std::size_t c = 0; c < std::max<std::size_t>(1, clusters); ++c) {
      optimizer.zero_grad();
      tape.reset();
      const std::int64_t t0 = now_ns();
      const ad::Var loss = clusters == 0
                               ? model.training_loss(tape, w)
                               : model.cluster_training_loss(tape, w, c);
      const std::int64_t t1 = now_ns();
      tape.backward(loss);
      const std::int64_t t2 = now_ns();
      optimizer.step();
      const std::int64_t t3 = now_ns();
      const std::uint64_t item = fwd.size() + 1;
      const std::int64_t root = trace.add("train.item", t0, t3, -1, item);
      trace.add("train.forward", t0, t1, root, item);
      trace.add("train.backward", t1, t2, root, item);
      trace.add("train.optim_step", t2, t3, root, item);
      nodes = tape.num_nodes();
      fwd.push_back(ns_to_ms(t1 - t0));
      bwd.push_back(ns_to_ms(t2 - t1));
      optim.push_back(ns_to_ms(t3 - t2));
    }
  }
  ThreadPool::set_global_threads(global_pool);
  res.layer("train.fwd_ms", median(fwd), "ms", fwd.size(), "p50");
  res.layer("train.bwd_ms", median(bwd), "ms", bwd.size(), "p50");
  res.layer("train.optim_ms", median(optim), "ms", optim.size(), "p50");
  res.layer("train.tape_nodes", static_cast<double>(nodes), "count");
}

/// Batch-1 forecast latency, sampled in blocks spread over the run: the
/// host's speed drifts over seconds, so one contiguous burst of samples
/// would measure the drift rather than the program.
struct ForecastSamples {
  explicit ForecastSamples(Trace& t, const char* span) : trace(t), name(span) {}
  Trace& trace;
  const char* name;  ///< span name of one forecast
  std::vector<double> lat_ms;
  std::size_t malformed = 0;

  template <typename Predict>
  void block(std::size_t count, const std::vector<data::Window>& windows,
             std::size_t rows, std::size_t horizon, Predict&& predict) {
    for (std::size_t k = 0; k < count; ++k) {
      const std::int64_t t0 = now_ns();
      const Matrix pred = predict(windows[k % windows.size()]);
      const std::int64_t t1 = now_ns();
      lat_ms.push_back(ns_to_ms(t1 - t0));
      trace.add(name, t0, t1, -1, lat_ms.size());
      if (!well_formed(pred, rows, horizon)) ++malformed;
    }
  }

  /// `callers` threads forecast concurrently through one compiled plan,
  /// each on its own workspace; caller c takes forecasts c, c + callers, ...
  void concurrent_block(std::size_t count, const std::vector<data::Window>& windows,
                        const core::InferenceEngine& engine, std::size_t callers) {
    std::vector<std::vector<double>> lat(callers);
    std::vector<std::size_t> bad(callers, 0);
    const auto body = [&](std::size_t c) {
      core::InferenceEngine::Workspace ws = engine.make_workspace();
      for (std::size_t k = c; k < count; k += callers) {
        const data::Window* w = &windows[k % windows.size()];
        const std::int64_t t0 = now_ns();
        const FMatrix& pred = engine.predict_batch(&w, 1, ws);
        const std::int64_t t1 = now_ns();
        lat[c].push_back(ns_to_ms(t1 - t0));
        trace.add(name, t0, t1, -1, k + 1);
        // Rows [0, N) of the workspace's stacked output hold this window.
        const std::size_t entries = engine.num_nodes() * engine.horizon();
        bool ok = pred.rows() >= engine.num_nodes() && pred.cols() == engine.horizon();
        for (std::size_t i = 0; ok && i < entries; ++i) ok = std::isfinite(pred.data()[i]);
        if (!ok) ++bad[c];
      }
    };
    std::vector<std::thread> threads;
    for (std::size_t c = 1; c < callers; ++c) threads.emplace_back(body, c);
    body(0);
    for (std::thread& th : threads) th.join();
    for (std::size_t c = 0; c < callers; ++c) {
      lat_ms.insert(lat_ms.end(), lat[c].begin(), lat[c].end());
      malformed += bad[c];
    }
  }
};

std::vector<data::Window> make_windows(const data::WindowSampler& sampler,
                                       const std::vector<std::size_t>& starts) {
  std::vector<data::Window> out;
  for (const std::size_t s : starts) out.push_back(sampler.make_window(s));
  return out;
}

}  // namespace

// ---- train_epoch ------------------------------------------------------------

RunResult run_train_epoch(const RunOptions& opt) {
  RunResult res;
  WorldSpec spec;
  spec.nodes = opt.smoke ? 24 : 256;
  spec.days = 4;
  spec.steps_per_day = opt.smoke ? 96 : 288;  // 5-minute bins
  spec.knn = 8;
  spec.dtw_band = 4;
  spec.model.lookback = 12;  // Table I: one hour in, up to one hour out
  spec.model.horizon = 12;
  spec.model.gcn_dim = 12;
  spec.model.lstm_dim = 24;

  core::InferenceEngine::Options eopt;
  eopt.max_batch = 8;
  eopt.num_threads = opt.plan.engine_threads;
  Trace trace(opt.trace);
  const auto compile = [&](const World& w) -> std::unique_ptr<core::InferenceEngine> {
    if (opt.trace) return std::make_unique<TracedEngine>(*w.model, eopt, trace);
    return std::make_unique<core::InferenceEngine>(*w.model, eopt);
  };

  // Each set-up is followed by a block of forecasts on an engine compiled
  // from its initial weights (an engine's cost does not depend on weight
  // values), so the latency samples span the whole run; the last block runs
  // on the trained engine.
  const auto forecasts = static_cast<std::size_t>(36.0 * opt.seconds);
  const std::size_t blocks = opt.setup_reps() + 1;
  // Two concurrent callers, as a trained engine serves them: they keep the
  // host's cores in one steady state, where a single busy thread sees the
  // clock swing by a quarter.
  constexpr std::size_t kCallers = 2;
  ForecastSamples samples(trace, "forecast");
  std::vector<double> setup_s;
  std::unique_ptr<World> world;
  std::vector<std::size_t> eval;
  std::vector<data::Window> windows;
  for (std::size_t r = 0; r < opt.setup_reps(); ++r) {
    world.reset();
    const std::int64_t t0 = now_ns();
    world = make_world(spec, opt.seed, trace);
    setup_s.push_back(seconds_since(t0));
    eval = spread(heldout(world->split), opt.smoke ? 4 : 96);
    windows = make_windows(*world->sampler, eval);
    const auto initial = compile(*world);
    samples.concurrent_block(forecasts / blocks, windows, *initial, kCallers);
  }
  World& w = *world;

  core::TrainConfig tc;
  tc.batch_size = 8;
  tc.num_threads = opt.plan.trainer_threads;
  tc.max_epochs = opt.smoke ? 1 : 2;
  tc.patience = tc.max_epochs + 1;  // fixed epoch count, never early-stops
  tc.max_train_windows = opt.smoke ? 8 : 64;
  tc.max_val_windows = opt.smoke ? 4 : 16;
  const std::size_t train_windows =
      std::min(tc.max_train_windows, w.split.train.size());
  const std::int64_t t_train = now_ns();
  const core::TrainReport report =
      core::train_model(*w.model, *w.sampler, w.split, tc);
  const double train_s = seconds_since(t_train);
  trace.add("train.train_model", t_train, now_ns());
  res.gate(report.epochs_run == tc.max_epochs,
           "train_epoch: the trainer stopped before the fixed epoch count");
  res.gate(finite_losses(report), "train_epoch: a training loss is not finite");

  const std::int64_t t_compile = now_ns();
  const std::unique_ptr<core::InferenceEngine> engine = compile(w);
  const double compile_ms = ns_to_ms(now_ns() - t_compile);
  trace.add("engine.compile", t_compile, now_ns());

  // Accuracy: the engine against the f64 tape on the same held-out windows.
  const double mae_engine = engine_mae(*engine, w, eval);
  const double mae_tape =
      core::evaluate_prediction(*w.model, *w.sampler, eval, w.normalizer.get()).mae;
  const double mae_tol = 1e-3 * mae_tape;
  res.note(strf("forecast MAE on %zu held-out windows: engine %.6f mph, f64 "
                "tape %.6f mph (gate |diff| <= 1e-3 x tape = %.6f)",
                eval.size(), mae_engine, mae_tape, mae_tol));
  res.gate(std::fabs(mae_engine - mae_tape) <= mae_tol,
           "train_epoch: engine MAE disagrees with the f64 tape MAE");

  samples.concurrent_block(forecasts - (blocks - 1) * (forecasts / blocks), windows,
                           *engine, kCallers);
  res.gate(samples.malformed == 0, "train_epoch: a forecast was not finite N x horizon");
  res.attempted = tc.max_epochs * train_windows + forecasts;
  res.failed = report.guard.batches_skipped + samples.malformed;

  const std::vector<double>& lat = samples.lat_ms;
  const Tail tail = sized_tail(lat);
  res.e2e("setup_s", median(setup_s), "s", setup_s.size(), "median");
  res.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  res.e2e("p50_ms", median(lat), "ms", lat.size(), "p50");
  res.e2e("tail_ms", tail.value, "ms", tail.samples, tail.label());
  res.e2e("throughput_per_s",
          static_cast<double>(tc.max_epochs * train_windows) / train_s, "1/s",
          tc.max_epochs, "training windows per second, validation included");
  res.e2e("forecast_mae", mae_engine, "mph", eval.size(), "held-out windows");
  res.e2e("served_ratio",
          1.0 - ratio_of(samples.malformed, forecasts), "ratio", forecasts, "mean");
  res.note(strf("training: %zu epochs x %zu windows, batch %zu, %zu threads, "
                "%.3f s; loss %.4f -> %.4f",
                tc.max_epochs, train_windows, tc.batch_size, tc.num_threads,
                train_s, report.train_losses.front(),
                report.train_losses.back()));
  if (!opt.trace) return res;

  report_engine_calls(trace.windows(), res);
  res.layer("engine.compile_ms", compile_ms, "ms");
  res.layer("engine.window_ms.b1", window_ms(*engine, w, eval, 1, opt.smoke ? 3 : 50), "ms");
  res.layer("engine.window_ms.b8", window_ms(*engine, w, eval, 8, opt.smoke ? 2 : 20), "ms");
  res.layer("data.generate_s", w.generate_s, "s");
  res.layer("data.window_us", make_window_us(*w.sampler, eval, 200), "us", 200, "p50");
  res.layer("timeseries.graphs_s", w.graphs_s, "s");
  const ts::KnnStats& knn = w.graphs->temporal_knn_stats();
  res.layer("timeseries.dtw_started_ratio", ratio_of(knn.dtw_started, knn.pairs), "ratio");
  const std::vector<std::size_t> val = spread(w.split.val, tc.max_val_windows);
  const std::int64_t t_val = now_ns();
  (void)core::evaluate_prediction(*w.model, *w.sampler, val, nullptr);
  res.layer("train.val_s", seconds_since(t_val), "s", val.size(), "one pass");
  trace.add("train.validation", t_val, now_ns());
  replay_training(*w.model, *w.sampler, spread(w.split.train, opt.smoke ? 2 : 8),
                  0, opt.plan.global_pool, trace, res);
  if (!trace.write(opt.out_dir + "/trace-train_epoch.jsonl")) {
    res.note("trace: could not write the span file");
  }
  return res;
}

// ---- city_16k ---------------------------------------------------------------

namespace {

/// A city-scale dataset built without any N x N intermediate (the recipe of
/// tests/test_scale.cpp): diurnal speeds in five phase groups, random sensor
/// coordinates and ~15% MCAR missingness drawn from the seed. No
/// geo_distances, so the graph build takes the coordinate k-NN path.
data::TrafficDataset make_city(std::size_t n, std::size_t days,
                               std::size_t steps_per_day, std::uint64_t seed) {
  Rng rng(seed);
  data::TrafficDataset ds;
  ds.name = "city";
  ds.steps_per_day = steps_per_day;
  ds.coords = rng.uniform_matrix(n, 2, -30.0, 30.0);
  const std::size_t total = days * steps_per_day;
  Rng mask_rng(seed ^ 0x5bd1e995ULL);
  for (std::size_t t = 0; t < total; ++t) {
    const double hour = 24.0 * static_cast<double>(t % steps_per_day) /
                        static_cast<double>(steps_per_day);
    Matrix x(n, 1);
    Matrix m(n, 1);
    for (std::size_t i = 0; i < n; ++i) {
      const double base =
          55.0 + 10.0 * std::sin(0.26 * hour + 0.9 * static_cast<double>(i % 5));
      x(i, 0) = base + 2.0 * std::sin(static_cast<double>(i) * 0.013);
      m(i, 0) = mask_rng.uniform(0.0, 1.0) < 0.15 ? 0.0 : 1.0;
    }
    ds.truth.push_back(std::move(x));
    ds.mask.push_back(std::move(m));
  }
  ds.validate();
  return ds;
}

/// Not movable: the sampler, graphs and model hold references into it.
struct City {
  data::TrafficDataset ds;  ///< normalized
  std::unique_ptr<data::ZScoreNormalizer> normalizer;
  std::unique_ptr<data::WindowSampler> sampler;
  data::SplitIndices split;
  std::unique_ptr<core::HeterogeneousGraphs> graphs;
  std::unique_ptr<core::RihgcnModel> model;
  std::unique_ptr<core::ShardedEngine> sharded;
  double generate_s = 0.0, graphs_s = 0.0;

  City() = default;
  City(const City&) = delete;
  City& operator=(const City&) = delete;
};

}  // namespace

RunResult run_city_16k(const RunOptions& opt) {
  RunResult res;
  const std::size_t n = opt.smoke ? 512 : 16384;
  constexpr std::size_t kDays = 4;
  constexpr std::size_t kStepsPerDay = 24;
  constexpr std::size_t kClusters = 16;
  constexpr std::size_t kShards = 8;
  core::RihgcnConfig mc;
  mc.lookback = 4;
  mc.horizon = 2;
  mc.gcn_dim = 4;
  mc.lstm_dim = 4;
  mc.cheb_order = 2;
  mc.bidirectional = false;
  mc.use_consistency = false;
  core::ShardedEngine::Options sopt;
  sopt.num_shards = kShards;

  // Set-up: inputs, sparse graphs, model and its sharded engine. Each set-up
  // is followed by a block of forecasts on its engine (the cost of a
  // forecast does not depend on weight values), so the latency samples span
  // the whole run; the last block runs on the trained weights.
  const auto forecasts = static_cast<std::size_t>(16.0 * opt.seconds);
  const std::size_t blocks = opt.setup_reps() + 1;
  Trace trace(opt.trace);
  ForecastSamples samples(trace, "sharded.predict");
  std::vector<double> setup_s;
  std::unique_ptr<City> city;
  for (std::size_t r = 0; r < opt.setup_reps(); ++r) {
    city.reset();
    city = std::make_unique<City>();
    std::int64_t t0 = now_ns();
    const std::int64_t t_setup = t0;
    city->ds = make_city(n, kDays, kStepsPerDay, opt.seed);
    const std::size_t train_end = city->ds.num_timesteps() * 7 / 10;
    city->normalizer = std::make_unique<data::ZScoreNormalizer>(city->ds, train_end);
    city->normalizer->normalize(city->ds);
    city->sampler = std::make_unique<data::WindowSampler>(city->ds, mc.lookback,
                                                          mc.horizon);
    city->split = city->sampler->split(0.7, 0.15);
    city->generate_s = seconds_since(t0);
    trace.add("data.generate", t0, now_ns());
    t0 = now_ns();
    core::HeteroGraphsConfig gcfg;
    gcfg.num_temporal_graphs = 2;
    gcfg.partition_slots = 12;
    gcfg.knn = 8;
    gcfg.prune_dtw = true;
    gcfg.dtw_band = 3;
    Rng grng(opt.seed + 2);
    city->graphs = std::make_unique<core::HeterogeneousGraphs>(
        city->ds, train_end, gcfg, grng);
    city->graphs_s = seconds_since(t0);
    trace.add("timeseries.graphs", t0, now_ns());
    city->model = std::make_unique<core::RihgcnModel>(*city->graphs, n, 1, mc);
    t0 = now_ns();
    city->sharded = std::make_unique<core::ShardedEngine>(*city->model, sopt);
    trace.add("sharded.compile", t0, now_ns());
    setup_s.push_back(seconds_since(t_setup));
    if (city->split.test.empty()) throw std::invalid_argument("city: no test split");
    const auto windows = make_windows(*city->sampler, spread(heldout(city->split), 8));
    samples.block(forecasts / blocks, windows, n, mc.horizon,
                  [&](const data::Window& x) { return city->sharded->predict(x); });
  }
  City& c = *city;

  core::TrainConfig tc;
  tc.max_epochs = 2;
  tc.batch_size = 2;
  tc.max_train_windows = opt.smoke ? 4 : 16;
  tc.max_val_windows = 4;
  tc.num_clusters = kClusters;
  tc.num_threads = opt.plan.trainer_threads;
  tc.patience = 100;
  const std::size_t train_windows =
      std::min(tc.max_train_windows, c.split.train.size());
  const std::int64_t t_train = now_ns();
  const core::TrainReport report =
      core::train_model(*c.model, *c.sampler, c.split, tc);
  const double train_s = seconds_since(t_train);
  trace.add("train.train_model", t_train, now_ns());
  res.gate(report.epochs_run == tc.max_epochs,
           "city_16k: the trainer stopped before the fixed epoch count");
  res.gate(finite_losses(report), "city_16k: a training loss is not finite");
  res.gate(c.model->num_clusters() == kClusters,
           "city_16k: the model did not train on every cluster");

  // Serve the trained weights: recompile the sharded engine, score it on the
  // held-out windows, then take the last latency block.
  const std::int64_t t_compile = now_ns();
  c.sharded = std::make_unique<core::ShardedEngine>(*c.model, sopt);
  const double compile_s = seconds_since(t_compile);
  trace.add("sharded.compile", t_compile, now_ns());
  const std::vector<std::size_t> eval = heldout(c.split);
  const std::vector<data::Window> windows = make_windows(*c.sampler, eval);
  double abs_err = 0.0;
  std::size_t err_count = 0;
  for (const data::Window& w : windows) {
    const Matrix pred = c.sharded->predict(w);
    if (!well_formed(pred, n, mc.horizon)) continue;
    for (std::size_t h = 0; h < mc.horizon; ++h) {
      for (std::size_t i = 0; i < n; ++i) {
        abs_err += std::fabs(c.normalizer->denormalize(pred(i, h), 0) -
                             c.normalizer->denormalize(w.y[h](i, 0), 0));
      }
    }
    err_count += n * mc.horizon;
  }
  res.gate(err_count == n * mc.horizon * windows.size(),
           "city_16k: a held-out forecast was not finite N x horizon");
  samples.block(forecasts - (blocks - 1) * (forecasts / blocks), windows, n,
                mc.horizon, [&](const data::Window& x) { return c.sharded->predict(x); });
  res.gate(samples.malformed == 0, "city_16k: a forecast was not finite N x horizon");
  res.attempted = tc.max_epochs * train_windows + forecasts;
  res.failed = report.guard.batches_skipped + samples.malformed;

  const std::vector<double>& lat = samples.lat_ms;
  const Tail tail = sized_tail(lat);
  res.e2e("setup_s", median(setup_s), "s", setup_s.size(), "median");
  res.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  res.e2e("p50_ms", median(lat), "ms", lat.size(), "p50");
  res.e2e("tail_ms", tail.value, "ms", tail.samples, tail.label());
  res.e2e("throughput_per_s",
          static_cast<double>(tc.max_epochs * train_windows) / train_s, "1/s",
          tc.max_epochs, "training windows per second, validation included");
  res.e2e("forecast_mae", abs_err / static_cast<double>(std::max<std::size_t>(1, err_count)),
          "mph", windows.size(), "held-out windows");
  res.e2e("served_ratio", 1.0 - ratio_of(samples.malformed, forecasts), "ratio",
          forecasts, "mean");
  const ts::KnnStats& knn = c.graphs->temporal_knn_stats();
  res.note(strf("city: N=%zu, %zu clusters, %zu shards, training %.3f s, "
                "DTW pairs %zu started %zu",
                n, kClusters, c.sharded->num_shards(), train_s, knn.pairs,
                knn.dtw_started));
  if (!opt.trace) return res;

  res.layer("sharded.compile_s", compile_s, "s");
  res.layer("sharded.shards", static_cast<double>(c.sharded->num_shards()), "count");
  res.layer("data.generate_s", c.generate_s, "s");
  res.layer("data.window_us", make_window_us(*c.sampler, eval, 50), "us", 50, "p50");
  res.layer("timeseries.graphs_s", c.graphs_s, "s");
  res.layer("timeseries.dtw_started_ratio", ratio_of(knn.dtw_started, knn.pairs), "ratio");
  const std::int64_t t_part = now_ns();
  c.model->prepare_clusters(kClusters, tc.seed);
  res.layer("graph.partition_ms", ns_to_ms(now_ns() - t_part), "ms");
  trace.add("graph.prepare_clusters", t_part, now_ns());
  const std::vector<std::size_t> val = spread(c.split.val, tc.max_val_windows);
  const std::int64_t t_val = now_ns();
  (void)core::evaluate_prediction(*c.model, *c.sampler, val, nullptr);
  res.layer("train.val_s", seconds_since(t_val), "s", val.size(), "one pass");
  trace.add("train.validation", t_val, now_ns());
  replay_training(*c.model, *c.sampler, spread(c.split.train, 1), kClusters,
                  opt.plan.global_pool, trace, res);
  if (!trace.write(opt.out_dir + "/trace-city_16k.jsonl")) {
    res.note("trace: could not write the span file");
  }
  return res;
}

}  // namespace perfbench
