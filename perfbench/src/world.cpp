#include "world.hpp"

#include <cmath>
#include <stdexcept>

#include "data/generators.hpp"
#include "data/missing.hpp"
#include "tensor/rng.hpp"

namespace perfbench {

using namespace rihgcn;

namespace {

double seconds_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

}  // namespace

std::unique_ptr<World> make_world(const WorldSpec& spec, std::uint64_t seed,
                                  Trace& trace) {
  auto w = std::make_unique<World>();
  std::int64_t t0 = now_ns();
  data::PemsLikeConfig cfg;
  cfg.num_nodes = spec.nodes;
  cfg.num_corridors = std::max<std::size_t>(1, spec.nodes / 10);
  cfg.num_days = spec.days;
  cfg.steps_per_day = spec.steps_per_day;
  cfg.seed = seed;
  w->raw = data::generate_pems_like(cfg);
  Rng mcar(seed ^ 0x9e3779b97f4a7c15ULL);
  data::inject_mcar(w->raw, spec.missing_rate, mcar);
  w->train_end = w->raw.num_timesteps() * 7 / 10;
  w->normalizer = std::make_unique<data::ZScoreNormalizer>(w->raw, w->train_end);
  w->norm = w->raw;
  w->normalizer->normalize(w->norm);
  w->sampler = std::make_unique<data::WindowSampler>(
      w->norm, spec.model.lookback, spec.model.horizon);
  w->split = w->sampler->split(0.7, 0.2);
  if (w->split.test.empty()) {
    throw std::invalid_argument("make_world: series too short for a test split");
  }
  w->generate_s = seconds_since(t0);
  trace.add("data.generate", t0, now_ns());

  t0 = now_ns();
  core::HeteroGraphsConfig gcfg;
  gcfg.num_temporal_graphs = spec.temporal_graphs;
  gcfg.knn = spec.knn;
  gcfg.dtw_band = spec.dtw_band;
  Rng grng(seed + 2);
  w->graphs = std::make_unique<core::HeterogeneousGraphs>(w->norm, w->train_end,
                                                          gcfg, grng);
  w->graphs_s = seconds_since(t0);
  trace.add("timeseries.graphs", t0, now_ns());

  w->model = std::make_unique<core::RihgcnModel>(
      *w->graphs, w->norm.num_nodes(), w->norm.num_features(), spec.model);
  return w;
}

std::vector<std::size_t> heldout(const data::SplitIndices& split) {
  std::vector<std::size_t> out = split.val;
  out.insert(out.end(), split.test.begin(), split.test.end());
  return out;
}

std::vector<std::size_t> spread(const std::vector<std::size_t>& pool,
                                std::size_t count) {
  if (pool.size() <= count) return pool;
  std::vector<std::size_t> out;
  out.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    out.push_back(pool[k * pool.size() / count]);
  }
  return out;
}

double engine_mae(core::InferenceEngine& engine, const World& world,
                  const std::vector<std::size_t>& starts) {
  double sum = 0.0;
  std::size_t count = 0;
  for (const std::size_t start : starts) {
    const data::Window w = world.sampler->make_window(start);
    const Matrix pred = engine.predict(w);
    for (std::size_t h = 0; h < pred.cols(); ++h) {
      for (std::size_t i = 0; i < pred.rows(); ++i) {
        const double p = world.normalizer->denormalize(pred(i, h), 0);
        const double y = world.normalizer->denormalize(w.y[h](i, 0), 0);
        sum += std::fabs(p - y);
        ++count;
      }
    }
  }
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

double window_ms(const core::InferenceEngine& engine, const World& world,
                 const std::vector<std::size_t>& starts, std::size_t batch,
                 std::size_t reps) {
  std::vector<data::Window> windows;
  for (std::size_t b = 0; b < batch; ++b) {
    windows.push_back(world.sampler->make_window(starts[b % starts.size()]));
  }
  std::vector<const data::Window*> ptrs;
  for (const data::Window& w : windows) ptrs.push_back(&w);
  core::InferenceEngine::Workspace ws = engine.make_workspace();
  (void)engine.predict_batch(ptrs.data(), batch, ws);  // warm caches
  std::vector<double> per_window;
  for (std::size_t r = 0; r < reps; ++r) {
    const std::int64_t t0 = now_ns();
    (void)engine.predict_batch(ptrs.data(), batch, ws);
    per_window.push_back(ns_to_ms(now_ns() - t0) / static_cast<double>(batch));
  }
  return median(per_window);
}

double make_window_us(const data::WindowSampler& sampler,
                      const std::vector<std::size_t>& starts,
                      std::size_t reps) {
  std::vector<double> us;
  for (std::size_t r = 0; r < reps; ++r) {
    const std::int64_t t0 = now_ns();
    const data::Window w = sampler.make_window(starts[r % starts.size()]);
    us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
  }
  return median(us);
}

}  // namespace perfbench
