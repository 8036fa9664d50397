// The generated inputs and the model a workload runs on: PeMS-like data with
// MCAR missingness, its normalizer, the heterogeneous graphs and an RIHGCN
// model over them. Everything is a pure function of the workload seed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common.hpp"
#include "core/engine.hpp"
#include "core/hetero_graphs.hpp"
#include "core/rihgcn.hpp"
#include "data/dataset.hpp"
#include "data/windows.hpp"

namespace perfbench {

struct WorldSpec {
  std::size_t nodes = 256;
  std::size_t days = 2;
  std::size_t steps_per_day = 288;
  double missing_rate = 0.4;
  /// 0 = dense graph pipeline; > 0 = k-NN CSR pipeline (pruned DTW).
  std::size_t knn = 0;
  std::ptrdiff_t dtw_band = -1;
  std::size_t temporal_graphs = 4;
  rihgcn::core::RihgcnConfig model{};
};

/// Not movable: the sampler, graphs and model hold references into it.
struct World {
  rihgcn::data::TrafficDataset raw;   ///< original units (serving feeds)
  rihgcn::data::TrafficDataset norm;  ///< normalized copy (model inputs)
  std::unique_ptr<rihgcn::data::ZScoreNormalizer> normalizer;
  std::unique_ptr<rihgcn::data::WindowSampler> sampler;
  rihgcn::data::SplitIndices split;
  std::unique_ptr<rihgcn::core::HeterogeneousGraphs> graphs;
  std::unique_ptr<rihgcn::core::RihgcnModel> model;
  std::size_t train_end = 0;
  double generate_s = 0.0;
  double graphs_s = 0.0;

  World() = default;
  World(const World&) = delete;
  World& operator=(const World&) = delete;
};

/// Builds the world; records "data.generate" and "timeseries.graphs" spans
/// into `trace` (a disabled trace records nothing).
[[nodiscard]] std::unique_ptr<World> make_world(const WorldSpec& spec,
                                                std::uint64_t seed, Trace& trace);

/// Validation and test window starts, in order.
[[nodiscard]] std::vector<std::size_t> heldout(
    const rihgcn::data::SplitIndices& split);

/// `count` window starts spread evenly over `pool` (all of it if smaller).
[[nodiscard]] std::vector<std::size_t> spread(
    const std::vector<std::size_t>& pool, std::size_t count);

/// Forecast MAE in original units (mph for the speed target) of the compiled
/// engine over the windows starting at `starts`, against complete truth —
/// the convention of core::evaluate_prediction.
[[nodiscard]] double engine_mae(rihgcn::core::InferenceEngine& engine,
                                const World& world,
                                const std::vector<std::size_t>& starts);

/// Median time of one predict_batch call per window at batch size `batch`
/// (ms), over `reps` calls on the engine's own workspace.
[[nodiscard]] double window_ms(const rihgcn::core::InferenceEngine& engine,
                               const World& world,
                               const std::vector<std::size_t>& starts,
                               std::size_t batch, std::size_t reps);

/// Median WindowSampler::make_window time in microseconds.
[[nodiscard]] double make_window_us(const rihgcn::data::WindowSampler& sampler,
                                    const std::vector<std::size_t>& starts,
                                    std::size_t reps);

}  // namespace perfbench
