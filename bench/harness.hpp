// Shared experiment harness for the paper-reproduction benches: dataset
// pipelines, the method zoo (every row of Tables I/II), training budgets and
// result-table plumbing. Each bench binary (one per paper table/figure)
// composes these pieces; see DESIGN.md §4 for the experiment index.
//
// Every bench accepts:
//   --full      paper-scale sizes (slow; default is a minutes-scale run
//               whose trends match the paper)
//   --seed=N    RNG seed (default 17)
//   --csv=PATH  also dump the table as CSV
//   --json=PATH dump micro-benchmark results as JSON (bench_micro; see
//               tools/run_bench.sh which maintains BENCH_micro.json)
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "baselines/classical.hpp"
#include "baselines/imputers.hpp"
#include "baselines/neural.hpp"
#include "core/rihgcn.hpp"
#include "core/trainer.hpp"
#include "data/generators.hpp"
#include "data/missing.hpp"
#include "metrics/metrics.hpp"

namespace rihgcn::bench {

struct BenchOptions {
  bool full = false;
  std::uint64_t seed = 17;
  std::string csv_path;
  std::string json_path;

  static BenchOptions parse(int argc, char** argv);
};

/// One machine-readable micro-benchmark sample (the perf-trajectory record
/// written by bench_micro --json).
struct MicroResult {
  std::string name;     ///< e.g. "cheb_dense" / "cheb_spmm"
  std::size_t n = 0;    ///< graph size (nodes)
  double density = 0.0; ///< Laplacian density the kernel saw
  double ns_per_op = 0.0;   ///< median over timing windows (gating statistic)
  std::size_t threads = 0;
  double min_ns = 0.0;      ///< fastest window (least-interference estimate)
  double stddev_ns = 0.0;   ///< window spread (noise indicator; 0 = counter)
  /// Row class for tools/check_bench.py: "" = timed (threshold-gated),
  /// "counter" = deterministic program fact (exact-diff gated).
  std::string kind;
};

/// Write micro results as a JSON array of objects. Throws std::runtime_error
/// if the file cannot be opened.
void write_micro_json(const std::string& path,
                      const std::vector<MicroResult>& results);

/// Per-op timing distribution over repeated fixed-iteration windows.
struct TimingStats {
  double min_ns = 0.0;
  double median_ns = 0.0;
  double mean_ns = 0.0;
  double stddev_ns = 0.0;
};

/// Time `fn` with warmup + median-of-K: after warmup calls, the iteration
/// count is grown until one window exceeds `min_window_sec`, then `windows`
/// windows of that fixed count are measured and summarized. The MEDIAN is
/// the statistic to gate on (tools/check_bench.py): unlike best-of-K's min
/// it doesn't reward lucky runs, and unlike the mean it shrugs off one
/// preempted window. min/stddev are reported alongside for diagnosis.
TimingStats measure_ns_per_op(const std::function<void()>& fn,
                              std::size_t windows = 5,
                              double min_window_sec = 0.1);

/// Scale knobs derived from --full.
struct Scale {
  std::size_t pems_nodes;
  std::size_t pems_days;
  std::size_t steps_per_day;
  std::size_t lookback;
  std::size_t horizon;
  std::size_t gcn_dim;
  std::size_t lstm_dim;
  std::size_t hidden;  // baselines
  std::size_t max_epochs;
  std::size_t max_train_windows;
  std::size_t max_val_windows;
  std::size_t max_eval_windows;

  static Scale quick();
  static Scale full();
  static Scale from(const BenchOptions& o) {
    return o.full ? full() : quick();
  }
};

/// A fully prepared experiment environment: normalized dataset with injected
/// missingness, window splits, graphs and the imputation holdout.
struct Environment {
  data::TrafficDataset ds;
  std::size_t train_end = 0;
  std::unique_ptr<data::ZScoreNormalizer> normalizer;
  std::unique_ptr<data::WindowSampler> sampler;
  data::SplitIndices split;
  std::unique_ptr<core::HeterogeneousGraphs> graphs;
  /// Geographic-only bundle (M = 0) backing the GCN-LSTM-I ablation row.
  std::unique_ptr<core::HeterogeneousGraphs> geo_only_graphs;
  std::vector<Matrix> holdout;  ///< empty unless requested

  Environment() = default;
  Environment(Environment&&) = default;
  Environment& operator=(Environment&&) = default;
};

/// PeMS-like environment with MCAR missingness at `missing_rate` (the Table
/// I protocol). `holdout_fraction` > 0 additionally carves out imputation
/// ground truth (Table III / Fig. 4-5 protocol).
Environment make_pems_environment(const Scale& s, double missing_rate,
                                  std::uint64_t seed,
                                  std::size_t num_temporal_graphs = 4,
                                  double holdout_fraction = 0.0);

/// Stampede-like environment with native structural missingness (Table II).
Environment make_stampede_environment(const Scale& s, std::uint64_t seed,
                                      std::size_t num_temporal_graphs = 4);

/// PeMS-like environment whose heterogeneous-graph config is customized by
/// `tweak` (circular partition, alternative series distance, ...). Dataset,
/// mask and holdout are identical to make_pems_environment for a given seed.
Environment make_pems_environment_custom(
    const Scale& s, double missing_rate, std::uint64_t seed,
    double holdout_fraction,
    const std::function<void(core::HeteroGraphsConfig&)>& tweak);

/// The method zoo. Order matches the paper's table rows.
std::vector<std::string> table_method_names();

/// Instantiate a method by table name; trains it if it has parameters.
/// Returns the ready-to-evaluate model.
std::unique_ptr<core::ForecastModel> make_and_train(
    const std::string& name, Environment& env, const Scale& s,
    std::uint64_t seed, double lambda = 1.0, bool verbose = false);

/// Build an (untrained) RIHGCN with the standard bench dimensions.
std::unique_ptr<core::RihgcnModel> make_rihgcn(
    const Environment& env, const Scale& s, std::uint64_t seed,
    const std::function<void(core::RihgcnConfig&)>& tweak = nullptr);

/// Standard training config for the bench scale.
core::TrainConfig train_config(const Scale& s, std::uint64_t seed);

/// Print the table and optionally write CSV.
void emit(const metrics::ResultTable& table, const BenchOptions& opts);

/// Wall-clock helper for progress lines.
double seconds_since(const std::chrono::steady_clock::time_point& t0);

}  // namespace rihgcn::bench
