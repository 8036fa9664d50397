// Fault tolerance for training and serving (DESIGN.md §11).
//
// A deployed forecaster must survive the pathologies the missing-value
// setting implies: feeds that emit NaN/Inf instead of gaps, sensors that
// stick or spike, and long training runs that diverge. This header holds the
// shared robustness vocabulary:
//
//  * NumericalGuard — wraps the train loop's optimizer step. It vetoes a
//    step when the batch loss or any accumulated gradient is non-finite, or
//    when the loss spikes far above its exponential moving average; vetoed
//    batches are skipped, the learning rate is backed off a bounded number
//    of times, and after K consecutive bad steps the parameters AND the Adam
//    moments roll back to the last known-good snapshot. With healthy data
//    the guard is pure observation: it never perturbs a clean run, and all
//    of its counters stay zero (CI asserts this).
//  * HealthReport — the serving-side health surface of OnlineForecaster:
//    buffer coverage, suspect (stuck/dead) sensors, sanitization and
//    fallback counters.
//  * Shared serving-side scrub/sanitize/stuck-detection primitives
//    (DESIGN.md §15) — ONE implementation behind both serving layers:
//    the single-tenant OnlineForecaster and the multi-client
//    serve::ForecastServer apply identical ingest sanitization, identical
//    stuck-sensor demotion and identical non-finite output scrubbing, so a
//    reading degrades the same way no matter which front end saw it. Both
//    also keep their readings in the one StreamBuffer, so a stream's model
//    input window is the same from either.
#pragma once

#include <cstddef>
#include <deque>
#include <vector>

#include "autodiff/tape.hpp"
#include "data/dataset.hpp"
#include "data/windows.hpp"
#include "nn/optim.hpp"

namespace rihgcn::core {

/// Thresholds for NumericalGuard. Defaults are deliberately loose: the
/// guard exists to catch divergence and corrupt feeds, not to second-guess
/// ordinary optimization noise.
struct GuardConfig {
  bool enabled = true;
  /// A finite batch loss above `spike_factor * EMA(loss)` counts as a spike.
  double spike_factor = 100.0;
  /// EMA decay for the loss trace (per accepted batch).
  double ema_decay = 0.9;
  /// Accepted batches before spike detection arms (the first steps of a run
  /// legitimately move the loss by large factors).
  std::size_t warmup_steps = 5;
  /// K consecutive vetoed batches trigger a parameter + optimizer rollback.
  std::size_t max_consecutive_bad = 3;
  /// Multiply the learning rate by this on each vetoed batch...
  double lr_backoff = 0.5;
  /// ...at most this many times over the whole run (bounded retries).
  std::size_t max_lr_backoffs = 4;
  /// Accepted steps between known-good snapshots (1 = snapshot every step).
  std::size_t snapshot_every = 1;
};

/// Everything the guard did, surfaced in TrainReport. A clean run has all
/// counters at zero.
struct GuardCounters {
  std::size_t batches_skipped = 0;   ///< vetoed batches (sum of the 3 causes)
  std::size_t nonfinite_losses = 0;  ///< vetoes due to NaN/Inf batch loss
  std::size_t nonfinite_grads = 0;   ///< vetoes due to NaN/Inf gradients
  std::size_t loss_spikes = 0;       ///< vetoes due to EMA-relative spikes
  std::size_t lr_backoffs = 0;       ///< learning-rate reductions applied
  std::size_t rollbacks = 0;         ///< snapshot restores performed

  /// True iff the guard never intervened.
  [[nodiscard]] bool clean() const noexcept {
    return batches_skipped == 0 && lr_backoffs == 0 && rollbacks == 0;
  }
};

/// Serializable guard state (carried by nn::TrainCheckpoint so a resumed
/// run continues the EMA trace and backoff budget instead of resetting).
struct GuardState {
  double loss_ema = 0.0;
  bool ema_initialized = false;
  std::size_t good_steps = 0;       ///< accepted batches so far
  std::size_t consecutive_bad = 0;  ///< current bad streak
  std::size_t backoffs_used = 0;    ///< lifetime LR backoffs
};

/// Numerical health guard around an Adam-driven training loop. Usage per
/// batch (see core::train_model):
///
///   optimizer.zero_grad();  ...accumulate and average gradients...
///   if (guard.inspect(batch_loss) == NumericalGuard::Verdict::kSkipBatch)
///     continue;            // no optimizer step; guard handled backoff etc.
///   optimizer.step();
///   guard.after_step();    // marks the new state known-good
///
/// `params` and `optimizer` must outlive the guard. The constructor takes an
/// initial snapshot, so a rollback is well-defined from the first batch.
class NumericalGuard {
 public:
  enum class Verdict { kOk, kSkipBatch };

  NumericalGuard(std::vector<ad::Parameter*> params,
                 nn::AdamOptimizer& optimizer, GuardConfig config);

  /// Examine the averaged batch loss and the accumulated parameter
  /// gradients. kOk means the step is safe to apply; kSkipBatch means the
  /// guard vetoed it (and may have backed off the LR or rolled back).
  [[nodiscard]] Verdict inspect(double batch_loss);
  /// Record that optimizer.step() was applied after a kOk verdict; refreshes
  /// the known-good snapshot on the configured cadence.
  void after_step();

  [[nodiscard]] const GuardCounters& counters() const noexcept {
    return counters_;
  }
  [[nodiscard]] const GuardState& state() const noexcept { return state_; }
  /// Restore EMA/backoff state from a checkpoint (counters start at zero —
  /// TrainReport counts per run, not per lifetime).
  void set_state(const GuardState& s) noexcept { state_ = s; }

 private:
  void take_snapshot();
  void rollback();

  std::vector<ad::Parameter*> params_;
  nn::AdamOptimizer& optimizer_;
  GuardConfig config_;
  GuardCounters counters_;
  GuardState state_;
  std::vector<Matrix> good_values_;
  nn::AdamOptimizer::State good_opt_;
};

// ---- shared serving-side robustness primitives -----------------------------

/// Replace every non-finite entry of `m` with `replacement` (0.0 = the
/// historical mean in normalized space). Returns the number of entries
/// scrubbed. Both serving layers route model output through this before a
/// value ever reaches a client — a forecast is never non-finite.
std::size_t scrub_non_finite(Matrix& m, double replacement = 0.0);

/// What one sanitize_reading call demoted (for health counters).
struct SanitizeCounts {
  std::size_t sanitized_entries = 0;    ///< non-finite values demoted
  std::size_t coerced_mask_entries = 0; ///< mask entries outside {0,1}
};

/// Ingest sanitization shared by OnlineForecaster::push_reading and
/// ForecastServer::ingest: demote non-finite values and malformed mask
/// entries to missing, normalize the survivors. `normalized` and
/// `clean_mask` must be preallocated to the shape of `values`; entries are
/// fully overwritten. A pure function of (values, mask, normalizer) — safe
/// to run on any thread against a frozen normalizer.
SanitizeCounts sanitize_reading(const Matrix& values, const Matrix& mask,
                                const data::ZScoreNormalizer& normalizer,
                                Matrix& normalized, Matrix& clean_mask);

/// Sliding-run stuck-sensor detector shared by both serving layers: a node
/// whose target-feature value repeats exactly `threshold` consecutive
/// observed readings is flagged stuck, and its readings are demoted to
/// missing until the value moves again (real traffic always jitters; a
/// frozen register does not). One instance per stream; feed it every
/// sanitized reading in arrival order.
class StuckSensorDetector {
 public:
  StuckSensorDetector() = default;
  /// `threshold` consecutive identical observed readings flag a node;
  /// 0 disables detection (observe_and_demote becomes a no-op).
  StuckSensorDetector(std::size_t num_nodes, std::size_t threshold);

  /// Inspect one sanitized reading (any consistent unit space — equality is
  /// all that matters) and demote stuck nodes: their rows in `values` and
  /// `mask` are zeroed. Returns the number of readings demoted this call.
  std::size_t observe_and_demote(Matrix& values, Matrix& mask);

  /// Re-arm with a new threshold; run-length state is preserved.
  void set_threshold(std::size_t threshold) noexcept {
    threshold_ = threshold;
  }
  [[nodiscard]] std::size_t threshold() const noexcept { return threshold_; }
  /// Per-node "currently flagged stuck" flags.
  [[nodiscard]] const std::vector<bool>& flags() const noexcept {
    return stuck_;
  }

 private:
  std::size_t threshold_ = 0;
  std::vector<double> last_value_;        ///< per node, target feature
  std::vector<std::size_t> repeat_runs_;  ///< consecutive identical readings
  std::vector<bool> stuck_;               ///< currently flagged stuck
};

/// Rolling buffer of one stream's last `lookback` sanitized, normalized
/// readings, shared by both serving layers (OnlineForecaster owns one,
/// serve::ForecastServer one per stream).
struct StreamBuffer {
  StreamBuffer() = default;
  StreamBuffer(std::size_t nodes, std::size_t features,
               std::size_t lookback_steps, std::size_t first_slot)
      : num_nodes(nodes),
        num_features(features),
        lookback(lookback_steps),
        start_slot(first_slot) {}

  std::size_t num_nodes = 0;
  std::size_t num_features = 0;
  std::size_t lookback = 0;
  std::size_t start_slot = 0;  ///< time-of-day slot of the first reading
  std::size_t seen = 0;        ///< readings pushed so far
  std::deque<Matrix> values;   ///< normalized, observed-masked; oldest first
  std::deque<Matrix> masks;

  /// Append one reading; the oldest falls out once `lookback` are buffered.
  void push(Matrix value, Matrix mask);
  /// The model input over the buffer: `lookback` steps stamped on a
  /// `steps_per_day` clock, plus `horizon` unknown (zero) targets. During
  /// warm-up (fewer than `lookback` readings) the window is left-padded
  /// with fully-missing steps — the imputation machinery's job. Requires
  /// at least one reading.
  [[nodiscard]] data::Window make_window(std::size_t horizon,
                                         std::size_t steps_per_day) const;
};

/// Suspect-sensor roll-up shared by the health surfaces: nodes currently
/// flagged stuck, plus nodes dead (zero observed entries) across a FULL
/// buffer of masks (`buffer_full` false suppresses the dead check — a
/// half-warm buffer says nothing about sensor death).
[[nodiscard]] std::vector<std::size_t> find_suspect_sensors(
    const std::vector<bool>& stuck_flags, const std::deque<Matrix>& masks,
    std::size_t num_nodes, bool buffer_full);

/// Serving-side health surface of core::OnlineForecaster.
struct HealthReport {
  /// Fraction of entries in the current buffer that are real observations
  /// (after sanitization and stuck-sensor demotion).
  double buffer_coverage = 0.0;
  std::size_t readings_seen = 0;
  /// Non-finite reading entries demoted to missing on ingest.
  std::size_t sanitized_entries = 0;
  /// Mask entries outside {0,1} coerced on ingest.
  std::size_t coerced_mask_entries = 0;
  /// Whole readings demoted to missing because the sensor was stuck.
  std::size_t stuck_demotions = 0;
  /// Forecasts served by the primary model.
  std::size_t model_forecasts = 0;
  /// Forecasts served by the fallback model (primary threw or went
  /// non-finite).
  std::size_t fallback_forecasts = 0;
  /// Forecasts answered from the memo cache (no ingest since the last
  /// model run — same window, same answer).
  std::size_t memoized_forecasts = 0;
  /// Individual output entries scrubbed to the historical mean because even
  /// the fallback path left them non-finite.
  std::size_t scrubbed_outputs = 0;
  /// Nodes currently flagged stuck (repeating one value) or dead (no
  /// observation anywhere in a full buffer).
  std::vector<std::size_t> suspect_sensors;
};

}  // namespace rihgcn::core
