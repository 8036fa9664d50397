// Optimization utilities: Adam with global-norm gradient clipping (the
// paper's training recipe, §IV-B3), early stopping on validation loss
// (patience 6 in the paper), and parameter (de)serialization for
// checkpointing — including the durable, CRC-verified training checkpoint
// (rihgcn-train-ckpt v3) that carries optimizer moments, epoch counter and
// RNG state so an interrupted run resumes bitwise-identically
// (DESIGN.md §11).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "autodiff/tape.hpp"
#include "tensor/rng.hpp"

namespace rihgcn::nn {

/// Adam (Kingma & Ba 2015) over a fixed set of externally-owned parameters.
class AdamOptimizer {
 public:
  struct Config {
    double lr = 1e-3;
    double beta1 = 0.9;
    double beta2 = 0.999;
    double eps = 1e-8;
    /// Clip gradients to this global L2 norm before each step; <=0 disables.
    double max_grad_norm = 5.0;
    /// Decoupled weight decay (AdamW, Loshchilov & Hutter 2019); 0 = plain
    /// Adam. Applied as p -= lr * weight_decay * p before the Adam update.
    double weight_decay = 0.0;
    /// Multiply the learning rate by this factor every `lr_decay_every`
    /// steps; 1.0 disables scheduling.
    double lr_decay = 1.0;
    std::size_t lr_decay_every = 0;
  };

  /// The optimizer's complete mutable state: first/second moments aligned
  /// with the parameter list, the step counter, and the (possibly decayed /
  /// backed-off) learning rate. Snapshot/restore is what lets the trainer's
  /// NumericalGuard roll a diverged run back and the training checkpoint
  /// resume mid-schedule without replaying the moment history.
  struct State {
    std::vector<Matrix> m;
    std::vector<Matrix> v;
    std::size_t t = 0;
    double lr = 0.0;
  };

  explicit AdamOptimizer(std::vector<ad::Parameter*> params)
      : AdamOptimizer(std::move(params), Config()) {}
  AdamOptimizer(std::vector<ad::Parameter*> params, Config config);

  /// Zero every parameter's gradient accumulator.
  void zero_grad();
  /// Apply one Adam update from the accumulated gradients.
  /// Returns the (pre-clip) global gradient norm, useful for logging.
  double step();

  [[nodiscard]] const Config& config() const noexcept { return config_; }
  [[nodiscard]] std::size_t num_steps() const noexcept { return t_; }
  /// Learning rate currently in effect (after any scheduled decay).
  [[nodiscard]] double current_lr() const noexcept { return lr_; }
  /// Override the effective learning rate (NumericalGuard backoff).
  void set_lr(double lr) noexcept { lr_ = lr; }

  /// Deep copy of the optimizer state.
  [[nodiscard]] State state() const;
  /// Copy the state into `out`, reusing its Matrix buffers when shapes
  /// already match — allocation-free in steady state.
  void state_into(State& out) const;
  /// Restore a state captured from THIS optimizer (or one over identically
  /// shaped parameters); throws std::invalid_argument on shape mismatch.
  void set_state(const State& s);

 private:
  std::vector<ad::Parameter*> params_;
  Config config_;
  std::vector<Matrix> m_;  // first moments, aligned with params_
  std::vector<Matrix> v_;  // second moments
  std::size_t t_ = 0;
  double lr_ = 0.0;  // current (possibly decayed) learning rate
};

/// Global L2 norm of all parameter gradients.
[[nodiscard]] double global_grad_norm(const std::vector<ad::Parameter*>& params);
/// Scale all gradients so their global norm is at most `max_norm`.
void clip_global_grad_norm(const std::vector<ad::Parameter*>& params,
                           double max_norm);

/// Early stopping on a monitored value that should decrease.
class EarlyStopping {
 public:
  explicit EarlyStopping(std::size_t patience = 6, double min_delta = 0.0)
      : patience_(patience), min_delta_(min_delta) {}

  /// Report a new validation metric. Returns true if this is a new best.
  bool update(double value);
  /// True once `patience` consecutive non-improving updates have occurred.
  [[nodiscard]] bool should_stop() const noexcept {
    return bad_epochs_ >= patience_;
  }
  [[nodiscard]] double best() const noexcept { return best_; }
  [[nodiscard]] std::size_t bad_epochs() const noexcept { return bad_epochs_; }
  /// Restore monitor state from a checkpoint.
  void restore(double best, std::size_t bad_epochs) noexcept {
    best_ = best;
    bad_epochs_ = bad_epochs;
  }

 private:
  std::size_t patience_;
  double min_delta_;
  double best_ = 1e300;
  std::size_t bad_epochs_ = 0;
};

/// Serialize parameter values (shape + raw doubles, text format) so models
/// can be checkpointed and restored. Order must match between save and load.
void save_parameters(std::ostream& os,
                     const std::vector<ad::Parameter*>& params);
/// Restore values saved by save_parameters; throws on shape mismatch.
void load_parameters(std::istream& is,
                     const std::vector<ad::Parameter*>& params);

/// Snapshot / restore parameter values in memory (for early-stopping
/// "keep the best epoch" behaviour).
[[nodiscard]] std::vector<Matrix> snapshot_values(
    const std::vector<ad::Parameter*>& params);
void restore_values(const std::vector<Matrix>& snapshot,
                    const std::vector<ad::Parameter*>& params);

// ---- Durable training checkpoints (rihgcn-train-ckpt v3) -------------------
//
// Everything a mid-training snapshot needs for a bitwise-identical resume:
// parameters AND Adam moments/step/lr, the epoch counter, the trainer RNG
// state (mini-batch shuffling), early-stopping monitor state, numerical-guard
// state, the best-epoch parameter snapshot, and the determinism contract
// (batch size / cluster count / seed — a resume under a different value would
// train on different work items or a different shuffle, so the trainer
// verifies them). The thread count is not part of the contract: gradients
// reduce in work-item order, so a run may resume on any number of workers.
// v2 files, which keyed the contract on the thread count, are rejected with
// an error that names the version. The payload is covered by a CRC32 so a
// torn or bit-flipped file is rejected instead of silently restoring
// garbage; writes go to a temp file and rename into place, so a crash
// mid-write never clobbers the previous good checkpoint.

struct TrainCheckpoint {
  /// Epochs fully completed when the snapshot was taken; resume starts here.
  std::size_t epoch = 0;
  // Determinism contract — must match the resuming TrainConfig exactly.
  std::size_t batch_size = 0;
  std::size_t num_clusters = 0;
  std::uint64_t seed = 0;
  RngState rng;
  AdamOptimizer::State adam;
  // Early-stopping monitor.
  double stopper_best = 1e300;
  std::size_t stopper_bad_epochs = 0;
  // Numerical-guard state (core::GuardState fields, kept flat so nn stays
  // independent of core).
  double guard_loss_ema = 0.0;
  bool guard_ema_initialized = false;
  std::size_t guard_good_steps = 0;
  std::size_t guard_consecutive_bad = 0;
  std::size_t guard_backoffs_used = 0;
  /// Best-validation parameter snapshot (restore_best support); may be empty.
  std::vector<Matrix> best_values;
};

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320) of a byte range.
[[nodiscard]] std::uint32_t crc32(const unsigned char* data, std::size_t len);
[[nodiscard]] std::uint32_t crc32(const std::string& bytes);

/// Atomically write `ckpt` + the current values of `params` to `path`
/// (temp file + rename). Throws std::runtime_error on I/O failure.
void save_training_checkpoint(const std::string& path,
                              const TrainCheckpoint& ckpt,
                              const std::vector<ad::Parameter*>& params);
/// Load a checkpoint written by save_training_checkpoint, verifying the CRC
/// and restoring parameter values in place. Throws std::runtime_error on a
/// bad header (including a v2 file), CRC mismatch, truncation, or parameter shape/count mismatch.
[[nodiscard]] TrainCheckpoint load_training_checkpoint(
    const std::string& path, const std::vector<ad::Parameter*>& params);

}  // namespace rihgcn::nn
