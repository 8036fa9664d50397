// Seeded fault-injecting engine decorator (DESIGN.md §15 test harness).
// Test code: compiled into the test binary only, never into a library.
//
// FaultyEngine compiles the SAME execution plan as core::InferenceEngine
// (it IS one — construction runs the base compiler) and then corrupts the
// serving path on a deterministic schedule: predict_batch may throw, stall
// for a configured latency, or poison its output rows with NaN. The
// overload-storm, breaker and fallback tests drive ForecastServer through
// every failure taxonomy entry with a single seed, so a TSan run replays the
// exact same fault sequence every time.
//
// Two control styles compose:
//   * rates  — each engine call draws (seeded xoshiro) against throw_rate /
//     nan_rate; latency_us stalls every call (the overload knob);
//   * forced — force_throw_next(k) / force_nan_next(k) arm exactly k
//     failures from now, FIFO before the rates apply. Deterministic breaker
//     choreography without touching probabilities.
//
// Thread-safety: the fault schedule is mutex-guarded; the underlying plan is
// immutable after construction (same contract as the base engine), so many
// threads may call predict_batch with their own Workspaces.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <stdexcept>

#include "core/engine.hpp"
#include "tensor/rng.hpp"

namespace rihgcn::serve {

class FaultyEngine : public core::InferenceEngine {
 public:
  struct FaultConfig {
    double throw_rate = 0.0;    ///< P(call throws EngineFault)
    double nan_rate = 0.0;      ///< P(call poisons its output with NaN)
    std::uint64_t latency_us = 0;  ///< stall per call (sleep_for)
    std::uint64_t seed = 0x5eedULL;
  };

  /// What a rate-triggered or forced throw looks like to the server.
  struct EngineFault : std::runtime_error {
    EngineFault() : std::runtime_error("FaultyEngine: injected failure") {}
  };

  FaultyEngine(const core::RihgcnModel& model, Options options,
               FaultConfig faults)
      : core::InferenceEngine(model, options), faults_(faults), rng_(faults.seed) {}

  /// Arm exactly `k` throws starting with the next call (before rates draw).
  void force_throw_next(std::size_t k) {
    forced_throws_.fetch_add(k, std::memory_order_relaxed);
  }
  /// Arm exactly `k` NaN-poisoned calls (after the throw queue drains).
  void force_nan_next(std::size_t k) {
    forced_nans_.fetch_add(k, std::memory_order_relaxed);
  }

  [[nodiscard]] std::size_t calls() const noexcept {
    return calls_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t throws_injected() const noexcept {
    return throws_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t nans_injected() const noexcept {
    return nans_.load(std::memory_order_relaxed);
  }

  const FMatrix& predict_batch(const data::Window* const* windows,
                               std::size_t batch,
                               Workspace& ws) const override;

 private:
  FaultConfig faults_;
  mutable std::mutex mu_;  ///< guards rng_ only
  mutable Rng rng_;
  mutable std::atomic<std::size_t> forced_throws_{0};
  mutable std::atomic<std::size_t> forced_nans_{0};
  mutable std::atomic<std::size_t> calls_{0};
  mutable std::atomic<std::size_t> throws_{0};
  mutable std::atomic<std::size_t> nans_{0};
};

}  // namespace rihgcn::serve
