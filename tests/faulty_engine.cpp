#include "faulty_engine.hpp"

#include <chrono>
#include <limits>
#include <thread>

namespace rihgcn::serve {

const FMatrix& FaultyEngine::predict_batch(const data::Window* const* windows,
                                           std::size_t batch,
                                           Workspace& ws) const {
  calls_.fetch_add(1, std::memory_order_relaxed);
  if (faults_.latency_us > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(faults_.latency_us));
  }
  // Forced faults first (deterministic choreography), then the seeded rates.
  bool do_throw = false;
  bool do_nan = false;
  auto take = [](std::atomic<std::size_t>& q) {
    std::size_t n = q.load(std::memory_order_relaxed);
    while (n > 0 &&
           !q.compare_exchange_weak(n, n - 1, std::memory_order_relaxed)) {
    }
    return n > 0;
  };
  if (take(forced_throws_)) {
    do_throw = true;
  } else if (take(forced_nans_)) {
    do_nan = true;
  } else if (faults_.throw_rate > 0.0 || faults_.nan_rate > 0.0) {
    std::lock_guard<std::mutex> lock(mu_);
    if (rng_.bernoulli(faults_.throw_rate)) {
      do_throw = true;
    } else if (rng_.bernoulli(faults_.nan_rate)) {
      do_nan = true;
    }
  }
  if (do_throw) {
    throws_.fetch_add(1, std::memory_order_relaxed);
    throw EngineFault();
  }
  const FMatrix& out = core::InferenceEngine::predict_batch(windows, batch, ws);
  if (do_nan) {
    nans_.fetch_add(1, std::memory_order_relaxed);
    FMatrix& pred = workspace_pred(ws);
    const std::size_t n = num_nodes();
    // Poison one entry per window so every batched row block is affected —
    // the server must detect and degrade each window independently.
    for (std::size_t b = 0; b < batch; ++b) {
      pred(b * n, 0) = std::numeric_limits<float>::quiet_NaN();
    }
  }
  return out;
}

}  // namespace rihgcn::serve
