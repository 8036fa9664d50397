// Tier-2 timed thread-scaling regression (DESIGN.md §12).
//
// BENCH_micro.json once showed train_step_sparse going FLAT with threads
// (15.0ms @1T vs 16.1ms @4T): every batch spawned fresh std::threads whose
// nested kernels then fought over the global pool. The fix — one persistent
// crew per training run, per-worker batch granularity, coarser kernel grains
// — is locked in here with wall-clock assertions, so a future change that
// quietly serializes the batch path fails a test instead of a paper table.
//
// Timed tests are inherently noisy, so these are tier-2 (not in the always-on
// gate), they skip on hosts with < 4 cores, they use best-of-K wall times,
// and the required speedup is deliberately below the ideal 4x:
//   RIHGCN_MIN_SCALING (default 1.8) — min required @4T-over-@1T speedup.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include "autodiff/tape.hpp"
#include "core/hetero_graphs.hpp"
#include "core/rihgcn.hpp"
#include "data/dataset.hpp"
#include "data/generators.hpp"
#include "data/missing.hpp"
#include "data/windows.hpp"
#include "tensor/matrix.hpp"
#include "tensor/parallel.hpp"
#include "tensor/rng.hpp"

namespace rihgcn {
namespace {

double min_scaling_factor() {
  const char* env = std::getenv("RIHGCN_MIN_SCALING");
  if (env == nullptr || *env == '\0') return 1.8;
  return std::strtod(env, nullptr);
}

// Best-of-K wall time: the minimum is the least-interference estimate, which
// is what a scaling ratio should be built from (noise only inflates samples).
template <typename Fn>
double best_of_sec(const Fn& fn, int reps) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    if (dt.count() < best) best = dt.count();
  }
  return best;
}

bool enough_cores() { return std::thread::hardware_concurrency() >= 4; }

TEST(ThreadScaling, DenseMatmulScalesAcrossCores) {
  if (!enough_cores()) {
    GTEST_SKIP() << "needs >= 4 hardware threads, have "
                 << std::thread::hardware_concurrency();
  }
  // Default dispatch tuning on purpose: this measures the production path,
  // thresholds included. 384^3 ≈ 5.7e7 flops is far above min_matmul_flops.
  Rng rng(7);
  const Matrix a = rng.normal_matrix(384, 384, 1.0);
  const Matrix b = rng.normal_matrix(384, 384, 1.0);
  const auto work = [&] {
    Matrix out(384, 384);
    matmul_accumulate(a, b, out);
  };
  ThreadPool::set_global_threads(1);
  work();  // warmup (page-in, frequency ramp)
  const double t1 = best_of_sec(work, 3);
  ThreadPool::set_global_threads(4);
  work();
  const double t4 = best_of_sec(work, 3);
  ThreadPool::set_global_threads(0);
  const double speedup = t1 / t4;
  EXPECT_GE(speedup, min_scaling_factor())
      << "matmul @1T " << t1 * 1e3 << "ms vs @4T " << t4 * 1e3 << "ms";
}

// Small-but-real RIHGCN environment (same construction as the trainer
// tests), sized so one training_loss forward/backward is a few ms of work.
struct ScalingFixture {
  data::TrafficDataset ds;
  std::unique_ptr<data::WindowSampler> sampler;
  std::unique_ptr<core::HeterogeneousGraphs> graphs;
  std::unique_ptr<core::RihgcnModel> model;

  ScalingFixture() {
    data::PemsLikeConfig cfg;
    cfg.num_nodes = 48;
    cfg.num_days = 2;
    cfg.steps_per_day = 96;
    ds = data::generate_pems_like(cfg);
    Rng rng(21);
    data::inject_mcar(ds, 0.3, rng);
    const std::size_t train_end = ds.num_timesteps() * 7 / 10;
    const data::ZScoreNormalizer nz(ds, train_end);
    nz.normalize(ds);
    sampler = std::make_unique<data::WindowSampler>(ds, 12, 3);
    core::HeteroGraphsConfig gcfg;
    gcfg.num_temporal_graphs = 2;
    graphs =
        std::make_unique<core::HeterogeneousGraphs>(ds, train_end, gcfg, rng);
    core::RihgcnConfig mcfg;
    mcfg.lookback = 12;
    mcfg.horizon = 3;
    mcfg.gcn_dim = 16;
    mcfg.lstm_dim = 32;
    mcfg.seed = 77;
    model = std::make_unique<core::RihgcnModel>(*graphs, ds.num_nodes(),
                                                ds.num_features(), mcfg);
  }
};

TEST(ThreadScaling, BatchGradientsScaleAcrossCores) {
  if (!enough_cores()) {
    GTEST_SKIP() << "needs >= 4 hardware threads, have "
                 << std::thread::hardware_concurrency();
  }
  ScalingFixture fx;
  const std::vector<std::size_t> idx{10, 20, 30, 40, 50, 60, 70, 80};

  // Mirrors core/trainer.cpp batch_gradients: persistent crew, worker w
  // takes the strided items {w, w+workers, ...} on its own arena tape, each
  // item backpropagates into its own sink, and the sinks reduce in item
  // order. One worker runs the body directly, as the trainer does.
  ThreadPool crew(4);
  std::vector<std::unique_ptr<ad::Tape>> tapes;
  for (std::size_t w = 0; w < 4; ++w) {
    tapes.push_back(std::make_unique<ad::Tape>());
  }
  const auto run_batch = [&](std::size_t workers) {
    std::vector<ad::Tape::GradSink> sinks(idx.size());
    const auto run_worker = [&](std::size_t w, std::size_t) {
      for (std::size_t p = w; p < idx.size(); p += workers) {
        ad::Tape& tape = *tapes[w];
        tape.reset();
        ad::Var loss =
            fx.model->training_loss(tape, fx.sampler->make_window(idx[p]));
        tape.backward_into(loss, sinks[p]);
      }
    };
    if (workers == 1) {
      run_worker(0, 1);
    } else {
      crew.parallel_for(0, workers, 1, run_worker);
    }
    for (auto& sink : sinks) {
      for (auto& [param, grad] : sink) param->grad() += grad;
    }
  };

  const auto serial = [&] {
    for (ad::Parameter* p : fx.model->parameters()) p->zero_grad();
    run_batch(1);
  };
  const auto threaded = [&] {
    for (ad::Parameter* p : fx.model->parameters()) p->zero_grad();
    run_batch(4);
  };
  // The one-worker body runs outside the crew, so its kernels would reach
  // the global pool; pin that to 1 so the ratio measures the batch axis.
  ThreadPool::set_global_threads(1);
  serial();  // warmup: arena tapes size themselves, caches fill
  threaded();
  const double t1 = best_of_sec(serial, 3);
  const double t4 = best_of_sec(threaded, 3);
  ThreadPool::set_global_threads(0);
  const double speedup = t1 / t4;
  EXPECT_GE(speedup, min_scaling_factor())
      << "batch gradients @1T " << t1 * 1e3 << "ms vs @4T " << t4 * 1e3
      << "ms";
}

}  // namespace
}  // namespace rihgcn
