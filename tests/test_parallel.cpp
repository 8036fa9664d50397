// Determinism and correctness harness for the parallel tensor backend
// (tensor/parallel.hpp + the threaded kernels in tensor/matrix.cpp).
//
// Three layers of coverage:
//  1. ThreadPool unit suite — env sizing, exact-once chunk coverage,
//     exception propagation, reentrancy.
//  2. Kernel property tests — the blocked/threaded matmul family against
//     the seed serial kernel (detail::matmul_naive) with exact == on
//     randomized shapes including 0/1-dim degenerate cases.
//  3. End-to-end determinism — the same seed must produce bit-for-bit
//     identical losses, gradients and trained parameters at every thread
//     count (the DESIGN.md §8 contract).
#include "tensor/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/hetero_graphs.hpp"
#include "core/rihgcn.hpp"
#include "core/trainer.hpp"
#include "data/dataset.hpp"
#include "data/generators.hpp"
#include "data/missing.hpp"
#include "data/windows.hpp"
#include "tensor/matrix.hpp"
#include "tensor/rng.hpp"

namespace rihgcn {
namespace {

// Forces the threaded code paths on tiny inputs (so tests do not need huge
// matrices to exercise them) and pins the global pool to `threads`. Restores
// the default tuning and the env-sized pool on destruction.
class BackendGuard {
 public:
  explicit BackendGuard(std::size_t threads, bool force_threaded = true) {
    if (force_threaded) {
      ParallelTuning::min_elems = 1;
      ParallelTuning::elem_grain = 4;
      ParallelTuning::min_matmul_flops = 1;
      ParallelTuning::serial_cutover_flops = 1;
      ParallelTuning::matmul_row_grain = 2;
    }
    ThreadPool::set_global_threads(threads);
  }
  ~BackendGuard() {
    ParallelTuning::reset();
    ThreadPool::set_global_threads(0);
  }
  BackendGuard(const BackendGuard&) = delete;
  BackendGuard& operator=(const BackendGuard&) = delete;
};

Matrix randn(std::size_t r, std::size_t c, std::uint64_t seed) {
  Rng rng(seed);
  return rng.normal_matrix(r, c, 1.0);
}

// ---- 1. ThreadPool unit suite ----------------------------------------------

// Temporarily sets (or unsets) RIHGCN_THREADS.
class EnvVarGuard {
 public:
  EnvVarGuard(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) {
      had_old_ = true;
      old_ = old;
    }
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~EnvVarGuard() {
    if (had_old_) {
      ::setenv(name_, old_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  bool had_old_ = false;
  std::string old_;
};

TEST(ThreadPool, ThreadsFromEnvParsesPositiveInteger) {
  EnvVarGuard env("RIHGCN_THREADS", "3");
  EXPECT_EQ(ThreadPool::threads_from_env(), 3u);
}

TEST(ThreadPool, ThreadsFromEnvRejectsInvalidValues) {
  // A set-but-invalid RIHGCN_THREADS must fail loudly, not silently fall
  // back to hardware concurrency ("RIHGCN_THREADS=O4" hiding as auto-size).
  {
    EnvVarGuard env("RIHGCN_THREADS", "0");
    EXPECT_THROW((void)ThreadPool::threads_from_env(), std::runtime_error);
  }
  {
    EnvVarGuard env("RIHGCN_THREADS", "not-a-number");
    EXPECT_THROW((void)ThreadPool::threads_from_env(), std::runtime_error);
  }
  {
    EnvVarGuard env("RIHGCN_THREADS", "4x");  // trailing garbage
    EXPECT_THROW((void)ThreadPool::threads_from_env(), std::runtime_error);
  }
  {
    EnvVarGuard env("RIHGCN_THREADS", "99999");  // above the 1024 cap
    EXPECT_THROW((void)ThreadPool::threads_from_env(), std::runtime_error);
  }
  {
    // Unset (and empty) still auto-size to hardware concurrency.
    const std::size_t hw =
        std::max<std::size_t>(1, std::thread::hardware_concurrency());
    EnvVarGuard env("RIHGCN_THREADS", nullptr);
    EXPECT_EQ(ThreadPool::threads_from_env(), hw);
  }
}

TEST(ThreadPool, GlobalPoolIsCappedAtHardwareConcurrency) {
  // Oversubscribing the shared pool only adds contention; requests beyond
  // the core count are clamped. (Direct ThreadPool(n) stays uncapped.)
  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  ThreadPool::set_global_threads(4096);
  EXPECT_LE(ThreadPool::global().num_threads(), hw);
  ThreadPool::set_global_threads(0);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 1013;  // prime: uneven final chunk
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(0, kN, 7, [&hits](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ParallelForEmptyRangeNeverCallsBody) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.parallel_for(5, 5, 1, [&calls](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, ExceptionPropagatesAndPoolStaysUsable) {
  ThreadPool pool(4);
  auto boom = [](std::size_t b, std::size_t) {
    if (b == 0) throw std::runtime_error("chunk failure");
  };
  EXPECT_THROW(pool.parallel_for(0, 100, 10, boom), std::runtime_error);
  // The pool must survive: subsequent jobs run normally.
  std::atomic<std::size_t> covered{0};
  pool.parallel_for(0, 100, 10, [&covered](std::size_t b, std::size_t e) {
    covered.fetch_add(e - b);
  });
  EXPECT_EQ(covered.load(), 100u);
}

TEST(ThreadPool, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(64);
  pool.parallel_for(0, 8, 1, [&](std::size_t ob, std::size_t oe) {
    EXPECT_TRUE(ThreadPool::in_parallel_region());
    for (std::size_t o = ob; o < oe; ++o) {
      // Nested call: must execute inline on this thread and complete.
      pool.parallel_for(o * 8, (o + 1) * 8, 2,
                        [&hits](std::size_t b, std::size_t e) {
                          for (std::size_t i = b; i < e; ++i)
                            hits[i].fetch_add(1);
                        });
    }
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
  EXPECT_FALSE(ThreadPool::in_parallel_region());
}

// ---- 2. Matmul property tests ----------------------------------------------

TEST(MatmulParallel, MatchesNaiveOnRandomizedShapes) {
  BackendGuard guard(4);
  // (n, k, m) triples including degenerate 0/1 dims.
  const std::size_t shapes[][3] = {
      {0, 0, 0},  {0, 3, 2},  {3, 0, 2},   {3, 2, 0},   {1, 1, 1},
      {1, 7, 1},  {7, 1, 7},  {5, 3, 4},   {17, 9, 13}, {32, 32, 32},
      {33, 17, 29}, {4, 64, 4}, {64, 4, 64},
  };
  std::uint64_t seed = 100;
  for (const auto& s : shapes) {
    const Matrix a = randn(s[0], s[1], seed++);
    const Matrix b = randn(s[1], s[2], seed++);
    Matrix expected(s[0], s[2]);
    detail::matmul_naive(a, b, expected);
    const Matrix got = matmul(a, b);
    EXPECT_EQ(got, expected) << "shape " << s[0] << "x" << s[1] << "x" << s[2];
  }
}

TEST(MatmulParallel, MatchesNaiveWithSparseZeros) {
  // The naive kernel skips a_ik == 0 terms; the blocked kernel does not.
  // For zero-initialized accumulators the results must still be bitwise
  // equal (adding +/-0 products never flips stored values away from +0).
  BackendGuard guard(4);
  Rng rng(42);
  Matrix a = rng.normal_matrix(19, 23, 1.0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (rng.uniform() < 0.6) a.data()[i] = 0.0;
  }
  const Matrix b = randn(23, 11, 43);
  Matrix expected(19, 11);
  detail::matmul_naive(a, b, expected);
  EXPECT_EQ(matmul(a, b), expected);
}

TEST(MatmulParallel, AccumulatesIntoExistingOutput) {
  BackendGuard guard(4);
  const Matrix a = randn(13, 7, 1);
  const Matrix b = randn(7, 9, 2);
  Matrix expected = randn(13, 9, 3);
  Matrix got = expected;
  detail::matmul_naive(a, b, expected);
  matmul_accumulate(a, b, got);
  EXPECT_EQ(got, expected);
}

TEST(MatmulParallel, TransposedVariantsMatchExplicitTranspose) {
  BackendGuard guard(4);
  const Matrix a = randn(14, 6, 5);
  const Matrix b = randn(10, 6, 6);   // matmul_bt: a (14x6) * b^T (6x10)
  const Matrix c = randn(14, 12, 7);  // matmul_at: a^T (6x14) * c (14x12)
  EXPECT_EQ(matmul_bt(a, b), matmul(a, b.transposed()));
  EXPECT_EQ(matmul_at(a, c), matmul(a.transposed(), c));
}

TEST(MatmulParallel, ResultIsThreadCountInvariant) {
  const Matrix a = randn(37, 21, 8);
  const Matrix b = randn(21, 15, 9);
  Matrix serial;
  {
    BackendGuard guard(1);
    serial = matmul(a, b);
  }
  for (const std::size_t threads : {2u, 3u, 4u}) {
    BackendGuard guard(threads);
    EXPECT_EQ(matmul(a, b), serial) << "threads=" << threads;
  }
}

TEST(MatmulParallel, ShapeErrorReportsBothOperandDims) {
  const Matrix a = randn(2, 3, 1);
  const Matrix b = randn(5, 9, 2);
  try {
    (void)matmul(a, b);
    FAIL() << "expected ShapeError";
  } catch (const ShapeError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("2x3"), std::string::npos) << msg;
    EXPECT_NE(msg.find("5x9"), std::string::npos) << msg;
  }
}

TEST(MatmulParallel, AccumulateShapeErrorReportsAllDims) {
  const Matrix a = randn(2, 3, 1);
  const Matrix b = randn(3, 4, 2);
  Matrix out(5, 9);
  try {
    matmul_accumulate(a, b, out);
    FAIL() << "expected ShapeError";
  } catch (const ShapeError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("5x9"), std::string::npos) << msg;  // out
    EXPECT_NE(msg.find("2x3"), std::string::npos) << msg;  // A
    EXPECT_NE(msg.find("3x4"), std::string::npos) << msg;  // B
    EXPECT_NE(msg.find("2x4"), std::string::npos) << msg;  // required
  }
}

TEST(MatmulParallel, ElementwiseOpsAreThreadCountInvariant) {
  const Matrix a = randn(23, 17, 10);
  const Matrix b = randn(23, 17, 11);
  Matrix sum_serial, had_serial, tr_serial;
  {
    BackendGuard guard(1);
    sum_serial = a + b;
    had_serial = hadamard(a, b);
    tr_serial = a.transposed();
  }
  for (const std::size_t threads : {2u, 4u}) {
    BackendGuard guard(threads);
    EXPECT_EQ(a + b, sum_serial) << "threads=" << threads;
    EXPECT_EQ(hadamard(a, b), had_serial) << "threads=" << threads;
    EXPECT_EQ(a.transposed(), tr_serial) << "threads=" << threads;
  }
}

// ---- 3. End-to-end determinism ---------------------------------------------

// Small but complete RIHGCN setup (both directions, temporal graphs,
// consistency loss) shared by the determinism tests. The dataset and graphs
// are deterministic functions of fixed seeds, so every instance is
// identical; a fresh model with the same config seed has identical initial
// parameters.
struct TinyRihgcn {
  data::TrafficDataset ds;
  std::unique_ptr<data::WindowSampler> sampler;
  std::unique_ptr<core::HeterogeneousGraphs> graphs;
  core::RihgcnConfig model_cfg;

  TinyRihgcn() {
    data::PemsLikeConfig cfg;
    cfg.num_nodes = 10;
    cfg.num_days = 2;
    cfg.steps_per_day = 48;
    ds = data::generate_pems_like(cfg);
    Rng rng(21);
    data::inject_mcar(ds, 0.3, rng);
    const std::size_t train_end = ds.num_timesteps() * 7 / 10;
    const data::ZScoreNormalizer nz(ds, train_end);
    nz.normalize(ds);
    sampler = std::make_unique<data::WindowSampler>(ds, 6, 3);
    core::HeteroGraphsConfig gcfg;
    gcfg.num_temporal_graphs = 2;
    graphs = std::make_unique<core::HeterogeneousGraphs>(ds, train_end, gcfg,
                                                         rng);
    model_cfg.lookback = 6;
    model_cfg.horizon = 3;
    model_cfg.gcn_dim = 6;
    model_cfg.lstm_dim = 8;
    model_cfg.seed = 77;
  }

  [[nodiscard]] std::unique_ptr<core::RihgcnModel> make_model() const {
    return std::make_unique<core::RihgcnModel>(*graphs, ds.num_nodes(),
                                               ds.num_features(), model_cfg);
  }
};

TEST(ParallelDeterminism, LossAndGradientsBitwiseEqualAcrossThreadCounts) {
  TinyRihgcn fixture;
  const data::Window window = fixture.sampler->make_window(5);

  double ref_loss = 0.0;
  std::vector<Matrix> ref_grads;
  bool have_ref = false;
  for (const std::size_t threads : {1u, 2u, 4u}) {
    BackendGuard guard(threads);
    auto model = fixture.make_model();
    for (ad::Parameter* p : model->parameters()) p->zero_grad();
    ad::Tape tape;
    ad::Var loss = model->training_loss(tape, window);
    tape.backward(loss);
    const double loss_val = tape.value(loss)(0, 0);
    std::vector<Matrix> grads;
    for (ad::Parameter* p : model->parameters()) grads.push_back(p->grad());
    if (!have_ref) {
      ref_loss = loss_val;
      ref_grads = std::move(grads);
      have_ref = true;
      continue;
    }
    EXPECT_EQ(loss_val, ref_loss) << "threads=" << threads;
    ASSERT_EQ(grads.size(), ref_grads.size());
    for (std::size_t i = 0; i < grads.size(); ++i) {
      EXPECT_EQ(grads[i], ref_grads[i])
          << "threads=" << threads << " parameter #" << i;
    }
  }
}

TEST(ParallelDeterminism, TrainedParametersBitwiseEqualSerialVsParallel) {
  TinyRihgcn fixture;
  const data::SplitIndices split = fixture.sampler->split();
  core::TrainConfig tcfg;
  tcfg.max_epochs = 1;
  tcfg.batch_size = 4;
  tcfg.max_train_windows = 8;
  tcfg.max_val_windows = 4;

  // Both parallel axes: the kernel pool and the trainer's batch workers.
  // Gradients reduce in work-item order, so neither may move a bit.
  auto run = [&](std::size_t kernel_threads, std::size_t batch_workers) {
    BackendGuard guard(kernel_threads);
    auto model = fixture.make_model();
    core::TrainConfig cfg = tcfg;
    cfg.num_threads = batch_workers;
    (void)core::train_model(*model, *fixture.sampler, split, cfg);
    std::vector<Matrix> out;
    for (ad::Parameter* p : model->parameters()) out.push_back(p->value());
    return out;
  };

  const std::vector<Matrix> reference = run(1, 1);
  for (const std::size_t k : {1u, 4u}) {
    for (const std::size_t w : {1u, 2u, 3u, 4u}) {
      const std::vector<Matrix> trained = run(k, w);
      ASSERT_EQ(trained.size(), reference.size());
      for (std::size_t i = 0; i < trained.size(); ++i) {
        EXPECT_EQ(trained[i], reference[i])
            << "k=" << k << " w=" << w << " parameter #" << i;
      }
    }
  }
}

}  // namespace
}  // namespace rihgcn
