// Robustness suite (DESIGN.md §11): NumericalGuard semantics, durable
// CRC-verified training checkpoints with bitwise-identical resume, the
// deterministic fault injector, training under injected faults, and the
// OnlineForecaster degradation paths (sanitize / stuck detection / fallback
// / scrub). The CleanRun* tests double as the CI gate that the guard never
// fires on healthy data.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <deque>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "baselines/classical.hpp"
#include "baselines/neural.hpp"
#include "core/online.hpp"
#include "core/robust.hpp"
#include "core/trainer.hpp"
#include "data/faults.hpp"
#include "data/generators.hpp"
#include "data/missing.hpp"
#include "nn/optim.hpp"

namespace rihgcn {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// ---- CRC32 / RngState ------------------------------------------------------

TEST(Crc32, KnownAnswerVector) {
  // The classic IEEE 802.3 check value.
  EXPECT_EQ(nn::crc32(std::string("123456789")), 0xCBF43926u);
  EXPECT_EQ(nn::crc32(std::string()), 0u);
}

TEST(Crc32, SensitiveToSingleBitFlip) {
  std::string a = "rihgcn checkpoint payload";
  std::string b = a;
  b[7] = static_cast<char>(b[7] ^ 0x01);
  EXPECT_NE(nn::crc32(a), nn::crc32(b));
}

TEST(RngState, RoundTripReplaysStreamExactly) {
  Rng rng(99);
  (void)rng.normal();  // leave a Box-Muller cached normal pending
  const RngState snap = rng.state();
  std::vector<double> expected;
  for (int i = 0; i < 16; ++i) expected.push_back(rng.normal());
  std::vector<std::size_t> perm = rng.permutation(10);

  Rng other(1);  // different seed; state restore must fully override
  other.set_state(snap);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(other.normal(), expected[i]);
  EXPECT_EQ(other.permutation(10), perm);
}

// ---- NumericalGuard --------------------------------------------------------

struct GuardRig {
  ad::Parameter w{Matrix(2, 2, 1.0), "w"};
  std::vector<ad::Parameter*> params{&w};
  nn::AdamOptimizer opt{params};
};

TEST(NumericalGuard, NonFiniteLossVetoed) {
  GuardRig rig;
  core::NumericalGuard guard(rig.params, rig.opt, core::GuardConfig{});
  EXPECT_EQ(guard.inspect(kNaN), core::NumericalGuard::Verdict::kSkipBatch);
  EXPECT_EQ(guard.counters().nonfinite_losses, 1u);
  EXPECT_EQ(guard.counters().batches_skipped, 1u);
  EXPECT_FALSE(guard.counters().clean());
}

TEST(NumericalGuard, NonFiniteGradientVetoed) {
  GuardRig rig;
  core::NumericalGuard guard(rig.params, rig.opt, core::GuardConfig{});
  rig.w.grad()(0, 1) = kNaN;
  EXPECT_EQ(guard.inspect(1.0), core::NumericalGuard::Verdict::kSkipBatch);
  EXPECT_EQ(guard.counters().nonfinite_grads, 1u);
}

TEST(NumericalGuard, SpikeArmsOnlyAfterWarmup) {
  GuardRig rig;
  core::GuardConfig gc;
  gc.warmup_steps = 2;
  gc.spike_factor = 100.0;
  core::NumericalGuard guard(rig.params, rig.opt, gc);
  // Before warmup, even a huge finite loss passes (it just seeds the EMA).
  EXPECT_EQ(guard.inspect(1e6), core::NumericalGuard::Verdict::kOk);
  guard.after_step();

  GuardRig rig2;
  core::NumericalGuard armed(rig2.params, rig2.opt, gc);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(armed.inspect(1.0), core::NumericalGuard::Verdict::kOk);
    armed.after_step();
  }
  EXPECT_EQ(armed.inspect(1e6), core::NumericalGuard::Verdict::kSkipBatch);
  EXPECT_EQ(armed.counters().loss_spikes, 1u);
  // A normal loss right after is accepted — the EMA was not poisoned.
  EXPECT_EQ(armed.inspect(1.1), core::NumericalGuard::Verdict::kOk);
}

TEST(NumericalGuard, LrBackoffIsBounded) {
  GuardRig rig;
  core::GuardConfig gc;
  gc.lr_backoff = 0.5;
  gc.max_lr_backoffs = 2;
  gc.max_consecutive_bad = 100;  // keep rollback out of this test
  core::NumericalGuard guard(rig.params, rig.opt, gc);
  const double lr0 = rig.opt.current_lr();
  for (int i = 0; i < 5; ++i) (void)guard.inspect(kNaN);
  EXPECT_DOUBLE_EQ(rig.opt.current_lr(), lr0 * 0.25);  // only 2 backoffs
  EXPECT_EQ(guard.counters().lr_backoffs, 2u);
  EXPECT_EQ(guard.counters().batches_skipped, 5u);
}

TEST(NumericalGuard, RollbackRestoresParametersAndOptimizer) {
  GuardRig rig;
  core::GuardConfig gc;
  gc.max_consecutive_bad = 3;
  core::NumericalGuard guard(rig.params, rig.opt, gc);
  // Simulate divergence: parameters wander off after the snapshot.
  rig.w.value().fill(123.0);
  (void)guard.inspect(kNaN);
  (void)guard.inspect(kNaN);
  EXPECT_EQ(guard.counters().rollbacks, 0u);
  (void)guard.inspect(kNaN);  // 3rd consecutive bad -> rollback
  EXPECT_EQ(guard.counters().rollbacks, 1u);
  for (std::size_t i = 0; i < rig.w.value().size(); ++i) {
    EXPECT_EQ(rig.w.value().data()[i], 1.0);  // back to the snapshot
  }
  // The backed-off LR survives the rollback (retry with smaller steps).
  EXPECT_LT(rig.opt.current_lr(), 1e-3);
}

TEST(NumericalGuard, DisabledGuardNeverIntervenes) {
  GuardRig rig;
  core::GuardConfig gc;
  gc.enabled = false;
  core::NumericalGuard guard(rig.params, rig.opt, gc);
  EXPECT_EQ(guard.inspect(kNaN), core::NumericalGuard::Verdict::kOk);
  EXPECT_TRUE(guard.counters().clean());
}

// ---- Shared training fixture ----------------------------------------------

struct TrainFixture {
  data::TrafficDataset ds;  // normalized
  std::unique_ptr<data::WindowSampler> sampler;
  data::SplitIndices split;

  explicit TrainFixture(double missing = 0.3) {
    data::PemsLikeConfig cfg;
    cfg.num_nodes = 5;
    cfg.num_days = 3;
    cfg.steps_per_day = 48;
    cfg.seed = 77;
    ds = data::generate_pems_like(cfg);
    Rng rng(78);
    if (missing > 0.0) data::inject_mcar(ds, missing, rng);
    const std::size_t train_end = ds.num_timesteps() * 7 / 10;
    const data::ZScoreNormalizer nz(ds, train_end);
    nz.normalize(ds);
    sampler = std::make_unique<data::WindowSampler>(ds, 6, 3);
    split = sampler->split();
  }

  baselines::NeuralBaselineConfig nb_config() const {
    baselines::NeuralBaselineConfig c;
    c.lookback = 6;
    c.horizon = 3;
    c.hidden = 8;
    c.cheb_order = 2;
    return c;
  }

  core::TrainConfig small_tc() const {
    core::TrainConfig tc;
    tc.max_epochs = 2;
    tc.max_train_windows = 24;
    tc.max_val_windows = 12;
    return tc;
  }
};

bool params_all_finite(core::ForecastModel& model) {
  for (ad::Parameter* p : model.parameters()) {
    if (p->value().has_non_finite()) return false;
  }
  return true;
}

// The CI clean-path gate: on healthy data every guard counter stays zero.
TEST(NumericalGuard, CleanRunKeepsAllCountersZero) {
  TrainFixture f;
  baselines::FcLstmModel model(4, f.nb_config());
  core::TrainConfig tc = f.small_tc();
  tc.max_epochs = 3;
  const core::TrainReport report =
      core::train_model(model, *f.sampler, f.split, tc);
  EXPECT_TRUE(report.guard.clean());
  EXPECT_EQ(report.guard.batches_skipped, 0u);
  EXPECT_EQ(report.guard.nonfinite_losses, 0u);
  EXPECT_EQ(report.guard.nonfinite_grads, 0u);
  EXPECT_EQ(report.guard.loss_spikes, 0u);
  EXPECT_EQ(report.guard.lr_backoffs, 0u);
  EXPECT_EQ(report.guard.rollbacks, 0u);
}

// ---- Durable training checkpoints ------------------------------------------

TEST(TrainCheckpoint, SaveLoadRoundTrip) {
  ad::Parameter a(Matrix(2, 3, 0.5), "a");
  ad::Parameter b(Matrix(1, 4, -1.25), "b");
  std::vector<ad::Parameter*> params{&a, &b};
  nn::AdamOptimizer opt(params);
  for (int i = 0; i < 3; ++i) {  // make moments/step non-trivial
    a.grad().fill(0.1);
    b.grad().fill(-0.2);
    opt.step();
  }
  Rng rng(5);
  (void)rng.normal();

  nn::TrainCheckpoint ckpt;
  ckpt.epoch = 7;
  ckpt.batch_size = 8;
  ckpt.num_clusters = 3;
  ckpt.seed = 42;
  ckpt.rng = rng.state();
  ckpt.adam = opt.state();
  ckpt.stopper_best = 0.31415;
  ckpt.stopper_bad_epochs = 2;
  ckpt.guard_loss_ema = 1.5;
  ckpt.guard_ema_initialized = true;
  ckpt.guard_good_steps = 21;
  ckpt.guard_backoffs_used = 1;
  ckpt.best_values = nn::snapshot_values(params);
  const std::vector<Matrix> saved_values = nn::snapshot_values(params);

  const std::string path = testing::TempDir() + "rihgcn_roundtrip.ckpt";
  nn::save_training_checkpoint(path, ckpt, params);

  a.value().fill(0.0);  // wreck the live state; load must restore it
  b.value().fill(99.0);
  const nn::TrainCheckpoint back = nn::load_training_checkpoint(path, params);

  EXPECT_EQ(back.epoch, 7u);
  EXPECT_EQ(back.batch_size, 8u);
  EXPECT_EQ(back.num_clusters, 3u);
  EXPECT_EQ(back.seed, 42u);
  EXPECT_EQ(back.rng.words, ckpt.rng.words);
  EXPECT_EQ(back.rng.has_cached_normal, ckpt.rng.has_cached_normal);
  EXPECT_EQ(back.rng.cached_normal, ckpt.rng.cached_normal);
  EXPECT_EQ(back.adam.t, ckpt.adam.t);
  EXPECT_EQ(back.adam.lr, ckpt.adam.lr);
  ASSERT_EQ(back.adam.m.size(), 2u);
  for (std::size_t k = 0; k < 2; ++k) {
    for (std::size_t i = 0; i < back.adam.m[k].size(); ++i) {
      EXPECT_EQ(back.adam.m[k].data()[i], ckpt.adam.m[k].data()[i]);
      EXPECT_EQ(back.adam.v[k].data()[i], ckpt.adam.v[k].data()[i]);
    }
  }
  EXPECT_EQ(back.stopper_best, 0.31415);
  EXPECT_EQ(back.stopper_bad_epochs, 2u);
  EXPECT_EQ(back.guard_loss_ema, 1.5);
  EXPECT_TRUE(back.guard_ema_initialized);
  EXPECT_EQ(back.guard_good_steps, 21u);
  EXPECT_EQ(back.guard_backoffs_used, 1u);
  ASSERT_EQ(back.best_values.size(), 2u);
  for (std::size_t k = 0; k < 2; ++k) {
    ASSERT_TRUE(back.best_values[k].same_shape(saved_values[k]));
    for (std::size_t i = 0; i < saved_values[k].size(); ++i) {
      EXPECT_EQ(back.best_values[k].data()[i], saved_values[k].data()[i]);
    }
  }
  for (std::size_t k = 0; k < 2; ++k) {  // live values restored bitwise
    for (std::size_t i = 0; i < saved_values[k].size(); ++i) {
      EXPECT_EQ(params[k]->value().data()[i], saved_values[k].data()[i]);
    }
  }
}

TEST(TrainCheckpoint, FlippedPayloadByteIsRejected) {
  ad::Parameter a(Matrix(3, 3, 1.5), "a");
  std::vector<ad::Parameter*> params{&a};
  nn::AdamOptimizer opt(params);
  nn::TrainCheckpoint ckpt;
  ckpt.batch_size = 8;
  ckpt.adam = opt.state();
  const std::string path = testing::TempDir() + "rihgcn_corrupt.ckpt";
  nn::save_training_checkpoint(path, ckpt, params);

  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  // Flip one bit well inside the payload (past the two header lines).
  const std::size_t header_end = bytes.find('\n', bytes.find('\n') + 1) + 1;
  ASSERT_LT(header_end + 20, bytes.size());
  bytes[header_end + 20] = static_cast<char>(bytes[header_end + 20] ^ 0x04);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
  out.close();

  try {
    (void)nn::load_training_checkpoint(path, params);
    FAIL() << "corrupt checkpoint was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("CRC"), std::string::npos);
  }
}

TEST(TrainCheckpoint, V2HeaderIsRejectedWithNamedError) {
  ad::Parameter a(Matrix(2, 2, 0.5), "a");
  std::vector<ad::Parameter*> params{&a};
  nn::AdamOptimizer opt(params);
  nn::TrainCheckpoint ckpt;
  ckpt.adam = opt.state();
  const std::string path = testing::TempDir() + "rihgcn_v2.ckpt";
  nn::save_training_checkpoint(path, ckpt, params);

  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  const std::string v3 = "rihgcn-train-ckpt v3\n";
  ASSERT_EQ(bytes.compare(0, v3.size(), v3), 0);
  bytes.replace(0, v3.size(), "rihgcn-train-ckpt v2\n");
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
  out.close();

  try {
    (void)nn::load_training_checkpoint(path, params);
    FAIL() << "v2 checkpoint was accepted";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("v2"), std::string::npos) << what;
    EXPECT_NE(what.find("thread count"), std::string::npos) << what;
  }
}

TEST(TrainCheckpoint, TruncatedFileIsRejected) {
  ad::Parameter a(Matrix(3, 3, 1.5), "a");
  std::vector<ad::Parameter*> params{&a};
  nn::AdamOptimizer opt(params);
  nn::TrainCheckpoint ckpt;
  ckpt.adam = opt.state();
  const std::string path = testing::TempDir() + "rihgcn_truncated.ckpt";
  nn::save_training_checkpoint(path, ckpt, params);

  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes.substr(0, bytes.size() / 2);
  out.close();
  EXPECT_THROW((void)nn::load_training_checkpoint(path, params),
               std::runtime_error);
}

TEST(TrainCheckpoint, MissingFileIsRejected) {
  ad::Parameter a(Matrix(1, 1), "a");
  std::vector<ad::Parameter*> params{&a};
  EXPECT_THROW((void)nn::load_training_checkpoint(
                   testing::TempDir() + "rihgcn_nonexistent.ckpt", params),
               std::runtime_error);
}

// The headline acceptance test: kill a run mid-schedule, resume it, and the
// final parameters are bitwise identical to the uninterrupted run — even
// with each of the three runs on a different number of batch workers.
TEST(TrainCheckpoint, KillAndResumeIsBitwiseIdentical) {
  TrainFixture f;
  const std::string path = testing::TempDir() + "rihgcn_resume.ckpt";
  const auto train = [&](baselines::FcLstmModel& model,
                         std::size_t num_threads, std::size_t max_epochs,
                         bool checkpoint, bool resume) {
    core::TrainConfig tc;
    tc.max_epochs = max_epochs;
    tc.max_train_windows = 24;
    tc.max_val_windows = 12;
    tc.num_threads = num_threads;
    if (checkpoint) tc.checkpoint_path = path;
    tc.resume = resume;
    return core::train_model(model, *f.sampler, f.split, tc);
  };

  // Run A: uninterrupted, 6 epochs on 2 workers.
  baselines::FcLstmModel model_a(4, f.nb_config());
  const core::TrainReport ra = train(model_a, 2, 6, false, false);

  // Run B: "killed" after 3 epochs on 4 workers, checkpointing every epoch.
  baselines::FcLstmModel model_b(4, f.nb_config());
  const core::TrainReport rb = train(model_b, 4, 3, true, false);
  EXPECT_GE(rb.checkpoints_written, 3u);

  // Run C: fresh process image resumes B's checkpoint to the full schedule
  // on 1 worker.
  baselines::FcLstmModel model_c(4, f.nb_config());
  const core::TrainReport rc = train(model_c, 1, 6, true, true);
  EXPECT_EQ(rc.resumed_epoch, 3u);
  EXPECT_EQ(rc.epochs_run + rc.resumed_epoch, ra.epochs_run);

  const auto pa = model_a.parameters();
  const auto pc = model_c.parameters();
  ASSERT_EQ(pa.size(), pc.size());
  for (std::size_t k = 0; k < pa.size(); ++k) {
    ASSERT_TRUE(pa[k]->value().same_shape(pc[k]->value()));
    for (std::size_t i = 0; i < pa[k]->value().size(); ++i) {
      EXPECT_EQ(pa[k]->value().data()[i], pc[k]->value().data()[i])
          << "param " << k << " entry " << i << " differs after resume";
    }
  }
  // The recorded histories line up too: C's epochs continue A's tail.
  ASSERT_EQ(rc.val_maes.size() + rc.resumed_epoch, ra.val_maes.size());
  for (std::size_t e = 0; e < rc.val_maes.size(); ++e) {
    EXPECT_EQ(rc.val_maes[e], ra.val_maes[e + rc.resumed_epoch]);
  }
}

TEST(TrainCheckpoint, ResumeRejectsContractMismatch) {
  TrainFixture f;
  const std::string path = testing::TempDir() + "rihgcn_contract.ckpt";
  baselines::FcLstmModel model(4, f.nb_config());
  core::TrainConfig tc = f.small_tc();
  tc.checkpoint_path = path;
  (void)core::train_model(model, *f.sampler, f.split, tc);

  baselines::FcLstmModel model2(4, f.nb_config());
  core::TrainConfig bad = tc;
  bad.resume = true;
  bad.seed = tc.seed + 1;  // different shuffle stream => refuse
  EXPECT_THROW((void)core::train_model(model2, *f.sampler, f.split, bad),
               std::runtime_error);

  // A different num_clusters is refused too. The contract compares the
  // config values exactly, as it does for batch_size and seed (FcLstm is
  // not ClusterTrainable, so 1 is the only other value it accepts).
  baselines::FcLstmModel model3(4, f.nb_config());
  bad = tc;
  bad.resume = true;
  bad.num_clusters = tc.num_clusters + 1;
  EXPECT_THROW((void)core::train_model(model3, *f.sampler, f.split, bad),
               std::runtime_error);
}

// ---- Fault injector ---------------------------------------------------------

data::TrafficDataset tiny_dataset(std::uint64_t seed = 7) {
  data::PemsLikeConfig cfg;
  cfg.num_nodes = 5;
  cfg.num_days = 2;
  cfg.steps_per_day = 48;
  cfg.seed = seed;
  return data::generate_pems_like(cfg);
}

bool bitwise_equal(const Matrix& a, const Matrix& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(FaultInjection, SameSeedSameCorruption) {
  data::TrafficDataset d1 = tiny_dataset();
  data::TrafficDataset d2 = tiny_dataset();
  data::FaultInjector f1(123), f2(123);
  (void)f1.nan_burst(d1, 0.01);
  (void)f2.nan_burst(d2, 0.01);
  (void)f1.spike(d1, 0.01);
  (void)f2.spike(d2, 0.01);
  for (std::size_t t = 0; t < d1.num_timesteps(); ++t) {
    ASSERT_TRUE(bitwise_equal(d1.truth[t], d2.truth[t])) << "t=" << t;
    ASSERT_TRUE(bitwise_equal(d1.mask[t], d2.mask[t])) << "t=" << t;
  }
}

TEST(FaultInjection, NanBurstCorruptsObservedEntries) {
  data::TrafficDataset ds = tiny_dataset();
  data::FaultInjector inj(9);
  const data::FaultStats stats = inj.nan_burst(ds, 0.02, 3.0);
  EXPECT_GT(stats.entries_corrupted, 0u);
  EXPECT_GT(stats.events, 0u);
  std::size_t nans = 0;
  for (std::size_t t = 0; t < ds.num_timesteps(); ++t) {
    for (std::size_t i = 0; i < ds.truth[t].size(); ++i) {
      if (std::isnan(ds.truth[t].data()[i])) {
        ++nans;
        EXPECT_GT(ds.mask[t].data()[i], 0.5);  // still claims "observed"
      }
    }
  }
  EXPECT_EQ(nans, stats.entries_corrupted);
}

TEST(FaultInjection, StuckAtFreezesRuns) {
  data::TrafficDataset ds = tiny_dataset();
  data::TrafficDataset orig = ds;
  data::FaultInjector inj(10);
  const data::FaultStats stats = inj.stuck_at(ds, 0.4, 10);
  EXPECT_GT(stats.entries_corrupted, 0u);
  EXPECT_EQ(stats.events, 2u);  // 40% of 5 nodes
  // Still finite, and some node now repeats a value it did not before.
  std::size_t changed = 0;
  for (std::size_t t = 0; t < ds.num_timesteps(); ++t) {
    EXPECT_FALSE(ds.truth[t].has_non_finite());
    if (!bitwise_equal(ds.truth[t], orig.truth[t])) ++changed;
  }
  EXPECT_GT(changed, 0u);
}

TEST(FaultInjection, SpikeInjectsHugeOutliers) {
  data::TrafficDataset ds = tiny_dataset();
  double peak = 0.0;
  for (const Matrix& x : ds.truth) peak = std::max(peak, x.abs_max());
  data::FaultInjector inj(11);
  const data::FaultStats stats = inj.spike(ds, 0.01, 50.0);
  EXPECT_GT(stats.entries_corrupted, 0u);
  double new_peak = 0.0;
  for (const Matrix& x : ds.truth) new_peak = std::max(new_peak, x.abs_max());
  EXPECT_GE(new_peak, 49.0 * peak);
}

TEST(FaultInjection, DropoutAndFeedGapOnlyTouchMask) {
  data::TrafficDataset ds = tiny_dataset();
  const data::TrafficDataset orig = ds;
  data::FaultInjector inj(12);
  const data::FaultStats drop = inj.sensor_dropout(ds, 0.4, 12);
  const data::FaultStats gap = inj.feed_gap(ds, 6);
  EXPECT_GT(drop.entries_masked, 0u);
  EXPECT_GT(gap.entries_masked, 0u);
  bool some_step_fully_dark = false;
  for (std::size_t t = 0; t < ds.num_timesteps(); ++t) {
    ASSERT_TRUE(bitwise_equal(ds.truth[t], orig.truth[t]));  // values intact
    if (ds.mask[t].sum() == 0.0) some_step_fully_dark = true;
  }
  EXPECT_TRUE(some_step_fully_dark);  // the feed gap really darkened steps
}

TEST(FaultInjection, RejectsBadRates) {
  data::TrafficDataset ds = tiny_dataset();
  data::FaultInjector inj(13);
  EXPECT_THROW((void)inj.nan_burst(ds, 1.5), std::invalid_argument);
  EXPECT_THROW((void)inj.spike(ds, -0.1), std::invalid_argument);
  EXPECT_THROW((void)inj.stuck_at(ds, 2.0, 5), std::invalid_argument);
}

// ---- Training under injected faults ----------------------------------------

// NaN bursts in "observed" entries poison losses/gradients; the guard must
// skip those batches, keep the parameters finite, and report the damage.
TEST(FaultInjection, TrainingSurvivesNanBurstWithGuardCountersFiring) {
  TrainFixture f(/*missing=*/0.2);
  data::FaultInjector inj(31);
  (void)inj.nan_burst(f.ds, 0.05, 4.0);  // inject AFTER normalization
  data::WindowSampler sampler(f.ds, 6, 3);
  baselines::FcLstmModel model(4, f.nb_config());
  core::TrainConfig tc = f.small_tc();
  const core::TrainReport report =
      core::train_model(model, sampler, sampler.split(), tc);
  EXPECT_TRUE(params_all_finite(model));
  EXPECT_GT(report.guard.batches_skipped, 0u);
  EXPECT_GT(report.guard.nonfinite_losses + report.guard.nonfinite_grads, 0u);
}

TEST(FaultInjection, TrainingSurvivesSpikes) {
  TrainFixture f(/*missing=*/0.2);
  data::FaultInjector inj(32);
  (void)inj.spike(f.ds, 0.005, 1e6);
  data::WindowSampler sampler(f.ds, 6, 3);
  baselines::FcLstmModel model(4, f.nb_config());
  core::TrainConfig tc = f.small_tc();
  tc.guard.warmup_steps = 1;
  const core::TrainReport report =
      core::train_model(model, sampler, sampler.split(), tc);
  EXPECT_TRUE(params_all_finite(model));
  EXPECT_EQ(report.epochs_run, tc.max_epochs);
}

TEST(FaultInjection, TrainingSurvivesOutagesAndGaps) {
  TrainFixture f(/*missing=*/0.2);
  data::FaultInjector inj(33);
  (void)inj.stuck_at(f.ds, 0.4, 12);
  (void)inj.sensor_dropout(f.ds, 0.4, 12);
  (void)inj.feed_gap(f.ds, 6);
  data::WindowSampler sampler(f.ds, 6, 3);
  baselines::FcLstmModel model(4, f.nb_config());
  const core::TrainReport report =
      core::train_model(model, sampler, sampler.split(), f.small_tc());
  EXPECT_TRUE(params_all_finite(model));
  EXPECT_EQ(report.epochs_run, 2u);
}

// ---- OnlineForecaster degradation paths ------------------------------------

class ConstModel final : public core::ForecastModel {
 public:
  ConstModel(std::size_t horizon, double value)
      : horizon_(horizon), value_(value) {}
  [[nodiscard]] std::string name() const override { return "const"; }
  [[nodiscard]] std::vector<ad::Parameter*> parameters() override {
    return {};
  }
  [[nodiscard]] ad::Var training_loss(ad::Tape& tape,
                                      const data::Window&) override {
    return tape.constant(Matrix(1, 1, 1.0));
  }
  [[nodiscard]] Matrix predict(const data::Window& w) override {
    return Matrix(w.x_obs.front().rows(), horizon_, value_);
  }

 private:
  std::size_t horizon_;
  double value_;
};

class ThrowingModel final : public core::ForecastModel {
 public:
  [[nodiscard]] std::string name() const override { return "throwing"; }
  [[nodiscard]] std::vector<ad::Parameter*> parameters() override {
    return {};
  }
  [[nodiscard]] ad::Var training_loss(ad::Tape& tape,
                                      const data::Window&) override {
    return tape.constant(Matrix(1, 1, 1.0));
  }
  [[nodiscard]] Matrix predict(const data::Window&) override {
    throw std::runtime_error("primary model exploded");
  }
};

class WrongShapeModel final : public core::ForecastModel {
 public:
  [[nodiscard]] std::string name() const override { return "wrong-shape"; }
  [[nodiscard]] std::vector<ad::Parameter*> parameters() override {
    return {};
  }
  [[nodiscard]] ad::Var training_loss(ad::Tape& tape,
                                      const data::Window&) override {
    return tape.constant(Matrix(1, 1, 1.0));
  }
  [[nodiscard]] Matrix predict(const data::Window&) override {
    return Matrix(2, 2, 1.0);
  }
};

struct OnlineRig {
  data::TrafficDataset ds = tiny_dataset(60);
  data::ZScoreNormalizer nz{ds, ds.num_timesteps() * 7 / 10};

  core::OnlineForecaster make(core::ForecastModel& model) {
    return core::OnlineForecaster(model, nz, ds.num_nodes(),
                                  ds.num_features(), /*lookback=*/6,
                                  /*horizon=*/3, ds.steps_per_day);
  }
};

TEST(OnlineRobust, SanitizesNonFiniteReadings) {
  OnlineRig rig;
  ConstModel model(3, 0.5);
  core::OnlineForecaster online = rig.make(model);
  Matrix v(5, 4, 50.0);
  Matrix m(5, 4, 1.0);
  v(0, 0) = kNaN;
  v(1, 2) = std::numeric_limits<double>::infinity();
  online.push_reading(v, m);
  const core::HealthReport h = online.health();
  EXPECT_EQ(h.sanitized_entries, 2u);
  EXPECT_DOUBLE_EQ(h.buffer_coverage, 18.0 / 20.0);
  EXPECT_FALSE(online.forecast().has_non_finite());
}

TEST(OnlineRobust, CoercesMalformedMaskEntries) {
  OnlineRig rig;
  ConstModel model(3, 0.5);
  core::OnlineForecaster online = rig.make(model);
  Matrix v(5, 4, 50.0);
  Matrix m(5, 4, 1.0);
  m(0, 0) = 0.7;   // not in {0,1} but > 0.5 -> treated observed
  m(1, 1) = -3.0;  // -> treated missing
  m(2, 2) = kNaN;  // -> treated missing
  online.push_reading(v, m);
  const core::HealthReport h = online.health();
  EXPECT_EQ(h.coerced_mask_entries, 3u);
  EXPECT_DOUBLE_EQ(h.buffer_coverage, 18.0 / 20.0);
}

TEST(OnlineRobust, StuckSensorFlaggedDemotedAndRecovers) {
  OnlineRig rig;
  ConstModel model(3, 0.5);
  core::OnlineForecaster online = rig.make(model);
  online.set_stuck_threshold(3);
  Matrix m(5, 4, 1.0);
  for (std::size_t tick = 0; tick < 6; ++tick) {
    Matrix v(5, 4, 40.0 + static_cast<double>(tick));  // others jitter
    v(2, 0) = 42.0;  // node 2's register is frozen
    online.push_reading(v, m);
  }
  core::HealthReport h = online.health();
  EXPECT_GE(h.stuck_demotions, 3u);  // flagged from the 3rd repeat on
  ASSERT_EQ(h.suspect_sensors.size(), 1u);
  EXPECT_EQ(h.suspect_sensors[0], 2u);
  EXPECT_FALSE(online.forecast().has_non_finite());

  // The register thaws: the flag clears on the next changed reading.
  Matrix v(5, 4, 50.0);
  v(2, 0) = 17.0;
  online.push_reading(v, m);
  h = online.health();
  EXPECT_TRUE(h.suspect_sensors.empty());
}

TEST(OnlineRobust, FallsBackWhenPrimaryGoesNonFinite) {
  OnlineRig rig;
  ConstModel primary(3, kNaN);
  ConstModel fallback(3, 0.5);
  core::OnlineForecaster online = rig.make(primary);
  online.set_fallback(&fallback);
  online.push_reading(rig.ds.truth[0], rig.ds.mask[0]);
  const Matrix pred = online.forecast();
  EXPECT_FALSE(pred.has_non_finite());
  EXPECT_DOUBLE_EQ(pred(0, 0), rig.nz.denormalize(0.5, 0));
  const core::HealthReport h = online.health();
  EXPECT_EQ(h.model_forecasts, 0u);
  EXPECT_EQ(h.fallback_forecasts, 1u);
}

TEST(OnlineRobust, FallsBackWhenPrimaryThrows) {
  OnlineRig rig;
  ThrowingModel primary;
  ConstModel fallback(3, 0.25);
  core::OnlineForecaster online = rig.make(primary);
  online.set_fallback(&fallback);
  online.push_reading(rig.ds.truth[0], rig.ds.mask[0]);
  EXPECT_FALSE(online.forecast().has_non_finite());
  EXPECT_EQ(online.health().fallback_forecasts, 1u);
}

TEST(OnlineRobust, ThrowingPrimaryWithoutFallbackPropagates) {
  OnlineRig rig;
  ThrowingModel primary;
  core::OnlineForecaster online = rig.make(primary);
  online.push_reading(rig.ds.truth[0], rig.ds.mask[0]);
  EXPECT_THROW((void)online.forecast(), std::runtime_error);
}

TEST(OnlineRobust, ScrubsNonFiniteOutputWithoutFallback) {
  OnlineRig rig;
  ConstModel primary(3, kNaN);
  core::OnlineForecaster online = rig.make(primary);
  online.push_reading(rig.ds.truth[0], rig.ds.mask[0]);
  const Matrix pred = online.forecast();
  EXPECT_FALSE(pred.has_non_finite());
  // Scrubbed entries land on the historical (denormalized) mean.
  EXPECT_DOUBLE_EQ(pred(0, 0), rig.nz.denormalize(0.0, 0));
  const core::HealthReport h = online.health();
  EXPECT_EQ(h.scrubbed_outputs, 15u);  // 5 nodes x 3 horizon steps
  EXPECT_EQ(h.fallback_forecasts, 1u);
}

TEST(OnlineRobust, WrongShapePrimaryDegradesToFiniteForecast) {
  OnlineRig rig;
  WrongShapeModel primary;
  core::OnlineForecaster online = rig.make(primary);
  online.push_reading(rig.ds.truth[0], rig.ds.mask[0]);
  const Matrix pred = online.forecast();
  EXPECT_EQ(pred.rows(), 5u);
  EXPECT_EQ(pred.cols(), 3u);
  EXPECT_FALSE(pred.has_non_finite());
  EXPECT_EQ(online.health().fallback_forecasts, 1u);
}

TEST(OnlineRobust, DeadSensorReportedAfterFullBuffer) {
  OnlineRig rig;
  ConstModel model(3, 0.5);
  core::OnlineForecaster online = rig.make(model);
  Matrix v(5, 4, 50.0);
  Matrix m(5, 4, 1.0);
  for (std::size_t f = 0; f < 4; ++f) m(3, f) = 0.0;  // node 3 never reports
  for (std::size_t tick = 0; tick < 6; ++tick) {
    Matrix vt = v;
    vt(0, 0) = static_cast<double>(tick);  // keep other nodes moving
    online.push_reading(vt, m);
  }
  const core::HealthReport h = online.health();
  ASSERT_EQ(h.suspect_sensors.size(), 1u);
  EXPECT_EQ(h.suspect_sensors[0], 3u);
}

TEST(OnlineRobust, HealthyStreamReportsNoSuspectsOrFallbacks) {
  OnlineRig rig;
  ConstModel model(3, 0.5);
  core::OnlineForecaster online = rig.make(model);
  for (std::size_t t = 0; t < 8; ++t) {
    online.push_reading(rig.ds.truth[t], rig.ds.mask[t]);
  }
  (void)online.forecast();
  const core::HealthReport h = online.health();
  EXPECT_EQ(h.sanitized_entries, 0u);
  EXPECT_EQ(h.coerced_mask_entries, 0u);
  EXPECT_EQ(h.stuck_demotions, 0u);
  EXPECT_EQ(h.fallback_forecasts, 0u);
  EXPECT_EQ(h.scrubbed_outputs, 0u);
  EXPECT_EQ(h.model_forecasts, 1u);
  EXPECT_TRUE(h.suspect_sensors.empty());
}

// ---- forecast memoization ----------------------------------------------------

/// ConstModel that counts predict() calls, so tests can see cache hits.
class CountingModel final : public core::ForecastModel {
 public:
  CountingModel(std::size_t horizon, double value)
      : horizon_(horizon), value_(value) {}
  [[nodiscard]] std::string name() const override { return "counting"; }
  [[nodiscard]] std::vector<ad::Parameter*> parameters() override {
    return {};
  }
  [[nodiscard]] ad::Var training_loss(ad::Tape& tape,
                                      const data::Window&) override {
    return tape.constant(Matrix(1, 1, 1.0));
  }
  [[nodiscard]] Matrix predict(const data::Window& w) override {
    ++calls;
    return Matrix(w.x_obs.front().rows(), horizon_, value_);
  }
  std::size_t calls = 0;

 private:
  std::size_t horizon_;
  double value_;
};

TEST(OnlineMemo, RepeatForecastsHitCacheExactly) {
  OnlineRig rig;
  CountingModel model(3, 0.5);
  core::OnlineForecaster online = rig.make(model);
  online.push_reading(rig.ds.truth[0], rig.ds.mask[0]);
  const Matrix first = online.forecast();
  const Matrix second = online.forecast();
  const Matrix third = online.forecast();
  EXPECT_EQ(model.calls, 1u);  // one model run serves all three
  EXPECT_EQ(first, second);
  EXPECT_EQ(first, third);
  const core::HealthReport h = online.health();
  EXPECT_EQ(h.model_forecasts, 1u);
  EXPECT_EQ(h.memoized_forecasts, 2u);
}

TEST(OnlineMemo, IngestInvalidates) {
  OnlineRig rig;
  CountingModel model(3, 0.5);
  core::OnlineForecaster online = rig.make(model);
  online.push_reading(rig.ds.truth[0], rig.ds.mask[0]);
  (void)online.forecast();
  online.push_reading(rig.ds.truth[1], rig.ds.mask[1]);
  (void)online.forecast();
  EXPECT_EQ(model.calls, 2u);
  online.push_gap();  // a gap is an ingest too
  (void)online.forecast();
  EXPECT_EQ(model.calls, 3u);
  EXPECT_EQ(online.health().memoized_forecasts, 0u);
}

TEST(OnlineMemo, ConfigChangesInvalidate) {
  OnlineRig rig;
  CountingModel model(3, 0.5);
  ConstModel fallback(3, 0.25);
  core::OnlineForecaster online = rig.make(model);
  online.push_reading(rig.ds.truth[0], rig.ds.mask[0]);
  (void)online.forecast();
  online.set_fallback(&fallback);  // the robust path may resolve differently
  (void)online.forecast();
  EXPECT_EQ(model.calls, 2u);
  online.set_stuck_threshold(7);
  (void)online.forecast();
  EXPECT_EQ(model.calls, 3u);
}

TEST(OnlineMemo, ThrowingForecastIsNeverCached) {
  OnlineRig rig;
  ThrowingModel primary;
  core::OnlineForecaster online = rig.make(primary);
  online.push_reading(rig.ds.truth[0], rig.ds.mask[0]);
  EXPECT_THROW((void)online.forecast(), std::runtime_error);
  // The failure was not memoized: the next call reaches the model again
  // (and throws again) instead of replaying a cached error or stale value.
  EXPECT_THROW((void)online.forecast(), std::runtime_error);
  EXPECT_EQ(online.health().memoized_forecasts, 0u);
}

// ---- shared serving-side primitives (core/robust, DESIGN.md §15) -----------
//
// These are the ONE implementation behind both OnlineForecaster and
// serve::ForecastServer; the unit tests here pin the exact semantics the
// two serving layers inherit.

TEST(RobustPrimitives, ScrubNonFiniteReplacesAndCounts) {
  Matrix m(2, 2);
  m(0, 0) = 1.5;
  m(0, 1) = std::numeric_limits<double>::quiet_NaN();
  m(1, 0) = -std::numeric_limits<double>::infinity();
  m(1, 1) = 0.0;
  EXPECT_EQ(core::scrub_non_finite(m, 7.0), 2u);
  EXPECT_DOUBLE_EQ(m(0, 0), 1.5);
  EXPECT_DOUBLE_EQ(m(0, 1), 7.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 7.0);
  EXPECT_DOUBLE_EQ(m(1, 1), 0.0);
  EXPECT_EQ(core::scrub_non_finite(m), 0u);  // idempotent once clean
}

TEST(RobustPrimitives, SanitizeReadingDemotesAndCoerces) {
  data::TrafficDataset ds = data::generate_pems_like([] {
    data::PemsLikeConfig cfg;
    cfg.num_nodes = 3;
    cfg.num_days = 1;
    cfg.steps_per_day = 24;
    return cfg;
  }());
  const data::ZScoreNormalizer norm(ds, ds.num_timesteps());
  Matrix values(3, ds.num_features());
  Matrix mask(3, ds.num_features());
  for (std::size_t i = 0; i < values.size(); ++i) {
    values.data()[i] = 10.0;
    mask.data()[i] = 1.0;
  }
  values(0, 0) = std::numeric_limits<double>::quiet_NaN();  // observed NaN
  mask(1, 0) = 0.7;   // malformed mask entry, still > 0.5 → observed
  mask(2, 0) = -3.0;  // malformed mask entry, ≤ 0.5 → missing
  Matrix normalized(3, ds.num_features());
  Matrix clean(3, ds.num_features());
  const core::SanitizeCounts c =
      core::sanitize_reading(values, mask, norm, normalized, clean);
  EXPECT_EQ(c.sanitized_entries, 1u);
  EXPECT_EQ(c.coerced_mask_entries, 2u);
  EXPECT_DOUBLE_EQ(clean(0, 0), 0.0);  // NaN value demoted
  EXPECT_DOUBLE_EQ(normalized(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(clean(1, 0), 1.0);  // 0.7 coerced to observed
  EXPECT_DOUBLE_EQ(clean(2, 0), 0.0);  // -3 coerced to missing
  EXPECT_FALSE(normalized.has_non_finite());
}

TEST(RobustPrimitives, StuckDetectorFlagsRunsAndRecovers) {
  core::StuckSensorDetector det(2, /*threshold=*/3);
  Matrix v(2, 1), m(2, 1);
  auto feed = [&](double a, double b) {
    v(0, 0) = a;
    v(1, 0) = b;
    m(0, 0) = m(1, 0) = 1.0;
    return det.observe_and_demote(v, m);
  };
  EXPECT_EQ(feed(5.0, 1.0), 0u);
  EXPECT_EQ(feed(5.0, 2.0), 0u);
  EXPECT_EQ(feed(5.0, 3.0), 1u);  // node 0 hit 3 identical readings
  EXPECT_TRUE(det.flags()[0]);
  EXPECT_FALSE(det.flags()[1]);
  EXPECT_DOUBLE_EQ(m(0, 0), 0.0);  // demoted: row zeroed in the mask
  EXPECT_DOUBLE_EQ(m(1, 0), 1.0);
  // The value moving again un-flags the node immediately.
  EXPECT_EQ(feed(6.0, 4.0), 0u);
  EXPECT_FALSE(det.flags()[0]);
  EXPECT_DOUBLE_EQ(m(0, 0), 1.0);
}

TEST(RobustPrimitives, StuckDetectorThresholdZeroDisables) {
  core::StuckSensorDetector det(1, /*threshold=*/0);
  Matrix v(1, 1), m(1, 1);
  for (int k = 0; k < 50; ++k) {
    v(0, 0) = 9.0;
    m(0, 0) = 1.0;
    EXPECT_EQ(det.observe_and_demote(v, m), 0u);
  }
  EXPECT_DOUBLE_EQ(m(0, 0), 1.0);
}

TEST(RobustPrimitives, FindSuspectSensorsMergesStuckAndDead) {
  std::deque<Matrix> masks;
  for (int t = 0; t < 3; ++t) {
    Matrix m(3, 1);
    m(0, 0) = 1.0;  // node 0 observed
    m(1, 0) = 0.0;  // node 1 dead across the whole buffer
    m(2, 0) = t == 1 ? 1.0 : 0.0;  // node 2 sporadic but alive
    masks.push_back(m);
  }
  const std::vector<bool> stuck = {true, false, false};
  const auto full = core::find_suspect_sensors(stuck, masks, 3, true);
  EXPECT_EQ(full, (std::vector<std::size_t>{0, 1}));
  // A half-warm buffer says nothing about death: only stuck flags survive.
  const auto warm = core::find_suspect_sensors(stuck, masks, 3, false);
  EXPECT_EQ(warm, (std::vector<std::size_t>{0}));
}

}  // namespace
}  // namespace rihgcn
