// Tests for the event-driven async engine (fl/async):
//  * AsyncEngine — preconditions: the network simulator, algorithms
//    with static membership, and FedClust's sync-only knobs refused.
//  * AsyncDeterminism — buffered trajectories are bit-identical across
//    kernel-thread counts and worker-thread counts.
//  * AsyncStaleness — the staleness decay and the flush's mixing
//    coefficients against hand-computed values.
//  * AsyncChaos — crash/corruption faults plus churn never wedge the
//    dispatch frontier.
//  * AsyncResume — resume from an async checkpoint is bit-identical to
//    the uninterrupted run.
//  * CodecRobustGuard — under top-k upload frames the trimmed mean
//    stays sparse-aware (robust::sparse_trimmed_mean) while the
//    coordinate median still falls back to norm-clip (negative
//    control).
#include "fl/async.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>

#include "algorithms/cfl.hpp"
#include "algorithms/fedavg.hpp"
#include "algorithms/fedper.hpp"
#include "algorithms/ifca.hpp"
#include "algorithms/local_only.hpp"
#include "check/audit.hpp"
#include "core/fedclust.hpp"
#include "test_helpers.hpp"

namespace fedclust::fl {
namespace {

using testing::make_grouped_federation;

void expect_same_rounds(const RunResult& a, const RunResult& b) {
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t i = 0; i < a.rounds.size(); ++i) {
    EXPECT_EQ(a.rounds[i].round, b.rounds[i].round) << i;
    EXPECT_EQ(a.rounds[i].weights_fp, b.rounds[i].weights_fp) << i;
    EXPECT_EQ(a.rounds[i].acc_mean, b.rounds[i].acc_mean) << i;
    EXPECT_EQ(a.rounds[i].acc_std, b.rounds[i].acc_std) << i;
    EXPECT_EQ(a.rounds[i].train_loss, b.rounds[i].train_loss) << i;
    EXPECT_EQ(a.rounds[i].cum_upload, b.rounds[i].cum_upload) << i;
    EXPECT_EQ(a.rounds[i].cum_download, b.rounds[i].cum_download) << i;
    EXPECT_EQ(a.rounds[i].num_clusters, b.rounds[i].num_clusters) << i;
    EXPECT_EQ(a.rounds[i].sim_seconds, b.rounds[i].sim_seconds) << i;
  }
  EXPECT_EQ(a.cluster_labels, b.cluster_labels);
}

FederationConfig cellular_config(double straggler_frac = 1.0) {
  FederationConfig cfg;
  cfg.network.enabled = true;
  cfg.network.profile = net::Profile::kCellular;
  cfg.network.straggler_frac = straggler_frac;
  return cfg;
}

// -- staleness math -----------------------------------------------------------

TEST(AsyncStaleness, WeightHandComputed) {
  EXPECT_EQ(staleness_weight(StalenessKind::kConstant, 0.5, 0), 1.0);
  EXPECT_EQ(staleness_weight(StalenessKind::kConstant, 0.5, 7), 1.0);
  EXPECT_EQ(staleness_weight(StalenessKind::kPolynomial, 0.5, 0), 1.0);
  EXPECT_DOUBLE_EQ(staleness_weight(StalenessKind::kPolynomial, 0.5, 1),
                   1.0 / std::sqrt(2.0));
  EXPECT_DOUBLE_EQ(staleness_weight(StalenessKind::kPolynomial, 0.5, 3),
                   0.5);
  EXPECT_DOUBLE_EQ(staleness_weight(StalenessKind::kPolynomial, 1.0, 3),
                   0.25);
  EXPECT_DOUBLE_EQ(staleness_weight(StalenessKind::kPolynomial, 2.0, 1),
                   0.25);
}

TEST(AsyncStaleness, FlushMixingMatchesHandComputedMean) {
  // Two synthetic updates, samples {10, 20}, staleness {0, 2}, a = 0.5:
  // c ∝ {10·1, 20/√3}. The flush normalizes and hands the coefficients
  // to aggregate_weighted, which must land on the per-coordinate convex
  // mix exactly (double accumulators, single rounding).
  auto [fed, groups] = make_grouped_federation();
  const std::size_t dim = fed.model_size();
  ClientUpdate a;
  a.client_id = 0;
  a.num_samples = 10;
  a.weights.assign(dim, 1.0f);
  ClientUpdate b;
  b.client_id = 1;
  b.num_samples = 20;
  b.weights.assign(dim, 4.0f);

  const double wa = 10.0 * staleness_weight(StalenessKind::kPolynomial,
                                            0.5, 0);
  const double wb = 20.0 * staleness_weight(StalenessKind::kPolynomial,
                                            0.5, 2);
  const double total = wa + wb;
  const std::vector<float> mixed =
      fed.aggregate_weighted({a, b}, {wa / total, wb / total});
  const float expected =
      static_cast<float>((wa / total) * 1.0 + (wb / total) * 4.0);
  ASSERT_EQ(mixed.size(), dim);
  for (std::size_t i = 0; i < dim; ++i) {
    ASSERT_EQ(mixed[i], expected) << i;
  }
}

TEST(AsyncStaleness, DecayTowardHandComputed) {
  // out = current + lr * (target - current) in double per coordinate:
  // {1,2} toward {3,6} at lr 0.5 → {2,4}.
  const std::vector<float> current{1.0f, 2.0f};
  const std::vector<float> target{3.0f, 6.0f};
  const std::vector<float> half = decay_toward(current, target, 0.5);
  ASSERT_EQ(half.size(), 2u);
  EXPECT_EQ(half[0], 2.0f);
  EXPECT_EQ(half[1], 4.0f);
  // lr = 1 is exact identity on the target.
  EXPECT_EQ(decay_toward(current, target, 1.0), target);
}

TEST(AsyncStaleness, LrDecayOffIsBitIdentical) {
  // lr_decay_staleness = 0 disables the knob entirely; the engine must
  // reproduce the pre-knob trajectory bit for bit.
  AsyncConfig plain;
  plain.buffer_k = 2;
  AsyncConfig off = plain;
  off.lr_decay_staleness = 0.0;
  off.lr_decay = 0.25;
  const FederationConfig cfg = cellular_config();
  auto run_with = [&](const AsyncConfig& ac) {
    auto [fed, groups] = make_grouped_federation(6, 480, 42, cfg);
    algorithms::FedAvg algo;
    return run_async(fed, algo, ac, 5);
  };
  expect_same_rounds(run_with(plain), run_with(off));
}

// -- async determinism --------------------------------------------------------

AsyncConfig small_async() {
  AsyncConfig ac;
  ac.buffer_k = 2;
  ac.staleness_fn = StalenessKind::kPolynomial;
  ac.staleness_exponent = 0.5;
  return ac;
}

RunResult run_async_fedclust(FederationConfig cfg, const AsyncConfig& ac,
                             std::size_t flushes) {
  auto [fed, groups] = make_grouped_federation(6, 480, 42, cfg);
  core::FedClust algo(core::FedClustConfig{});
  return run_async(fed, algo, ac, flushes);
}

TEST(AsyncDeterminism, BitIdenticalAcrossKernelThreads) {
  const AsyncConfig ac = small_async();
  FederationConfig base = cellular_config();
  base.kernel_threads = 0;
  FederationConfig kt = cellular_config();
  kt.kernel_threads = 2;
  expect_same_rounds(run_async_fedclust(base, ac, 6),
                     run_async_fedclust(kt, ac, 6));
}

TEST(AsyncDeterminism, BitIdenticalAcrossWorkerThreads) {
  const AsyncConfig ac = small_async();
  FederationConfig one = cellular_config();
  one.threads = 1;
  FederationConfig four = cellular_config();
  four.threads = 4;
  expect_same_rounds(run_async_fedclust(one, ac, 6),
                     run_async_fedclust(four, ac, 6));
}

TEST(AsyncDeterminism, InflightIsSemantic) {
  // `inflight` is the modeled-concurrency knob: capping it changes the
  // event timeline, so the trajectory must genuinely differ.
  AsyncConfig full = small_async();
  AsyncConfig capped = small_async();
  capped.inflight = 2;
  const RunResult a = run_async_fedclust(cellular_config(), full, 6);
  const RunResult b = run_async_fedclust(cellular_config(), capped, 6);
  EXPECT_NE(a.rounds.back().weights_fp, b.rounds.back().weights_fp);
}

TEST(AsyncDeterminism, VirtualTimeIsMonotone) {
  const RunResult r =
      run_async_fedclust(cellular_config(), small_async(), 6);
  ASSERT_FALSE(r.rounds.empty());
  double prev = 0.0;
  for (const RoundMetrics& m : r.rounds) {
    EXPECT_GE(m.sim_seconds, prev);
    prev = m.sim_seconds;
  }
  EXPECT_GT(prev, 0.0);
}

// -- engine preconditions -----------------------------------------------------

TEST(AsyncEngine, RequiresNetworkSimulator) {
  auto [fed, groups] = make_grouped_federation();  // network disabled
  core::FedClust algo(core::FedClustConfig{});
  EXPECT_THROW(run_async(fed, algo, small_async(), 4), Error);
}

TEST(AsyncEngine, SyncOnlyAdaptersRefuse) {
  auto [fed, groups] = make_grouped_federation(6, 480, 42, cellular_config());
  algorithms::Cfl cfl(algorithms::CflConfig{});
  EXPECT_THROW(run_async(fed, cfl, small_async(), 4), Error);
  algorithms::Ifca ifca(algorithms::IfcaConfig{});
  EXPECT_THROW(run_async(fed, ifca, small_async(), 4), Error);
  algorithms::FedAvgM fedavgm;
  EXPECT_THROW(run_async(fed, fedavgm, small_async(), 4), Error);
  algorithms::FedPer fedper;
  EXPECT_THROW(run_async(fed, fedper, small_async(), 4), Error);
  algorithms::LocalOnly local;
  EXPECT_THROW(run_async(fed, local, small_async(), 4), Error);
}

// FedClust's drift detection/recovery and its per-round checkpoint
// writes hang off the synchronous round clock; the buffered scheduler
// has none, so either knob must be refused rather than silently ignored.
TEST(AsyncEngine, FedClustSyncOnlyKnobsRefuse) {
  auto [fed, groups] = make_grouped_federation(6, 480, 42, cellular_config());
  core::FedClustConfig dynamic;
  dynamic.dynamic.enabled = true;
  core::FedClust dynamic_algo(dynamic);
  EXPECT_THROW(run_async(fed, dynamic_algo, small_async(), 4), Error);

  const std::string path =
      (std::filesystem::temp_directory_path() / "fedclust_async_knob.ckpt")
          .string();
  std::filesystem::remove(path);
  core::FedClustConfig checkpointed;
  checkpointed.checkpoint_every = 1;
  checkpointed.checkpoint_path = path;
  core::FedClust checkpointed_algo(checkpointed);
  EXPECT_THROW(run_async(fed, checkpointed_algo, small_async(), 4), Error);
  // Refused up front: formation never ran, so nothing was written.
  EXPECT_FALSE(std::filesystem::exists(path));

  // The static paper configuration still runs buffered.
  core::FedClust plain(core::FedClustConfig{});
  EXPECT_NO_THROW(run_async(fed, plain, small_async(), 2));
}

// -- chaos --------------------------------------------------------------------

TEST(AsyncChaos, CrashesNeverWedgeTheFrontier) {
  FederationConfig cfg = cellular_config();
  cfg.dropout = 0.2;
  cfg.faults.enabled = true;
  cfg.faults.crash_prob = 0.3;
  cfg.faults.nan_prob = 0.1;
  cfg.faults.sign_flip_prob = 0.1;
  cfg.robust.validate.enabled = true;
  auto [fed, groups] = make_grouped_federation(6, 480, 42, cfg);
  algorithms::FedAvg algo;
  AsyncConfig ac = small_async();
  ac.buffer_k = 3;
  ac.max_staleness = 4;
  const RunResult r = run_async(fed, algo, ac, 5);
  // Every requested flush completed despite crashed dispatches; the
  // frontier kept advancing (virtual time strictly positive, metrics
  // recorded for the last flush).
  ASSERT_FALSE(r.rounds.empty());
  EXPECT_GT(r.rounds.back().sim_seconds, 0.0);
  EXPECT_GT(r.final_accuracy.mean, 0.0);
}

TEST(AsyncChaos, ChaosTrajectoriesAreStillDeterministic) {
  FederationConfig cfg = cellular_config();
  cfg.dropout = 0.2;
  cfg.faults.enabled = true;
  cfg.faults.crash_prob = 0.3;
  cfg.faults.nan_prob = 0.1;
  cfg.robust.validate.enabled = true;
  AsyncConfig ac = small_async();
  ac.buffer_k = 3;
  const auto run_once = [&](std::size_t threads) {
    FederationConfig c = cfg;
    c.threads = threads;
    auto [fed, groups] = make_grouped_federation(6, 480, 42, c);
    algorithms::FedAvg algo;
    return run_async(fed, algo, ac, 5);
  };
  expect_same_rounds(run_once(1), run_once(4));
}

// -- checkpoint / resume ------------------------------------------------------

TEST(AsyncResume, BitIdenticalAfterReload) {
  const std::string path = "/tmp/fedclust_async_resume_test.ckpt";
  std::remove(path.c_str());
  AsyncConfig ac = small_async();
  ac.checkpoint_every = 2;
  ac.checkpoint_path = path;

  const FederationConfig cfg = cellular_config();
  const RunResult ref = run_async_fedclust(cfg, ac, 6);

  // The last checkpoint on disk covers flush 4; resume must replay
  // flushes 5..6 bit-identically, in-flight dispatches included.
  const robust::RunCheckpoint ck = robust::load_checkpoint(path);
  EXPECT_TRUE(ck.async.present);
  EXPECT_EQ(ck.async.flushes, 4u);
  auto [fed, groups] = make_grouped_federation(6, 480, 42, cfg);
  core::FedClust algo(core::FedClustConfig{});
  const RunResult resumed = resume_async(fed, algo, ac, ck, 6);
  expect_same_rounds(ref, resumed);
  std::remove(path.c_str());
}

// -- codec-aware robust guard (satellite regression) --------------------------

// The coordinate median still has no sparse-aware form, so it keeps the
// norm-clip fallback as the negative control; the trimmed mean now
// dispatches to robust::sparse_trimmed_mean and keeps its rule.
TEST(CodecRobustGuard, TopkCoordinateMedianFallsBackToNormClip) {
  FederationConfig cfg;
  cfg.compression.enabled = true;
  cfg.compression.upload = compress::CodecKind::kTopK;
  cfg.robust.rule = robust::AggregationRule::kCoordinateMedian;
  auto [fed, groups] = make_grouped_federation(6, 480, 42, cfg);
  EXPECT_EQ(fed.config().robust.rule, robust::AggregationRule::kNormClip);
}

TEST(CodecRobustGuard, TopkTrimmedMeanKeepsItsRule) {
  FederationConfig cfg;
  cfg.compression.enabled = true;
  cfg.compression.upload = compress::CodecKind::kTopK;
  cfg.robust.rule = robust::AggregationRule::kTrimmedMean;
  auto [fed, groups] = make_grouped_federation(6, 480, 42, cfg);
  EXPECT_EQ(fed.config().robust.rule, robust::AggregationRule::kTrimmedMean);
}

TEST(CodecRobustGuard, FallbackMatchesExplicitNormClip) {
  FederationConfig guarded;
  guarded.compression.enabled = true;
  guarded.compression.upload = compress::CodecKind::kTopK;
  guarded.robust.rule = robust::AggregationRule::kCoordinateMedian;
  FederationConfig explicit_clip = guarded;
  explicit_clip.robust.rule = robust::AggregationRule::kNormClip;
  auto [fed_a, ga] = make_grouped_federation(6, 480, 42, guarded);
  auto [fed_b, gb] = make_grouped_federation(6, 480, 42, explicit_clip);
  algorithms::FedAvg algo;
  expect_same_rounds(algo.run(fed_a, 3), algo.run(fed_b, 3));
}

TEST(CodecRobustGuard, TopkTrimmedMeanRunsSparseAware) {
  // A full FedAvg run under top-k upload + trimmed mean must complete
  // with finite weights — the sparse-aware rule aggregates only the
  // shipped coordinates instead of degrading to norm-clip.
  FederationConfig cfg;
  cfg.compression.enabled = true;
  cfg.compression.upload = compress::CodecKind::kTopK;
  cfg.robust.rule = robust::AggregationRule::kTrimmedMean;
  auto [fed, groups] = make_grouped_federation(6, 480, 42, cfg);
  algorithms::FedAvg algo;
  const RunResult result = algo.run(fed, 3);
  EXPECT_GT(result.final_accuracy.mean, 0.0);
}

TEST(CodecRobustGuard, DenseCodecsKeepTheirRule) {
  FederationConfig cfg;
  cfg.compression.enabled = true;
  cfg.compression.upload = compress::CodecKind::kInt8;
  cfg.robust.rule = robust::AggregationRule::kTrimmedMean;
  auto [fed, groups] = make_grouped_federation(6, 480, 42, cfg);
  EXPECT_EQ(fed.config().robust.rule,
            robust::AggregationRule::kTrimmedMean);
}

}  // namespace
}  // namespace fedclust::fl
