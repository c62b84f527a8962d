// Tests for the drift-robustness subsystem:
//  * DriftPlan — deterministic scenario generation (rotation, shift,
//    departures, newcomer generations) from splittable seed streams.
//  * DriftFleet — lazy transformed shards with signature-keyed caching
//    and a bit-exact pass-through before any event applies.
//  * DriftFederation — sampling/evaluation honour churn, newcomers do
//    not inherit quarantine strikes, departures never wedge quorum.
//  * DriftDetector — windowed mean-shift with hysteresis + cooldown.
//  * DriftDynamic — Gaussian soft-membership reassignment and the
//    split/merge recluster repair.
//  * DriftRecovery — end to end: static FedClust degrades permanently
//    under an injected drift, FedClust-dynamic detects and recovers.
//  * DriftDeterminism / DriftResume — bit-identity across kernel-thread
//    counts and FCKP kill/resume points.
//  * DriftServe — hot-reloading a re-clustered registry snapshot.
// CI runs `^Drift` under TSan alongside the async suites.
#include "robust/drift.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <span>

#include "core/fedclust.hpp"
#include "cluster/dynamic.hpp"
#include "fl/drift.hpp"
#include "fl/drift_fleet.hpp"
#include "fl/fleet.hpp"
#include "serve/registry.hpp"
#include "test_helpers.hpp"
#include "utils/error.hpp"

namespace fedclust {
namespace {

using testing::make_clients;
using testing::make_grouped_federation;
using testing::tiny_pool;

robust::DriftConfig rotation_at(std::size_t round,
                                std::vector<std::size_t> slots,
                                std::size_t rotate_by = 2) {
  robust::DriftConfig cfg;
  cfg.enabled = true;
  robust::DriftEvent e;
  e.round = round;
  e.kind = robust::DriftKind::kLabelRotation;
  e.slots = std::move(slots);
  e.rotate_by = rotate_by;
  cfg.events.push_back(e);
  return cfg;
}

// -- DriftPlan ----------------------------------------------------------------

TEST(DriftPlan, RotationStartsAtScheduledRound) {
  const data::Dataset pool = tiny_pool(64, 9);
  const robust::DriftPlan plan(rotation_at(3, {0}), /*base_seed=*/9,
                               /*num_clients=*/4, /*num_classes=*/4);
  EXPECT_EQ(plan.transform_signature(2, 0), 0u);
  EXPECT_NE(plan.transform_signature(3, 0), 0u);
  EXPECT_EQ(plan.transform_signature(3, 1), 0u);  // slot 1 untouched

  const data::Dataset rotated = plan.transform(3, 0, pool, /*split_tag=*/0);
  ASSERT_EQ(rotated.size(), pool.size());
  for (std::size_t i = 0; i < pool.size(); ++i) {
    EXPECT_EQ(rotated.label(i), (pool.label(i) + 2) % 4) << i;
  }
  // Before the event the transform is the identity.
  const data::Dataset same = plan.transform(2, 0, pool, 0);
  for (std::size_t i = 0; i < pool.size(); ++i) {
    EXPECT_EQ(same.label(i), pool.label(i)) << i;
  }
}

TEST(DriftPlan, FractionalCohortsAreDeterministic) {
  robust::DriftConfig cfg;
  cfg.enabled = true;
  robust::DriftEvent e;
  e.round = 2;
  e.kind = robust::DriftKind::kDeparture;
  e.frac = 0.5;
  cfg.events.push_back(e);
  const robust::DriftPlan a(cfg, 7, 10, 4);
  const robust::DriftPlan b(cfg, 7, 10, 4);
  EXPECT_EQ(a.event_slots(0), b.event_slots(0));
  EXPECT_EQ(a.event_slots(0).size(), 5u);
  const robust::DriftPlan other_seed(cfg, 8, 10, 4);
  EXPECT_NE(a.event_slots(0), other_seed.event_slots(0));
}

TEST(DriftPlan, DepartureDeactivatesUntilArrival) {
  robust::DriftConfig cfg;
  cfg.enabled = true;
  robust::DriftEvent leave;
  leave.round = 2;
  leave.kind = robust::DriftKind::kDeparture;
  leave.slots = {1};
  robust::DriftEvent arrive;
  arrive.round = 4;
  arrive.kind = robust::DriftKind::kArrival;
  arrive.slots = {1};
  cfg.events = {leave, arrive};
  const robust::DriftPlan plan(cfg, 11, 3, 4);

  EXPECT_TRUE(plan.active(1, 1));
  EXPECT_FALSE(plan.active(2, 1));
  EXPECT_FALSE(plan.active(3, 1));
  EXPECT_TRUE(plan.active(4, 1));
  EXPECT_TRUE(plan.active(3, 0));  // other slots unaffected

  EXPECT_EQ(plan.generation(3, 1), 0u);
  EXPECT_EQ(plan.generation(4, 1), 1u);
  EXPECT_EQ(plan.departures_at(2), std::vector<std::size_t>{1});
  EXPECT_EQ(plan.arrivals_at(4), std::vector<std::size_t>{1});
  EXPECT_TRUE(plan.arrivals_at(3).empty());
}

TEST(DriftPlan, NewcomerGenerationsRotateLabels) {
  const data::Dataset pool = tiny_pool(48, 5);
  robust::DriftConfig cfg;
  cfg.enabled = true;
  robust::DriftEvent leave;
  leave.round = 2;
  leave.kind = robust::DriftKind::kDeparture;
  leave.slots = {0};
  robust::DriftEvent arrive;
  arrive.round = 3;
  arrive.kind = robust::DriftKind::kArrival;
  arrive.slots = {0};
  cfg.events = {leave, arrive};
  const robust::DriftPlan plan(cfg, 13, 2, 4);

  // The newcomer is a different client: non-identity signature, labels
  // rotated by a per-(slot, generation) draw — consistently per sample.
  EXPECT_NE(plan.transform_signature(3, 0), 0u);
  const data::Dataset fresh = plan.transform(3, 0, pool, 0);
  const std::size_t delta =
      (static_cast<std::size_t>(fresh.label(0)) + 4 -
       static_cast<std::size_t>(pool.label(0))) % 4;
  EXPECT_NE(delta, 0u);
  for (std::size_t i = 0; i < pool.size(); ++i) {
    EXPECT_EQ(fresh.label(i), (pool.label(i) + static_cast<int>(delta)) % 4);
  }

  // With rotation off the newcomer replays the slot's base shard.
  robust::DriftConfig plain = cfg;
  plain.rotate_newcomers = false;
  const robust::DriftPlan replay(plain, 13, 2, 4);
  const data::Dataset base = replay.transform(3, 0, pool, 0);
  for (std::size_t i = 0; i < pool.size(); ++i) {
    EXPECT_EQ(base.label(i), pool.label(i));
  }
}

TEST(DriftPlan, LabelShiftHitsExpectedFraction) {
  const data::Dataset pool = tiny_pool(256, 21);
  robust::DriftConfig cfg;
  cfg.enabled = true;
  robust::DriftEvent e;
  e.round = 1;
  e.kind = robust::DriftKind::kLabelShift;
  e.slots = {0};
  e.shift_frac = 1.0;
  e.target_class = 2;
  cfg.events.push_back(e);
  const robust::DriftPlan all(cfg, 3, 1, 4);
  const data::Dataset shifted = all.transform(1, 0, pool, 0);
  for (std::size_t i = 0; i < shifted.size(); ++i) {
    EXPECT_EQ(shifted.label(i), 2);
  }

  cfg.events[0].shift_frac = 0.5;
  const robust::DriftPlan half(cfg, 3, 1, 4);
  const data::Dataset a = half.transform(1, 0, pool, 0);
  const data::Dataset b = half.transform(1, 0, pool, 0);
  std::size_t moved = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.label(i), b.label(i)) << "shift draws must be deterministic";
    if (a.label(i) != pool.label(i)) ++moved;
  }
  EXPECT_GT(moved, pool.size() / 5);
  EXPECT_LT(moved, pool.size());
  // Train and test splits draw independently.
  const data::Dataset test_split = half.transform(1, 0, pool, 1);
  std::size_t differs = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a.label(i) != test_split.label(i)) ++differs;
  }
  EXPECT_GT(differs, 0u);
}

TEST(DriftPlan, ValidatesEvents) {
  robust::DriftConfig cfg;
  cfg.enabled = true;
  robust::DriftEvent e;
  e.round = 0;  // formation round is pre-drift by definition
  e.slots = {0};
  cfg.events.push_back(e);
  EXPECT_THROW(robust::DriftPlan(cfg, 1, 2, 4), Error);

  cfg.events[0].round = 1;
  cfg.events[0].rotate_by = 4;  // identity rotation mod 4 classes
  EXPECT_THROW(robust::DriftPlan(cfg, 1, 2, 4), Error);
}

// -- DriftFleet ---------------------------------------------------------------

TEST(DriftFleet, PassesThroughBeforeEventsAndCachesAfter) {
  const data::Dataset pool = tiny_pool(96, 17);
  Rng prng = Rng(17).split(3);
  const partition::Partition part = partition::grouped_label_partition(
      pool, 4, {{0, 1}, {2, 3}}, prng);
  auto inner = std::make_shared<fl::EagerFleet>(
      make_clients(pool, part, 17));
  auto plan = std::make_shared<const robust::DriftPlan>(
      rotation_at(2, {0}), 17, 4, 4);
  fl::DriftFleet fleet(inner, plan);

  fleet.set_round(1);
  // Identity transform: the inner shard is served by pointer, no copy.
  EXPECT_EQ(fleet.get(0).get(), inner->get(0).get());

  fleet.set_round(2);
  const auto first = fleet.get(0);
  EXPECT_NE(first.get(), inner->get(0).get());
  for (std::size_t i = 0; i < first->train.size(); ++i) {
    EXPECT_EQ(first->train.label(i), (inner->get(0)->train.label(i) + 2) % 4);
  }
  // Same signature → cached shard, served by pointer.
  EXPECT_EQ(fleet.get(0).get(), first.get());
  // Untouched slots stay pass-through at any round.
  EXPECT_EQ(fleet.get(1).get(), inner->get(1).get());
}

// -- DriftFederation ----------------------------------------------------------

TEST(DriftFederation, SamplingAndEvaluationHonourDeparture) {
  fl::FederationConfig cfg;
  cfg.drift.enabled = true;
  robust::DriftEvent leave;
  leave.round = 2;
  leave.kind = robust::DriftKind::kDeparture;
  leave.slots = {0};
  cfg.drift.events.push_back(leave);
  auto [fed, groups] = make_grouped_federation(6, 480, 42, cfg);

  const std::vector<std::size_t> before = fed.sample_clients(1);
  EXPECT_EQ(before.size(), 6u);
  const std::vector<std::size_t> after = fed.sample_clients(2);
  ASSERT_EQ(after.size(), 5u);
  for (const std::size_t c : after) EXPECT_NE(c, 0u);

  EXPECT_TRUE(fed.client_active(1, 0));
  EXPECT_FALSE(fed.client_active(2, 0));

  // Departed clients are NaN in per_client and excluded from the mean.
  fed.drift_advance(2);
  const std::vector<float> w = fed.template_model().flat_weights();
  const fl::AccuracySummary acc =
      fed.evaluate_personalized([&](std::size_t) {
        return std::span<const float>(w);
      });
  ASSERT_EQ(acc.per_client.size(), 6u);
  EXPECT_TRUE(std::isnan(acc.per_client[0]));
  double mean = 0.0;
  for (std::size_t i = 1; i < 6; ++i) mean += acc.per_client[i];
  EXPECT_DOUBLE_EQ(acc.mean, mean / 5.0);
}

TEST(DriftFederation, NewcomerDoesNotInheritStrikes) {
  fl::FederationConfig cfg;
  cfg.robust.validate.enabled = true;
  cfg.robust.validate.max_strikes = 2;
  cfg.drift.enabled = true;
  robust::DriftEvent leave;
  leave.round = 1;
  leave.kind = robust::DriftKind::kDeparture;
  leave.slots = {2};
  robust::DriftEvent arrive;
  arrive.round = 2;
  arrive.kind = robust::DriftKind::kArrival;
  arrive.slots = {2};
  cfg.drift.events = {leave, arrive};
  auto [fed, groups] = make_grouped_federation(6, 480, 42, cfg);

  fed.quarantine().strike(2);
  fed.quarantine().strike(2);
  ASSERT_TRUE(fed.quarantine().quarantined(2));

  // Advancing over the arrival wipes the departed tenant's ledger.
  fed.drift_advance(2);
  EXPECT_FALSE(fed.quarantine().quarantined(2));
  EXPECT_EQ(fed.quarantine().strikes(2), 0u);
}

TEST(DriftFederation, DepartedClusterDoesNotWedgeTheRun) {
  // Group 1's entire membership departs mid-run: its cluster simply
  // stops training and the run completes with finite metrics.
  fl::FederationConfig cfg;
  cfg.drift.enabled = true;
  auto [probe, probe_groups] = make_grouped_federation(6, 480, 42);
  std::vector<std::size_t> group1;
  for (std::size_t i = 0; i < probe_groups.size(); ++i) {
    if (probe_groups[i] == 1) group1.push_back(i);
  }
  ASSERT_FALSE(group1.empty());
  robust::DriftEvent leave;
  leave.round = 3;
  leave.kind = robust::DriftKind::kDeparture;
  leave.slots = group1;
  cfg.drift.events.push_back(leave);

  auto [fed, groups] = make_grouped_federation(6, 480, 42, cfg);
  core::FedClust algo{core::FedClustConfig{}};
  const fl::RunResult result = algo.run(fed, 6);
  EXPECT_TRUE(std::isfinite(result.final_accuracy.mean));
  EXPECT_GT(result.final_accuracy.mean, 0.0);
}

// -- DriftDetector ------------------------------------------------------------

TEST(DriftDetector, ConstantSeriesNeverAlarms) {
  fl::DriftDetector det(fl::DriftDetectorConfig{});
  det.start(2);
  for (std::size_t r = 1; r <= 20; ++r) {
    EXPECT_TRUE(det.observe(r, {0.8, 0.6}).empty()) << r;
  }
  EXPECT_EQ(det.last_score(), 0.0);
}

TEST(DriftDetector, SustainedDropAlarmsAfterHysteresis) {
  fl::DriftDetectorConfig cfg;
  cfg.window = 4;
  cfg.drop_threshold = 0.1;
  cfg.hysteresis = 2;
  fl::DriftDetector det(cfg);
  det.start(1);
  for (std::size_t r = 1; r <= 4; ++r) {
    EXPECT_TRUE(det.observe(r, {0.8}).empty());
  }
  // Window [.8 .8 .8 .4]: drop 0.8 - 0.6 = 0.2 — first breach, held by
  // hysteresis.
  EXPECT_TRUE(det.observe(5, {0.4}).empty());
  EXPECT_DOUBLE_EQ(det.last_score(), 0.2);
  // Window [.8 .8 .4 .4]: second consecutive breach → alarm.
  const std::vector<fl::DriftAlarm> alarms = det.observe(6, {0.4});
  ASSERT_EQ(alarms.size(), 1u);
  EXPECT_EQ(alarms[0].cluster, 0u);
  EXPECT_EQ(alarms[0].round, 6u);
  EXPECT_DOUBLE_EQ(alarms[0].drop, 0.4);

  // The ledger recorded both breaches and the alarm.
  std::size_t breaches = 0, fired = 0;
  for (const fl::DriftLogEntry& e : det.log()) {
    breaches += e.kind == fl::DriftLogKind::kBreach ? 1 : 0;
    fired += e.kind == fl::DriftLogKind::kAlarm ? 1 : 0;
  }
  EXPECT_EQ(breaches, 2u);
  EXPECT_EQ(fired, 1u);
}

TEST(DriftDetector, CooldownHoldsOffAfterReset) {
  fl::DriftDetectorConfig cfg;
  cfg.window = 2;
  cfg.drop_threshold = 0.1;
  cfg.hysteresis = 1;
  cfg.cooldown = 2;
  fl::DriftDetector det(cfg);
  det.start(1);
  det.reset(3, 1);
  // Two held-off observations, then the window must refill (window 2)
  // before a drop can test — the third observe seeds, the fourth tests.
  EXPECT_TRUE(det.observe(4, {0.9}).empty());
  EXPECT_TRUE(det.observe(5, {0.2}).empty());
  EXPECT_TRUE(det.observe(6, {0.9}).empty());
  const std::vector<fl::DriftAlarm> alarms = det.observe(7, {0.2});
  ASSERT_EQ(alarms.size(), 1u);
  EXPECT_EQ(alarms[0].round, 7u);
}

TEST(DriftDetector, NanFreezesTheWindow) {
  fl::DriftDetectorConfig cfg;
  cfg.window = 2;
  cfg.drop_threshold = 0.1;
  cfg.hysteresis = 1;
  fl::DriftDetector det(cfg);
  det.start(2);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  det.observe(1, {0.9, nan});
  det.observe(2, {0.9, nan});
  // Cluster 1 never accumulated: a real observation now is its first.
  det.observe(3, {0.9, 0.9});
  const std::vector<fl::DriftAlarm> alarms = det.observe(4, {0.9, 0.1});
  ASSERT_EQ(alarms.size(), 1u);
  EXPECT_EQ(alarms[0].cluster, 1u);
}

TEST(DriftDetector, SnapshotRestoreContinuesIdentically) {
  fl::DriftDetectorConfig cfg;
  cfg.window = 4;
  cfg.drop_threshold = 0.1;
  cfg.hysteresis = 2;
  fl::DriftDetector a(cfg);
  a.start(2);
  for (std::size_t r = 1; r <= 5; ++r) {
    a.observe(r, {0.8, 0.7 - 0.05 * static_cast<double>(r)});
  }
  const robust::DriftSnapshot snap = a.snapshot(3);
  EXPECT_TRUE(snap.present);
  EXPECT_EQ(snap.recoveries, 3u);

  fl::DriftDetector b(cfg);
  b.restore(snap);
  for (std::size_t r = 6; r <= 9; ++r) {
    const auto va = a.observe(r, {0.8, 0.2});
    const auto vb = b.observe(r, {0.8, 0.2});
    ASSERT_EQ(va.size(), vb.size()) << r;
    EXPECT_EQ(a.last_score(), b.last_score()) << r;
  }
}

// -- DriftDynamic (recluster unit) --------------------------------------------

TEST(DriftDynamic, SoftMembershipsHandComputed) {
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> w =
      cluster::soft_memberships({0.0, 2.0, inf}, 1.0);
  ASSERT_EQ(w.size(), 3u);
  EXPECT_DOUBLE_EQ(w[0], 1.0);
  EXPECT_DOUBLE_EQ(w[1], std::exp(-2.0));
  EXPECT_DOUBLE_EQ(w[2], 0.0);
}

TEST(DriftDynamic, ReclusterMovesMigratedMember) {
  // Client 2 sits in cluster 0 but its refreshed anchor is on top of
  // cluster 1: the soft-membership stage must move it.
  const std::vector<std::vector<float>> anchors{
      {0.0f}, {0.2f}, {10.0f}, {10.1f}, {9.9f}};
  const std::vector<std::size_t> labels{0, 0, 0, 1, 1};
  cluster::ReclusterConfig cfg;
  cfg.threshold = 0.0;  // no split stage
  const cluster::ReclusterResult r = cluster::recluster(
      anchors, labels, {0}, std::vector<std::uint8_t>(5, 1), cfg);
  EXPECT_EQ(r.moved, 1u);
  EXPECT_EQ(r.labels, (std::vector<std::size_t>{0, 0, 1, 1, 1}));
  EXPECT_EQ(r.parent, (std::vector<std::size_t>{0, 1}));
}

TEST(DriftDynamic, ReclusterSplitsForkedCluster) {
  // Cluster 0 forked into two far modes; cluster 1 is a distant third
  // mode so the Gaussian stage keeps everyone home and the dendrogram
  // split separates the fork.
  const std::vector<std::vector<float>> anchors{
      {0.0f}, {0.2f}, {30.0f}, {30.2f}, {100.0f}, {100.2f}};
  const std::vector<std::size_t> labels{0, 0, 0, 0, 1, 1};
  cluster::ReclusterConfig cfg;
  cfg.threshold = 5.0;
  cfg.reassign_margin = 4.0;  // sticky: reassignment stays put
  const cluster::ReclusterResult r = cluster::recluster(
      anchors, labels, {0}, std::vector<std::uint8_t>(6, 1), cfg);
  EXPECT_EQ(r.splits, 1u);
  EXPECT_EQ(r.labels[0], r.labels[1]);
  EXPECT_EQ(r.labels[2], r.labels[3]);
  EXPECT_NE(r.labels[0], r.labels[2]);
  EXPECT_EQ(r.labels[4], r.labels[5]);
  // Three clusters out; the split sibling inherits cluster 0's model.
  ASSERT_EQ(r.parent.size(), 3u);
  EXPECT_EQ(r.parent[r.labels[2]], 0u);
}

TEST(DriftDynamic, ReclusterDrainsEmptiedClusters) {
  // Both members of flagged cluster 0 sit far from each other but close
  // to cluster 1's tight pair, so both migrate; the remaining slot is
  // departed, so cluster 0 drains and ids stay consecutive.
  const std::vector<std::vector<float>> anchors{
      {9.9f}, {10.3f}, {}, {10.1f}, {10.1f}};
  const std::vector<std::size_t> labels{0, 0, 0, 1, 1};
  const std::vector<std::uint8_t> active{1, 1, 0, 1, 1};
  cluster::ReclusterConfig cfg;
  cfg.threshold = 0.0;
  const cluster::ReclusterResult r =
      cluster::recluster(anchors, labels, {0}, active, cfg);
  EXPECT_EQ(r.moved, 2u);
  EXPECT_EQ(r.drained, 1u);
  ASSERT_EQ(r.parent.size(), 1u);
  EXPECT_EQ(r.parent[0], 1u);  // the surviving cluster keeps model 1
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(r.labels[i], 0u) << i;
}

// -- DriftRecovery (end to end) -----------------------------------------------

/// Half of group 0 rotates its labels by 2 at `drift_round`: the static
/// cluster-0 model then averages two conflicting input→label mappings
/// forever, while the dynamic run can split the cluster and recover.
struct DriftScenario {
  fl::FederationConfig federation;
  std::vector<std::size_t> drifted;
};

DriftScenario half_group_rotation(std::size_t drift_round) {
  auto [probe, groups] = make_grouped_federation(8, 640, 42);
  std::vector<std::size_t> group0;
  for (std::size_t i = 0; i < groups.size(); ++i) {
    if (groups[i] == 0) group0.push_back(i);
  }
  const std::vector<std::size_t> drifted(group0.begin(),
                                         group0.begin() + group0.size() / 2);
  fl::FederationConfig cfg;
  cfg.local.epochs = 2;
  cfg.local.sgd.lr = 0.05;  // converge well before the drift hits
  cfg.drift = rotation_at(drift_round, drifted);
  return {cfg, drifted};
}

core::FedClustConfig dynamic_config() {
  core::FedClustConfig algo;
  algo.dynamic.enabled = true;
  algo.dynamic.detector.window = 4;
  algo.dynamic.detector.drop_threshold = 0.08;
  algo.dynamic.detector.hysteresis = 2;
  algo.dynamic.detector.cooldown = 2;
  algo.dynamic.max_recoveries = 2;
  return algo;
}

TEST(DriftRecovery, DynamicOutperformsStaticAfterDrift) {
  const DriftScenario scenario = half_group_rotation(/*drift_round=*/5);
  constexpr std::size_t kRounds = 18;

  auto run_with = [&](const core::FedClustConfig& algo_cfg) {
    auto [fed, groups] =
        make_grouped_federation(8, 640, 42, scenario.federation);
    core::FedClust algo{algo_cfg};
    return algo.run(fed, kRounds);
  };
  const fl::RunResult dynamic = run_with(dynamic_config());
  const fl::RunResult statik = run_with(core::FedClustConfig{});

  // The dynamic run detected the drift and re-clustered at least once.
  std::size_t alarms = 0, reclusters = 0;
  for (const fl::RoundMetrics& m : dynamic.rounds) {
    alarms += m.drift_alarms;
    reclusters += m.reclusters;
  }
  EXPECT_GE(alarms, 1u);
  EXPECT_GE(reclusters, 1u);
  for (const fl::RoundMetrics& m : statik.rounds) {
    EXPECT_EQ(m.drift_alarms, 0u);
    EXPECT_EQ(m.reclusters, 0u);
  }

  // Recovery: the dynamic run ends clearly above the static one.
  EXPECT_GT(dynamic.final_accuracy.mean,
            statik.final_accuracy.mean + 0.02)
      << "dynamic " << dynamic.final_accuracy.mean << " vs static "
      << statik.final_accuracy.mean;
}

// -- DriftDeterminism ---------------------------------------------------------

TEST(DriftDeterminism, BitIdenticalAcrossKernelThreads) {
  const DriftScenario scenario = half_group_rotation(4);
  auto run_with = [&](std::size_t kernel_threads) {
    fl::FederationConfig cfg = scenario.federation;
    cfg.kernel_threads = kernel_threads;
    auto [fed, groups] = make_grouped_federation(8, 640, 42, cfg);
    core::FedClust algo{dynamic_config()};
    return algo.run(fed, 12);
  };
  const fl::RunResult a = run_with(0);
  const fl::RunResult b = run_with(2);
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t i = 0; i < a.rounds.size(); ++i) {
    EXPECT_EQ(a.rounds[i].weights_fp, b.rounds[i].weights_fp) << i;
    EXPECT_EQ(a.rounds[i].drift_alarms, b.rounds[i].drift_alarms) << i;
    EXPECT_EQ(a.rounds[i].reclusters, b.rounds[i].reclusters) << i;
  }
  EXPECT_EQ(a.cluster_labels, b.cluster_labels);
}

// -- DriftResume --------------------------------------------------------------

TEST(DriftResume, KillResumeIsBitIdenticalMidDrift) {
  const std::string path = "/tmp/fedclust_drift_resume_test.ckpt";
  std::remove(path.c_str());
  constexpr std::size_t kRounds = 16;

  DriftScenario scenario = half_group_rotation(4);
  // Add churn on a group-1 slot: departure before the checkpoint,
  // arrival after it, so resume replays a newcomer admission.
  auto [probe, groups] = make_grouped_federation(8, 640, 42);
  std::size_t g1 = 0;
  while (groups[g1] != 1) ++g1;
  robust::DriftEvent leave;
  leave.round = 6;
  leave.kind = robust::DriftKind::kDeparture;
  leave.slots = {g1};
  robust::DriftEvent arrive;
  arrive.round = 13;
  arrive.kind = robust::DriftKind::kArrival;
  arrive.slots = {g1};
  scenario.federation.drift.events.push_back(leave);
  scenario.federation.drift.events.push_back(arrive);

  core::FedClustConfig algo_cfg = dynamic_config();
  algo_cfg.checkpoint_every = 6;
  algo_cfg.checkpoint_path = path;

  auto make_fed = [&]() {
    return make_grouped_federation(8, 640, 42, scenario.federation);
  };
  fl::RunResult ref;
  {
    auto [fed, g] = make_fed();
    core::FedClust algo{algo_cfg};
    ref = algo.run(fed, kRounds);
  }
  const robust::RunCheckpoint ck = robust::load_checkpoint(path);
  EXPECT_EQ(ck.next_round, 13u);  // last write after round 12
  EXPECT_TRUE(ck.drift.present);
  {
    auto [fed, g] = make_fed();
    core::FedClust algo{algo_cfg};
    const fl::RunResult resumed = algo.resume(fed, ck, kRounds);
    ASSERT_EQ(ref.rounds.size(), resumed.rounds.size());
    for (std::size_t i = 0; i < ref.rounds.size(); ++i) {
      EXPECT_EQ(ref.rounds[i].round, resumed.rounds[i].round) << i;
      EXPECT_EQ(ref.rounds[i].weights_fp, resumed.rounds[i].weights_fp) << i;
      EXPECT_EQ(ref.rounds[i].acc_mean, resumed.rounds[i].acc_mean) << i;
      EXPECT_EQ(ref.rounds[i].drift_score, resumed.rounds[i].drift_score)
          << i;
      EXPECT_EQ(ref.rounds[i].drift_alarms, resumed.rounds[i].drift_alarms)
          << i;
      EXPECT_EQ(ref.rounds[i].reclusters, resumed.rounds[i].reclusters) << i;
    }
    EXPECT_EQ(ref.cluster_labels, resumed.cluster_labels);
  }
  std::remove(path.c_str());
}

TEST(DriftResume, CheckpointV3RoundTripsDriftBlock) {
  const std::string path = "/tmp/fedclust_drift_ckpt_test.ckpt";
  std::remove(path.c_str());
  robust::RunCheckpoint ck;
  ck.next_round = 7;
  ck.seed = 99;
  ck.labels = {0, 1, 1};
  ck.cluster_weights = {{1.0f, 2.0f}, {3.0f, 4.0f}};
  ck.partial_weights = {{0.5f}, {}, {0.25f}};
  ck.rounds.push_back(robust::RoundRecord{.round = 6,
                                          .acc_mean = 0.5,
                                          .drift_score = 0.125,
                                          .drift_alarms = 2,
                                          .reclusters = 1});
  ck.drift.present = true;
  ck.drift.recoveries = 2;
  ck.drift.cooldown = 1;
  ck.drift.threshold = 0.75;
  ck.drift.streaks = {0, 3};
  ck.drift.windows = {{0.9, 0.8}, {0.7}};
  robust::save_checkpoint(ck, path);
  const robust::RunCheckpoint back = robust::load_checkpoint(path);
  EXPECT_TRUE(back.drift.present);
  EXPECT_EQ(back.drift.recoveries, 2u);
  EXPECT_EQ(back.drift.cooldown, 1u);
  EXPECT_EQ(back.drift.threshold, 0.75);
  EXPECT_EQ(back.drift.streaks, ck.drift.streaks);
  EXPECT_EQ(back.drift.windows, ck.drift.windows);
  ASSERT_EQ(back.rounds.size(), 1u);
  EXPECT_EQ(back.rounds[0].drift_score, 0.125);
  EXPECT_EQ(back.rounds[0].drift_alarms, 2u);
  EXPECT_EQ(back.rounds[0].reclusters, 1u);
  std::remove(path.c_str());
}

// -- DriftServe ---------------------------------------------------------------

TEST(DriftServe, RegistryHotReloadsReclusteredCheckpoint) {
  const DriftScenario scenario = half_group_rotation(4);
  auto [fed, groups] = make_grouped_federation(8, 640, 42, scenario.federation);
  core::FedClust algo{dynamic_config()};
  const fl::RunResult result = algo.run(fed, 14);

  // First snapshot from the live run result.
  serve::ModelRegistry registry;
  ASSERT_TRUE(algo.last_clustering().has_value());
  registry.publish(serve::freeze(fed.template_model(), result,
                                 *algo.last_clustering()));
  EXPECT_EQ(registry.version(), 1u);
  const auto before = registry.snapshot();

  // Reload from a checkpoint carrying the re-clustered partition.
  robust::RunCheckpoint ck;
  ck.labels.assign(result.cluster_labels.begin(),
                   result.cluster_labels.end());
  ck.cluster_weights = result.cluster_weights;
  ck.partial_weights = algo.last_clustering()->partial_weights;
  const std::uint64_t v =
      registry.reload_checkpoint(fed.template_model(), ck);
  EXPECT_EQ(v, 2u);
  const auto after = registry.snapshot();
  EXPECT_EQ(after->num_clusters(), result.cluster_weights.size());
  // The pre-reload snapshot is still alive for in-flight requests.
  EXPECT_EQ(before->version, 1u);
}

}  // namespace
}  // namespace fedclust
