// Tests for the robustness layer: CRC32, the deterministic fault plan,
// payload corruption, server-side screening + quarantine, robust
// aggregation rules, and crash-recoverable checkpoints.
#include "robust/fault.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <vector>

#include "fl/federation.hpp"
#include "robust/aggregate.hpp"
#include "robust/checkpoint.hpp"
#include "robust/validate.hpp"
#include "tensor/kernels.hpp"
#include "test_helpers.hpp"
#include "utils/crc32.hpp"

namespace fedclust::robust {
namespace {

using fedclust::testing::make_grouped_federation;

// -- CRC32 --------------------------------------------------------------------

TEST(Crc32, MatchesZlibKnownVector) {
  // The canonical IEEE 802.3 check value.
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32("", 0), 0u);
}

TEST(Crc32, ChainsAcrossSplitBuffers) {
  const std::uint32_t whole = crc32("123456789", 9);
  const std::uint32_t part = crc32("123", 3);
  EXPECT_EQ(crc32("456789", 6, part), whole);
}

TEST(Crc32, DetectsSingleBitFlip) {
  std::vector<std::uint8_t> buf(64, 0xA5);
  const std::uint32_t clean = crc32(buf.data(), buf.size());
  buf[17] ^= 0x04;
  EXPECT_NE(crc32(buf.data(), buf.size()), clean);
}

// -- fault plan ---------------------------------------------------------------

FaultConfig churn_config() {
  FaultConfig cfg;
  cfg.enabled = true;
  cfg.crash_prob = 0.2;
  cfg.stale_prob = 0.1;
  cfg.nan_prob = 0.1;
  cfg.sign_flip_prob = 0.1;
  cfg.scale_prob = 0.1;
  return cfg;
}

TEST(FaultPlan, DecisionsAreDeterministic) {
  const FaultPlan a(churn_config(), 42);
  const FaultPlan b(churn_config(), 42);
  for (std::size_t r = 0; r < 20; ++r) {
    for (std::size_t c = 0; c < 8; ++c) {
      EXPECT_EQ(a.decide(r, c), b.decide(r, c));
      EXPECT_EQ(a.decide(r, c), a.decide(r, c));  // pure function
    }
  }
}

TEST(FaultPlan, DisabledNeverFires) {
  FaultConfig cfg = churn_config();
  cfg.enabled = false;
  const FaultPlan plan(cfg, 42);
  for (std::size_t r = 0; r < 50; ++r) {
    for (std::size_t c = 0; c < 8; ++c) {
      EXPECT_EQ(plan.decide(r, c), FaultKind::kNone);
    }
  }
}

TEST(FaultPlan, StartRoundSparesEarlierRounds) {
  FaultConfig cfg;
  cfg.enabled = true;
  cfg.crash_prob = 1.0;
  cfg.start_round = 3;
  const FaultPlan plan(cfg, 42);
  EXPECT_EQ(plan.decide(0, 0), FaultKind::kNone);
  EXPECT_EQ(plan.decide(2, 0), FaultKind::kNone);
  EXPECT_EQ(plan.decide(3, 0), FaultKind::kCrash);
}

TEST(FaultPlan, ByzantineCohortAlwaysSignFlips) {
  FaultConfig cfg;
  cfg.enabled = true;
  cfg.byzantine_clients = {1, 4};
  const FaultPlan plan(cfg, 42);
  for (std::size_t r = 0; r < 10; ++r) {
    EXPECT_EQ(plan.decide(r, 1), FaultKind::kSignFlip);
    EXPECT_EQ(plan.decide(r, 4), FaultKind::kSignFlip);
    EXPECT_EQ(plan.decide(r, 0), FaultKind::kNone);  // no prob faults set
  }
  EXPECT_TRUE(plan.is_byzantine(4));
  EXPECT_FALSE(plan.is_byzantine(0));
}

TEST(FaultPlan, AttemptsDrawIndependently) {
  // A client crashing on attempt 0 must get a fresh draw on attempt 1:
  // with crash_prob 0.5, retries succeed for some (round, client).
  FaultConfig cfg;
  cfg.enabled = true;
  cfg.crash_prob = 0.5;
  const FaultPlan plan(cfg, 42);
  bool differs = false;
  for (std::size_t r = 0; r < 30 && !differs; ++r) {
    for (std::size_t c = 0; c < 8 && !differs; ++c) {
      differs = plan.decide(r, c, 0) != plan.decide(r, c, 1);
    }
  }
  EXPECT_TRUE(differs);
}

TEST(FaultPlan, FrequenciesTrackProbabilities) {
  FaultConfig cfg;
  cfg.enabled = true;
  cfg.crash_prob = 0.3;
  const FaultPlan plan(cfg, 7);
  std::size_t crashes = 0;
  constexpr std::size_t kTrials = 4000;
  for (std::size_t r = 0; r < kTrials / 8; ++r) {
    for (std::size_t c = 0; c < 8; ++c) {
      if (plan.decide(r, c) == FaultKind::kCrash) ++crashes;
    }
  }
  EXPECT_NEAR(static_cast<double>(crashes) / kTrials, 0.3, 0.05);
}

TEST(FaultPlan, ValidatesProbabilities) {
  FaultConfig bad = churn_config();
  bad.crash_prob = -0.1;
  EXPECT_THROW(FaultPlan(bad, 42), Error);
  bad = churn_config();
  bad.crash_prob = 0.9;  // total 1.3
  EXPECT_THROW(FaultPlan(bad, 42), Error);
  bad = churn_config();
  bad.poison_frac = 0.0;
  EXPECT_THROW(FaultPlan(bad, 42), Error);
}

// -- payload corruption -------------------------------------------------------

TEST(PayloadFault, SignFlipReflectsAboutStart) {
  const std::vector<float> start{1.0f, -2.0f, 0.5f};
  std::vector<float> w{2.0f, -1.0f, 0.0f};
  apply_payload_fault(FaultKind::kSignFlip, {}, start, w, Rng(1));
  EXPECT_FLOAT_EQ(w[0], 0.0f);   // 2*1 - 2
  EXPECT_FLOAT_EQ(w[1], -3.0f);  // 2*(-2) - (-1)
  EXPECT_FLOAT_EQ(w[2], 1.0f);   // 2*0.5 - 0
}

TEST(PayloadFault, AmplifiedSignFlipScalesTheReflection) {
  FaultConfig cfg;
  cfg.sign_flip_scale = 4.0;
  const std::vector<float> start{1.0f};
  std::vector<float> w{2.0f};
  apply_payload_fault(FaultKind::kSignFlip, cfg, start, w, Rng(1));
  EXPECT_FLOAT_EQ(w[0], -3.0f);  // 1 - 4*(2-1)
  FaultConfig bad;
  bad.enabled = true;
  bad.sign_flip_scale = 0.0;
  EXPECT_THROW(FaultPlan(bad, 42), Error);
}

TEST(PayloadFault, ScaleBlowupScalesDelta) {
  FaultConfig cfg;
  cfg.blowup_factor = 10.0;
  const std::vector<float> start{1.0f, 1.0f};
  std::vector<float> w{2.0f, 0.0f};
  apply_payload_fault(FaultKind::kScaleBlowup, cfg, start, w, Rng(1));
  EXPECT_FLOAT_EQ(w[0], 11.0f);  // 1 + 10*(2-1)
  EXPECT_FLOAT_EQ(w[1], -9.0f);  // 1 + 10*(0-1)
}

TEST(PayloadFault, NanPoisonCorruptsExpectedCount) {
  FaultConfig cfg;
  cfg.poison_frac = 0.05;
  std::vector<float> w(200, 1.0f);
  const std::vector<float> start(200, 0.0f);
  apply_payload_fault(FaultKind::kNanPoison, cfg, start, w, Rng(3));
  std::size_t bad = 0;
  for (float v : w) {
    if (!std::isfinite(v)) ++bad;
  }
  // floor(0.05 * 200) = 10 draws; duplicates can only lower the count.
  EXPECT_GE(bad, 1u);
  EXPECT_LE(bad, 10u);
}

TEST(PayloadFault, BenignKindsLeavePayloadUntouched) {
  const std::vector<float> start{1.0f, 2.0f};
  for (const FaultKind k :
       {FaultKind::kNone, FaultKind::kCrash, FaultKind::kStaleReplay}) {
    std::vector<float> w{3.0f, 4.0f};
    apply_payload_fault(k, {}, start, w, Rng(1));
    EXPECT_EQ(w, (std::vector<float>{3.0f, 4.0f}));
  }
}

// -- screening + quarantine ---------------------------------------------------

ValidationPolicy strict_policy() {
  ValidationPolicy p;
  p.enabled = true;
  p.envelope_factor = 3.0;
  p.min_envelope = 1e-6;
  return p;
}

/// Builds a screening batch of `n` honest clients whose deltas have norm
/// ~1, plus whatever the test mutates afterwards.
struct Batch {
  std::vector<std::vector<float>> starts;
  std::vector<std::vector<float>> updates;
  std::vector<std::size_t> clients;

  std::vector<Verdict> screen(const ValidationPolicy& p,
                              std::size_t dim = 4) const {
    std::vector<std::span<const float>> u(updates.begin(), updates.end());
    std::vector<std::span<const float>> s(starts.begin(), starts.end());
    return screen_updates(u, s, clients, dim, p);
  }
};

Batch honest_batch(std::size_t n) {
  Batch b;
  for (std::size_t i = 0; i < n; ++i) {
    b.starts.push_back({0.0f, 0.0f, 0.0f, 0.0f});
    b.updates.push_back({1.0f, 0.0f, 0.0f, 0.0f});  // delta norm 1
    b.clients.push_back(i);
  }
  return b;
}

TEST(Screening, AcceptsHonestCohort) {
  const Batch b = honest_batch(5);
  for (const Verdict& v : b.screen(strict_policy())) {
    EXPECT_TRUE(v.accepted());
    EXPECT_NEAR(v.delta_norm, 1.0, 1e-6);
  }
}

TEST(Screening, RejectsBadShape) {
  Batch b = honest_batch(3);
  b.updates[1] = {1.0f, 2.0f};  // wrong dimension
  const auto verdicts = b.screen(strict_policy());
  EXPECT_EQ(verdicts[1].reason, RejectReason::kBadShape);
  EXPECT_TRUE(verdicts[0].accepted());
  EXPECT_TRUE(verdicts[2].accepted());
}

TEST(Screening, RejectsNonFinite) {
  Batch b = honest_batch(4);
  b.updates[2][1] = std::numeric_limits<float>::quiet_NaN();
  b.updates[3][0] = std::numeric_limits<float>::infinity();
  const auto verdicts = b.screen(strict_policy());
  EXPECT_EQ(verdicts[2].reason, RejectReason::kNonFinite);
  EXPECT_EQ(verdicts[3].reason, RejectReason::kNonFinite);
}

TEST(Screening, RejectsNormEnvelopeOutlier) {
  Batch b = honest_batch(5);
  b.updates[4] = {100.0f, 0.0f, 0.0f, 0.0f};  // 100x the honest norm
  const auto verdicts = b.screen(strict_policy());
  EXPECT_EQ(verdicts[4].reason, RejectReason::kNormEnvelope);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(verdicts[i].accepted()) << i;
  }
}

TEST(Screening, EnvelopeNeedsAMajorityCohort) {
  // With only two arrivals the median is not a trustworthy notion of
  // "normal", so the envelope must not fire.
  Batch b = honest_batch(2);
  b.updates[1] = {100.0f, 0.0f, 0.0f, 0.0f};
  for (const Verdict& v : b.screen(strict_policy())) {
    EXPECT_TRUE(v.accepted());
  }
}

TEST(Screening, ZeroEnvelopeFactorDisablesOnlyTheNormCheck) {
  // screen_updates is a pure screener — the `enabled` gate lives in the
  // engine. envelope_factor <= 0 turns off the norm envelope, but shape
  // and finite checks always run.
  Batch b = honest_batch(5);
  b.updates[0][0] = std::numeric_limits<float>::quiet_NaN();
  b.updates[4] = {100.0f, 0.0f, 0.0f, 0.0f};
  ValidationPolicy p = strict_policy();
  p.envelope_factor = 0.0;
  const auto verdicts = b.screen(p);
  EXPECT_EQ(verdicts[0].reason, RejectReason::kNonFinite);
  EXPECT_TRUE(verdicts[4].accepted());  // outlier passes without envelope
}

TEST(Quarantine, StrikesAccumulateToExclusion) {
  Quarantine q(2);
  EXPECT_FALSE(q.strike(3));  // strike 1 of 2
  EXPECT_FALSE(q.quarantined(3));
  EXPECT_TRUE(q.strike(3));  // strike 2 tips it
  EXPECT_TRUE(q.quarantined(3));
  EXPECT_EQ(q.strikes(3), 2u);
  EXPECT_EQ(q.strikes(0), 0u);
  q.strike(1);
  q.strike(1);
  EXPECT_EQ(q.quarantined_clients(), (std::vector<std::size_t>{1, 3}));
  EXPECT_EQ(q.total_strikes(), 4u);
}

TEST(Quarantine, RestoreRoundTripsState) {
  Quarantine q(2);
  q.strike(0);
  q.strike(2);
  q.strike(2);
  Quarantine r;
  r.restore(q.strike_counts(), q.max_strikes());
  EXPECT_EQ(r.quarantined_clients(), q.quarantined_clients());
  EXPECT_EQ(r.strikes(0), 1u);
  EXPECT_EQ(r.total_strikes(), 3u);
}

// -- robust aggregation -------------------------------------------------------

std::vector<std::span<const float>> as_spans(
    const std::vector<std::vector<float>>& v) {
  return {v.begin(), v.end()};
}

TEST(RobustAggregate, TrimmedMeanDropsOutliers) {
  const std::vector<std::vector<float>> inputs{
      {1.0f, -100.0f}, {2.0f, 1.0f}, {3.0f, 2.0f}, {4.0f, 3.0f},
      {100.0f, 4.0f}};
  RobustConfig cfg;
  cfg.trim_frac = 0.2;  // drop 1 from each side of 5
  const std::vector<double> coeffs(5, 0.2);
  const auto out =
      robust_aggregate(as_spans(inputs), coeffs, AggregationRule::kTrimmedMean,
                       cfg, {}, nullptr);
  EXPECT_FLOAT_EQ(out[0], 3.0f);  // mean of {2,3,4}
  EXPECT_FLOAT_EQ(out[1], 2.0f);  // mean of {1,2,3}
}

TEST(RobustAggregate, CoordinateMedianOddAndEven) {
  const std::vector<std::vector<float>> odd{{1.0f}, {5.0f}, {100.0f}};
  const std::vector<std::vector<float>> even{{1.0f}, {2.0f}, {4.0f}, {8.0f}};
  RobustConfig cfg;
  const auto m3 = robust_aggregate(as_spans(odd), {1, 1, 1},
                                   AggregationRule::kCoordinateMedian, cfg, {},
                                   nullptr);
  EXPECT_FLOAT_EQ(m3[0], 5.0f);
  const auto m4 = robust_aggregate(as_spans(even), {1, 1, 1, 1},
                                   AggregationRule::kCoordinateMedian, cfg, {},
                                   nullptr);
  EXPECT_FLOAT_EQ(m4[0], 3.0f);  // midpoint of 2 and 4
}

TEST(RobustAggregate, NormClipBoundsTheBlowup) {
  // Two honest unit deltas and a 100x blow-up about reference 0: the
  // outlier is clipped to the median norm (1), so the weighted mean of
  // the clipped updates is exactly 1.
  const std::vector<std::vector<float>> inputs{{1.0f}, {1.0f}, {100.0f}};
  RobustConfig cfg;
  cfg.clip_factor = 1.0;
  const std::vector<float> reference{0.0f};
  const std::vector<double> coeffs{1.0 / 3, 1.0 / 3, 1.0 / 3};
  const auto out =
      robust_aggregate(as_spans(inputs), coeffs, AggregationRule::kNormClip,
                       cfg, reference, nullptr);
  EXPECT_NEAR(out[0], 1.0f, 1e-6);
}

TEST(RobustAggregate, BitIdenticalAcrossPoolSizes) {
  // Large enough to cross the chunking threshold so the parallel path
  // actually engages.
  constexpr std::size_t kDim = 1 << 15;
  Rng rng(11);
  std::vector<std::vector<float>> inputs(5, std::vector<float>(kDim));
  for (auto& v : inputs) {
    for (float& x : v) x = static_cast<float>(rng.normal());
  }
  const std::vector<double> coeffs(5, 0.2);
  std::vector<float> reference(kDim, 0.0f);
  RobustConfig cfg;
  ThreadPool one(1), four(4);
  for (const AggregationRule rule :
       {AggregationRule::kTrimmedMean, AggregationRule::kCoordinateMedian,
        AggregationRule::kNormClip}) {
    const auto serial = robust_aggregate(as_spans(inputs), coeffs, rule, cfg,
                                         reference, nullptr);
    EXPECT_EQ(serial, robust_aggregate(as_spans(inputs), coeffs, rule, cfg,
                                       reference, &one))
        << to_string(rule);
    EXPECT_EQ(serial, robust_aggregate(as_spans(inputs), coeffs, rule, cfg,
                                       reference, &four))
        << to_string(rule);
  }
}

TEST(RobustAggregate, SparseTrimmedMeanSkipsNonParticipants) {
  // Reference fill {10, 20}. Coordinate 0: updates {1, 2, 3, 100, 10}
  // — the last equals the fill, so only four participate; trim_frac
  // 0.25 drops 1 from each side → mean of {2, 3}. Coordinate 1: only
  // one update moved it, floor(0.25·1) = 0 trimmed → its value alone.
  const std::vector<std::vector<float>> inputs{{1.0f, 20.0f},
                                               {2.0f, 20.0f},
                                               {3.0f, 7.0f},
                                               {100.0f, 20.0f},
                                               {10.0f, 20.0f}};
  const std::vector<float> fill{10.0f, 20.0f};
  const auto out = sparse_trimmed_mean(as_spans(inputs), 0.25, fill, nullptr);
  EXPECT_FLOAT_EQ(out[0], 2.5f);
  EXPECT_FLOAT_EQ(out[1], 7.0f);
}

TEST(RobustAggregate, SparseTrimmedMeanKeepsUntouchedCoordinates) {
  // Nobody shipped coordinate 1: it stays at the reference bit for bit.
  const std::vector<std::vector<float>> inputs{{1.0f, 20.0f}, {3.0f, 20.0f}};
  const std::vector<float> fill{10.0f, 20.0f};
  const auto out = sparse_trimmed_mean(as_spans(inputs), 0.2, fill, nullptr);
  EXPECT_FLOAT_EQ(out[0], 2.0f);
  EXPECT_EQ(out[1], 20.0f);
}

TEST(RobustAggregate, SparseTrimmedMeanDenseMatchesClassic) {
  // With every coordinate shipped (all values differ from the fill) the
  // sparse rule is the classic trimmed mean over all n updates.
  const std::vector<std::vector<float>> inputs{
      {1.0f, -100.0f}, {2.0f, 1.0f}, {3.0f, 2.0f}, {4.0f, 3.0f},
      {100.0f, 4.0f}};
  RobustConfig cfg;
  cfg.trim_frac = 0.2;
  const std::vector<double> coeffs(5, 0.2);
  const auto classic =
      robust_aggregate(as_spans(inputs), coeffs, AggregationRule::kTrimmedMean,
                       cfg, {}, nullptr);
  const std::vector<float> fill(2, 777.0f);
  const auto sparse = sparse_trimmed_mean(as_spans(inputs), 0.2, fill, nullptr);
  EXPECT_EQ(classic, sparse);
}

TEST(RobustAggregate, SparseTrimmedMeanShrinksTrimToKeepOne) {
  // Two participants at trim_frac 0.4: floor(0.4·2) = 0... but at five
  // participants floor(0.4·5) = 2 would trim 4 of 5 — fine (one left);
  // at two participants with trim_frac 0.49 the shrink keeps both.
  const std::vector<std::vector<float>> inputs{{1.0f}, {3.0f}};
  const std::vector<float> fill{0.0f};
  const auto out = sparse_trimmed_mean(as_spans(inputs), 0.49, fill, nullptr);
  EXPECT_FLOAT_EQ(out[0], 2.0f);
  EXPECT_THROW(sparse_trimmed_mean(as_spans(inputs), 0.5, fill, nullptr),
               Error);
}

TEST(RobustAggregate, WeightedMeanIsTheEnginesJob) {
  const std::vector<std::vector<float>> inputs{{1.0f}, {2.0f}};
  EXPECT_THROW(robust_aggregate(as_spans(inputs), {0.5, 0.5},
                                AggregationRule::kWeightedMean, {}, {},
                                nullptr),
               Error);
}

TEST(RobustAggregate, RuleNamesRoundTrip) {
  for (const AggregationRule r :
       {AggregationRule::kWeightedMean, AggregationRule::kTrimmedMean,
        AggregationRule::kCoordinateMedian, AggregationRule::kNormClip}) {
    EXPECT_EQ(aggregation_rule_from_string(to_string(r)), r);
  }
  EXPECT_THROW(aggregation_rule_from_string("krum"), Error);
}

TEST(FederationAggregate, WeightedMeanRuleMatchesWeightedAverage) {
  // The kWeightedMean dispatch must be the PR-3 fused kernel path,
  // bit-for-bit.
  auto [fed, groups] = make_grouped_federation(4);
  std::vector<fl::ClientUpdate> updates;
  Rng rng(21);
  for (std::size_t c = 0; c < 3; ++c) {
    fl::ClientUpdate u;
    u.client_id = c;
    u.num_samples = 10 + c;
    u.weights.resize(fed.model_size());
    for (float& x : u.weights) x = static_cast<float>(rng.normal());
    updates.push_back(std::move(u));
  }
  EXPECT_EQ(fed.aggregate(updates), fl::weighted_average(updates));
}

TEST(FederationAggregate, TrimmedMeanRuleDispatchesToRobust) {
  fl::FederationConfig cfg;
  cfg.robust.rule = AggregationRule::kTrimmedMean;
  cfg.robust.trim_frac = 0.34;  // drop 1 from each side of 3
  auto [fed, groups] = make_grouped_federation(4, 480, 42, cfg);
  std::vector<fl::ClientUpdate> updates;
  for (const float v : {1.0f, 2.0f, 300.0f}) {
    fl::ClientUpdate u;
    u.client_id = updates.size();
    u.num_samples = 1;
    u.weights.assign(fed.model_size(), v);
    updates.push_back(std::move(u));
  }
  const auto out = fed.aggregate(updates);
  for (const float x : out) EXPECT_FLOAT_EQ(x, 2.0f);
}

// -- simd/scalar fault-pattern parity -----------------------------------------

TEST(FaultParity, DecisionsAndQuarantineMatchAcrossSimdDispatch) {
  // Fault draws and strike accounting must not depend on which kernel
  // table is active. Trained weights MAY differ bitwise between scalar
  // and SIMD builds, so this compares decision patterns, not weights:
  // NaN-poison rejections fire on the fault decision alone.
  fl::FederationConfig cfg;
  cfg.local.epochs = 1;
  cfg.local.sgd.lr = 0.05;
  cfg.faults.enabled = true;
  cfg.faults.nan_prob = 0.4;
  cfg.robust.validate.enabled = true;
  cfg.robust.validate.envelope_factor = 0.0;  // finite check only
  cfg.robust.validate.max_strikes = 2;

  auto run = [&](bool simd) {
    ops::set_simd_enabled(simd);
    auto [fed, groups] = make_grouped_federation(6, 480, 33, cfg);
    const std::vector<float> w0 = fed.template_model().flat_weights();
    std::vector<std::vector<std::size_t>> accepted_per_round;
    for (std::size_t r = 0; r < 4; ++r) {
      fed.comm().begin_round(r);
      const auto ids = fed.sample_clients(r);
      const auto updates = fed.train_clients(
          ids, r, [&](std::size_t) { return std::span<const float>(w0); });
      std::vector<std::size_t> accepted;
      for (const auto& u : updates) accepted.push_back(u.client_id);
      accepted_per_round.push_back(std::move(accepted));
    }
    auto counts = fed.quarantine().strike_counts();
    return std::pair(accepted_per_round, counts);
  };

  const auto scalar = run(false);
  const auto simd = run(true);
  ops::set_simd_enabled(true);  // leave the process in its default state
  EXPECT_EQ(scalar.first, simd.first);
  EXPECT_EQ(scalar.second, simd.second);
  // Sanity: the scenario actually exercised rejections.
  std::size_t total = 0;
  for (std::size_t c : scalar.second) total += c;
  EXPECT_GT(total, 0u);
}

// -- checkpoints --------------------------------------------------------------

std::string temp_ckpt_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

RunCheckpoint sample_checkpoint() {
  RunCheckpoint ck;
  ck.next_round = 5;
  ck.seed = 42;
  ck.labels = {0, 1, 0, 1};
  ck.cluster_weights = {{1.0f, 2.0f, 3.0f}, {-1.0f, 0.5f, 0.0f}};
  ck.partial_weights = {{0.1f}, {0.2f}, {}, {0.4f}};  // client 2 deferred
  ck.rounds.push_back({0, 0.25, 0.01, 2.0, 100, 200, 2, 1.5, 0xDEADBEEFu});
  ck.rounds.push_back({1, 0.5, 0.02, 1.0, 300, 600, 2, 3.0, 0xCAFEBABEu});
  ck.comm.round_download = {200, 400};
  ck.comm.round_upload = {100, 200};
  ck.comm.total_download = 600;
  ck.comm.total_upload = 300;
  ck.net.present = true;
  ck.net.clock = 12.5;
  ck.net.log.push_back(
      {1.0, 0, net::EventKind::kBroadcastDelivered, 0, 2, 0, 128});
  ck.net.log.push_back({2.5, 1, net::EventKind::kUploadDelivered, 0, 2, 1, 96});
  ck.quarantine_counts = {0, 2, 0, 1};
  ck.quarantine_max_strikes = 2;
  return ck;
}

TEST(Checkpoint, SaveLoadRoundTrip) {
  const std::string path = temp_ckpt_path("fedclust_ckpt_roundtrip.ckpt");
  const RunCheckpoint ck = sample_checkpoint();
  save_checkpoint(ck, path);
  const RunCheckpoint back = load_checkpoint(path);
  std::filesystem::remove(path);

  EXPECT_EQ(back.next_round, ck.next_round);
  EXPECT_EQ(back.seed, ck.seed);
  EXPECT_EQ(back.labels, ck.labels);
  EXPECT_EQ(back.cluster_weights, ck.cluster_weights);
  EXPECT_EQ(back.partial_weights, ck.partial_weights);
  ASSERT_EQ(back.rounds.size(), ck.rounds.size());
  for (std::size_t i = 0; i < ck.rounds.size(); ++i) {
    EXPECT_EQ(back.rounds[i].round, ck.rounds[i].round);
    EXPECT_EQ(back.rounds[i].acc_mean, ck.rounds[i].acc_mean);
    EXPECT_EQ(back.rounds[i].acc_std, ck.rounds[i].acc_std);
    EXPECT_EQ(back.rounds[i].train_loss, ck.rounds[i].train_loss);
    EXPECT_EQ(back.rounds[i].cum_upload, ck.rounds[i].cum_upload);
    EXPECT_EQ(back.rounds[i].cum_download, ck.rounds[i].cum_download);
    EXPECT_EQ(back.rounds[i].num_clusters, ck.rounds[i].num_clusters);
    EXPECT_EQ(back.rounds[i].sim_seconds, ck.rounds[i].sim_seconds);
    EXPECT_EQ(back.rounds[i].weights_fp, ck.rounds[i].weights_fp);
  }
  EXPECT_EQ(back.comm.round_download, ck.comm.round_download);
  EXPECT_EQ(back.comm.round_upload, ck.comm.round_upload);
  EXPECT_EQ(back.comm.total_download, ck.comm.total_download);
  EXPECT_EQ(back.comm.total_upload, ck.comm.total_upload);
  EXPECT_EQ(back.net.present, ck.net.present);
  EXPECT_EQ(back.net.clock, ck.net.clock);
  ASSERT_EQ(back.net.log.size(), ck.net.log.size());
  EXPECT_EQ(net::fingerprint(back.net.log), net::fingerprint(ck.net.log));
  EXPECT_EQ(back.quarantine_counts, ck.quarantine_counts);
  EXPECT_EQ(back.quarantine_max_strikes, ck.quarantine_max_strikes);
}

TEST(Checkpoint, CorruptedFileFailsLoudly) {
  const std::string path = temp_ckpt_path("fedclust_ckpt_corrupt.ckpt");
  save_checkpoint(sample_checkpoint(), path);

  // Flip one bit in the middle of the body.
  std::vector<char> bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_GT(bytes.size(), 40u);
  bytes[bytes.size() / 2] ^= 0x10;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_THROW(load_checkpoint(path), Error);
  std::filesystem::remove(path);
}

// Little-endian field patching for hand-crafted checkpoint files.
void put_le(std::uint8_t* at, std::uint64_t v, int width) {
  for (int i = 0; i < width; ++i) {
    at[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

std::vector<std::uint8_t> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), {}};
}

void write_with_valid_crc(const std::string& path,
                          std::vector<std::uint8_t> bytes) {
  put_le(bytes.data() + bytes.size() - 4,
         crc32(bytes.data(), bytes.size() - 4), 4);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

TEST(Checkpoint, OtherVersionWithValidCrcIsRefused) {
  // Only the current layout loads: a file stamped with an earlier
  // version whose CRC trailer is valid for its bytes must still be
  // refused, not parsed as an older layout. Version 3 is the layout that
  // still carried per-client comm attribution.
  const std::string path = temp_ckpt_path("fedclust_ckpt_oldver.ckpt");
  save_checkpoint(sample_checkpoint(), path);
  const std::vector<std::uint8_t> saved = read_bytes(path);
  ASSERT_GT(saved.size(), 12u);
  for (const std::uint32_t version : {2u, 3u}) {
    std::vector<std::uint8_t> bytes = saved;
    put_le(bytes.data() + 4, version, 4);  // the u32 after "FCKP"
    write_with_valid_crc(path, bytes);
    // Refused by the version check itself, not by a later misparse.
    try {
      load_checkpoint(path);
      ADD_FAILURE() << "a version-" << version << " checkpoint loaded";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("unsupported checkpoint version " +
                                           std::to_string(version)),
                std::string::npos)
          << e.what();
    }
  }
  std::filesystem::remove(path);
}

TEST(Checkpoint, HostileLengthIsATypedError) {
  // A CRC-valid file whose length field would overflow `len * width`
  // must fail as a fedclust::Error, never as std::length_error from a
  // vector sized by the wrapped check.
  const std::string path = temp_ckpt_path("fedclust_ckpt_hostile.ckpt");
  const RunCheckpoint ck = sample_checkpoint();
  save_checkpoint(ck, path);
  const std::vector<std::uint8_t> saved = read_bytes(path);
  // magic(4) version(4) next_round(8) seed(8) | labels: u64 n + n * u64 |
  // cluster_weights: u64 count, then u64 len + floats per vector.
  const std::size_t labels_at = 24;
  const std::size_t first_weight_len_at =
      labels_at + 8 + 8 * ck.labels.size() + 8;
  const struct {
    std::size_t offset;
    std::uint64_t value;  // value * width wraps to 0 in 64 bits
  } cases[] = {{labels_at, std::uint64_t{1} << 61},
               {first_weight_len_at, std::uint64_t{1} << 62}};
  for (const auto& c : cases) {
    std::vector<std::uint8_t> bytes = saved;
    put_le(bytes.data() + c.offset, c.value, 8);
    write_with_valid_crc(path, bytes);
    EXPECT_THROW(load_checkpoint(path), Error) << "offset " << c.offset;
  }
  std::filesystem::remove(path);
}

TEST(Checkpoint, TruncatedFileFailsLoudly) {
  const std::string path = temp_ckpt_path("fedclust_ckpt_trunc.ckpt");
  save_checkpoint(sample_checkpoint(), path);
  const auto full = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full / 2);
  EXPECT_THROW(load_checkpoint(path), Error);
  std::filesystem::remove(path);
  EXPECT_THROW(load_checkpoint(path), Error);  // missing file
}

}  // namespace
}  // namespace fedclust::robust
