// Tests for the FedClust core: partial-weight selection, one-shot
// clustering, the full algorithm, and newcomer assignment.
#include "core/fedclust.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>

#include "algorithms/fedavg.hpp"
#include "cluster/metrics.hpp"
#include "nn/models.hpp"
#include "test_helpers.hpp"

namespace fedclust::core {
namespace {

using testing::make_dirichlet_federation;
using testing::make_grouped_federation;
using testing::tiny_image_spec;

fl::FederationConfig fast_config() {
  fl::FederationConfig cfg;
  cfg.local.epochs = 2;
  cfg.local.batch_size = 16;
  cfg.local.sgd.lr = 0.05;
  cfg.threads = 2;
  return cfg;
}

// -- partial weights ------------------------------------------------------------

TEST(PartialWeights, DefaultIsFinalLayerWeight) {
  const nn::Model m = nn::mlp({1, 8, 8, 4}, 16);
  const auto slices = resolve_partial_slices(m, "");
  ASSERT_EQ(slices.size(), 1u);
  EXPECT_EQ(slices[0].name, "linear2.weight");
  EXPECT_EQ(slices[0].size, 16u * 4u);
  EXPECT_EQ(resolve_partial_slices(m, "final")[0].name, "linear2.weight");
}

TEST(PartialWeights, FinalPlusBias) {
  const nn::Model m = nn::mlp({1, 8, 8, 4}, 16);
  const auto slices = resolve_partial_slices(m, "final+bias");
  ASSERT_EQ(slices.size(), 2u);
  EXPECT_EQ(slices[1].name, "linear2.bias");
  EXPECT_EQ(slices_numel(slices), 16u * 4u + 4u);
}

TEST(PartialWeights, AllSelectsEverything) {
  const nn::Model m = nn::mlp({1, 8, 8, 4}, 16);
  const auto slices = resolve_partial_slices(m, "all");
  EXPECT_EQ(slices_numel(slices), m.num_weights());
}

TEST(PartialWeights, NamedParameterAndErrors) {
  const nn::Model m = nn::lenet5({1, 28, 28, 10});
  const auto slices = resolve_partial_slices(m, "conv2d1.weight");
  ASSERT_EQ(slices.size(), 1u);
  EXPECT_EQ(slices[0].offset, 0u);
  EXPECT_THROW(resolve_partial_slices(m, "nope.weight"), Error);
}

TEST(PartialWeights, ExtractMatchesSliceContent) {
  nn::Model m = nn::mlp({1, 8, 8, 4}, 8);
  Rng rng(1);
  m.init_params(rng);
  const std::vector<float> flat = m.flat_weights();
  const auto slices = resolve_partial_slices(m, "final");
  const std::vector<float> part = extract_slices(flat, slices);
  ASSERT_EQ(part.size(), slices[0].size);
  for (std::size_t i = 0; i < part.size(); ++i) {
    EXPECT_FLOAT_EQ(part[i], flat[slices[0].offset + i]);
  }
}

TEST(PartialWeights, ExtractValidatesBounds) {
  std::vector<nn::ParamSlice> slices{{"x", 10, 5}};
  const std::vector<float> flat(12, 0.0f);
  EXPECT_THROW(extract_slices(flat, slices), Error);
}

// -- one-shot clustering ---------------------------------------------------------

TEST(FormClusters, RecoversGroundTruthGroups) {
  auto [fed, groups] = make_grouped_federation(6, 480, 41, fast_config());
  FedClust algo({.warmup_epochs = 3});
  const ClusteringOutcome out = algo.form_clusters(fed);

  ASSERT_EQ(out.labels.size(), 6u);
  EXPECT_GE(cluster::adjusted_rand_index(out.labels, groups), 0.9);
  // The proximity matrix itself shows the block structure of Fig. 1.
  EXPECT_GT(cluster::block_contrast(out.proximity, groups), 1.1);
}

TEST(FormClusters, UploadIsPartialOnly) {
  // The formation round meters a full model down and only the final
  // layer up per client.
  auto [fed, groups] = make_grouped_federation(4, 320, 42, fast_config());
  FedClust algo({});
  fl::RunResult result;
  std::vector<std::size_t> labels;
  std::vector<std::vector<float>> cluster_weights;
  algo.formation_phase(fed, result, labels, cluster_weights);
  const auto slices =
      resolve_partial_slices(fed.template_model(), "final");
  EXPECT_EQ(fed.comm().total_upload(),
            fl::CommMeter::float_bytes(slices_numel(slices)) * 4);
  EXPECT_EQ(fed.comm().total_download(),
            fl::CommMeter::float_bytes(fed.model_size()) * 4);
  EXPECT_LT(fed.comm().total_upload(), fed.comm().total_download());
}

TEST(FormClusters, ExplicitThresholdHonored) {
  auto [fed, groups] = make_grouped_federation(4, 320, 43, fast_config());
  // A huge threshold forces one cluster.
  FedClust one({.threshold = 1e9});
  EXPECT_EQ(cluster::num_clusters(one.form_clusters(fed).labels), 1u);
  // A tiny threshold keeps every client separate.
  FedClust all({.threshold = 1e-9});
  EXPECT_EQ(cluster::num_clusters(all.form_clusters(fed).labels), 4u);
}

TEST(FormClusters, IidDataYieldsFewClustersUnderGapPolicy) {
  // Under IID-ish data there is no block structure; the largest-gap
  // policy should not shatter the population.
  fl::Federation fed = make_dirichlet_federation(6, 100.0, 480, 44,
                                                 fast_config());
  FedClust algo({.cut_policy = CutPolicy::kLargestGap, .min_gap_ratio = 3.0});
  const ClusteringOutcome out = algo.form_clusters(fed);
  EXPECT_LE(cluster::num_clusters(out.labels), 2u);
}

TEST(FormClusters, RelativeThresholdGranularityTracksRelFactor) {
  // The default policy cuts at rel_factor x mean pairwise distance:
  // larger factors must produce coarser clusterings.
  auto [fed, groups] = make_grouped_federation(6, 480, 44, fast_config());
  std::size_t prev = 0;
  for (const double factor : {0.3, 0.9, 1.6}) {
    FedClust algo({.cut_policy = CutPolicy::kRelativeThreshold,
                   .rel_factor = factor});
    const std::size_t k =
        cluster::num_clusters(algo.form_clusters(fed).labels);
    if (prev != 0) {
      EXPECT_LE(k, prev);
    }
    prev = k;
  }
  EXPECT_LE(prev, 2u);  // far above the mean distance -> 1-2 clusters
}

TEST(FormClusters, SilhouettePolicyFindsCrispGroups) {
  auto [fed, groups] = make_grouped_federation(6, 480, 45, fast_config());
  FedClust algo({.warmup_epochs = 3,
                 .cut_policy = CutPolicy::kSilhouette});
  const ClusteringOutcome out = algo.form_clusters(fed);
  EXPECT_GE(cluster::adjusted_rand_index(out.labels, groups), 0.9);
}

// -- full run -----------------------------------------------------------------

TEST(FedClustRun, BeatsFedAvgOnClusterableData) {
  auto cfg = fast_config();
  auto [fed1, g1] = make_grouped_federation(6, 480, 45, cfg);
  auto [fed2, g2] = make_grouped_federation(6, 480, 45, cfg);

  const fl::RunResult fc = FedClust({.warmup_epochs = 3}).run(fed1, 5);
  const fl::RunResult fa = algorithms::FedAvg().run(fed2, 5);
  EXPECT_GT(fc.final_accuracy.mean, fa.final_accuracy.mean);
  EXPECT_EQ(fc.algorithm, "FedClust");
}

TEST(FedClustRun, OneShotCommProfile) {
  auto [fed, groups] = make_grouped_federation(4, 320, 46, fast_config());
  FedClust algo({});
  const fl::RunResult r = algo.run(fed, 4);
  const std::uint64_t model_bytes =
      fl::CommMeter::float_bytes(fed.model_size());
  // Round 0 upload is partial (< model); rounds 1..3 are full FedAvg.
  const auto& up = fed.comm().round_upload();
  ASSERT_EQ(up.size(), 4u);
  EXPECT_LT(up[0], model_bytes * 4);
  EXPECT_EQ(up[1], model_bytes * 4);
  // Clustering happened in exactly one round: round 1+ have stable
  // cluster count.
  for (const auto& round : r.rounds) {
    EXPECT_EQ(round.num_clusters, r.rounds.front().num_clusters);
  }
}

TEST(FedClustRun, RequiresTwoRounds) {
  auto [fed, groups] = make_grouped_federation(4, 320, 47, fast_config());
  FedClust algo({});
  EXPECT_THROW(algo.run(fed, 1), Error);
}

TEST(FedClustRun, StoresClusteringForNewcomers) {
  auto [fed, groups] = make_grouped_federation(4, 320, 48, fast_config());
  FedClust algo({});
  EXPECT_FALSE(algo.last_clustering().has_value());
  algo.run(fed, 3);
  ASSERT_TRUE(algo.last_clustering().has_value());
  EXPECT_EQ(algo.last_clustering()->labels.size(), 4u);
}

TEST(FedClustRun, WarmStartSeedsClusterClassifier) {
  auto cfg = fast_config();
  auto [fed, groups] = make_grouped_federation(4, 320, 53, cfg);
  FedClust algo({.warmup_epochs = 2, .warm_start_classifier = true});
  const fl::RunResult r = algo.run(fed, 2);
  ASSERT_TRUE(algo.last_clustering().has_value());
  // Warm start costs nothing on the wire: round-0 upload is still the
  // partial slice only.
  const auto slices = resolve_partial_slices(fed.template_model(), "final");
  EXPECT_EQ(fed.comm().round_upload()[0],
            fl::CommMeter::float_bytes(slices_numel(slices)) * 4);
  EXPECT_GE(r.final_accuracy.mean, 0.0);
}

TEST(FedClustRun, WarmStartChangesTrajectory) {
  auto cfg = fast_config();
  auto [fed_cold, g1] = make_grouped_federation(4, 320, 54, cfg);
  auto [fed_warm, g2] = make_grouped_federation(4, 320, 54, cfg);
  const double cold = FedClust({.warmup_epochs = 2})
                          .run(fed_cold, 2)
                          .final_accuracy.mean;
  const double warm =
      FedClust({.warmup_epochs = 2, .warm_start_classifier = true})
          .run(fed_warm, 2)
          .final_accuracy.mean;
  EXPECT_NE(cold, warm);  // the seeded classifier must actually be used
}

TEST(FedClustRun, PartialParticipationStillTrainsEveryCluster) {
  auto cfg = fast_config();
  cfg.participation = 0.5;
  auto [fed, groups] = make_grouped_federation(6, 480, 58, cfg);
  FedClust algo({.warmup_epochs = 2});
  const fl::RunResult r = algo.run(fed, 5);
  // Formation still covers everyone (paper: all available clients),
  // so round-0 upload counts all 6 clients.
  const auto slices = resolve_partial_slices(fed.template_model(), "final");
  EXPECT_EQ(fed.comm().round_upload()[0],
            fl::CommMeter::float_bytes(slices_numel(slices)) * 6);
  // Later rounds only carry the sampled half.
  const std::uint64_t model_bytes =
      fl::CommMeter::float_bytes(fed.model_size());
  EXPECT_EQ(fed.comm().round_upload()[1], model_bytes * 3);
  EXPECT_GT(r.final_accuracy.mean, 0.3);
}

TEST(FedClustRun, FixedThresholdOverridesPolicy) {
  auto [fed, groups] = make_grouped_federation(4, 320, 59, fast_config());
  // Even with a policy configured, threshold > 0 wins (documented
  // precedence).
  FedClust algo({.cut_policy = CutPolicy::kSilhouette, .threshold = 1e9});
  const ClusteringOutcome out = algo.form_clusters(fed);
  EXPECT_EQ(cluster::num_clusters(out.labels), 1u);
  EXPECT_DOUBLE_EQ(out.threshold, 1e9);
}

// -- formation fault tolerance -------------------------------------------------

TEST(FormationFaults, CrashesStillYieldValidPartition) {
  // Background crash churn in the formation round: retries recover most
  // clients, the rest are deferred, and the partition over everyone
  // stays valid.
  auto cfg = fast_config();
  cfg.faults.enabled = true;
  cfg.faults.crash_prob = 0.3;
  auto [fed, groups] = make_grouped_federation(6, 480, 61, cfg);
  FedClust algo({.warmup_epochs = 2, .formation_retries = 2});
  const ClusteringOutcome out = algo.form_clusters(fed);

  ASSERT_EQ(out.labels.size(), 6u);
  EXPECT_FALSE(out.fallback_global);
  // reporters + deferred partition the population.
  std::vector<std::size_t> all = out.reporters;
  all.insert(all.end(), out.deferred.begin(), out.deferred.end());
  std::sort(all.begin(), all.end());
  EXPECT_EQ(all, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(out.proximity.rows(), out.reporters.size());
  // Deferred clients hold empty partials; reporters hold real ones.
  for (std::size_t c : out.reporters) {
    EXPECT_FALSE(out.partial_weights[c].empty()) << c;
  }
  for (std::size_t c : out.deferred) {
    EXPECT_TRUE(out.partial_weights[c].empty()) << c;
  }
  const std::size_t k = cluster::num_clusters(out.labels);
  for (std::size_t l : out.labels) EXPECT_LT(l, k);
}

TEST(FormationFaults, RetriesRecoverCrashedClients) {
  // With per-attempt fault draws, a client that crashed on attempt 0
  // usually reports on a retry — so retries must strictly grow the
  // reporter set versus a no-retry formation under the same seed.
  auto cfg = fast_config();
  cfg.faults.enabled = true;
  cfg.faults.crash_prob = 0.5;
  auto [fed_no, g1] = make_grouped_federation(6, 480, 62, cfg);
  auto [fed_re, g2] = make_grouped_federation(6, 480, 62, cfg);
  const ClusteringOutcome none =
      FedClust({.warmup_epochs = 2, .formation_retries = 0})
          .form_clusters(fed_no);
  const ClusteringOutcome retried =
      FedClust({.warmup_epochs = 2, .formation_retries = 3})
          .form_clusters(fed_re);
  EXPECT_LT(none.reporters.size(), 6u);  // churn actually bit
  EXPECT_GT(retried.reporters.size(), none.reporters.size());
  EXPECT_EQ(retried.resolicited.size(), 3u);
}

TEST(FormationFaults, DeferredClientsAdmittedDuringRun) {
  // A full run() admits deferred clients through the newcomer path
  // before round 1: afterwards every client holds a partial vector and
  // a definitive label.
  auto cfg = fast_config();
  cfg.faults.enabled = true;
  cfg.faults.crash_prob = 0.6;
  auto [fed, groups] = make_grouped_federation(6, 480, 63, cfg);
  FedClust algo({.warmup_epochs = 2, .formation_retries = 1});
  const fl::RunResult r = algo.run(fed, 3);

  ASSERT_TRUE(algo.last_clustering().has_value());
  const ClusteringOutcome& out = *algo.last_clustering();
  EXPECT_FALSE(out.deferred.empty());  // the scenario exercised deferral
  for (std::size_t c = 0; c < 6; ++c) {
    EXPECT_FALSE(out.partial_weights[c].empty()) << c;
  }
  EXPECT_EQ(r.cluster_labels.size(), 6u);
  const std::size_t k = cluster::num_clusters(out.labels);
  for (std::size_t l : r.cluster_labels) EXPECT_LT(l, k);
}

TEST(FormationFaults, QuorumFailureFallsBackToGlobal) {
  // Every client crashes on every attempt -> no reporters -> below any
  // quorum -> the configured fallback labels everyone 0.
  auto cfg = fast_config();
  cfg.faults.enabled = true;
  cfg.faults.crash_prob = 1.0;
  auto [fed, groups] = make_grouped_federation(4, 320, 64, cfg);
  FedClust algo({.warmup_epochs = 2});
  const ClusteringOutcome out = algo.form_clusters(fed);
  EXPECT_TRUE(out.fallback_global);
  EXPECT_TRUE(out.reporters.empty());
  EXPECT_EQ(out.labels, (std::vector<std::size_t>(4, 0)));
}

TEST(FormationFaults, QuorumFailureCanAbort) {
  auto cfg = fast_config();
  cfg.faults.enabled = true;
  cfg.faults.crash_prob = 1.0;
  auto [fed, groups] = make_grouped_federation(4, 320, 64, cfg);
  FedClust algo(
      {.warmup_epochs = 2,
       .formation_fallback = FedClustConfig::FormationFallback::kAbort});
  EXPECT_THROW(algo.form_clusters(fed), Error);
}

// -- checkpoint / resume -------------------------------------------------------

TEST(CheckpointResume, TrajectoryBitIdenticalAfterKill) {
  // Reference: an uninterrupted 6-round run. Victim: the same run
  // "killed" after round 3 (its last checkpoint write), then resumed on
  // a freshly constructed federation. Every per-round fingerprint and
  // metric must match the reference exactly.
  const std::string path = "/tmp/fedclust_resume_test.ckpt";
  auto cfg = fast_config();
  const FedClustConfig algo_cfg{.warmup_epochs = 2,
                                .checkpoint_every = 3,
                                .checkpoint_path = path};

  auto [fed_ref, g1] = make_grouped_federation(6, 480, 65, cfg);
  const fl::RunResult ref =
      FedClust({.warmup_epochs = 2}).run(fed_ref, 6);

  auto [fed_victim, g2] = make_grouped_federation(6, 480, 65, cfg);
  FedClust(algo_cfg).run(fed_victim, 4);  // checkpoints at rounds 0 and 3

  const robust::RunCheckpoint ck = robust::load_checkpoint(path);
  std::filesystem::remove(path);
  EXPECT_EQ(ck.next_round, 4u);
  EXPECT_EQ(ck.seed, 65u);

  auto [fed_resumed, g3] = make_grouped_federation(6, 480, 65, cfg);
  FedClust algo(algo_cfg);
  const fl::RunResult resumed = algo.resume(fed_resumed, ck, 6);

  ASSERT_EQ(resumed.rounds.size(), ref.rounds.size());
  for (std::size_t i = 0; i < ref.rounds.size(); ++i) {
    EXPECT_EQ(resumed.rounds[i].weights_fp, ref.rounds[i].weights_fp) << i;
    EXPECT_EQ(resumed.rounds[i].acc_mean, ref.rounds[i].acc_mean) << i;
    EXPECT_EQ(resumed.rounds[i].acc_std, ref.rounds[i].acc_std) << i;
    EXPECT_EQ(resumed.rounds[i].train_loss, ref.rounds[i].train_loss) << i;
    EXPECT_EQ(resumed.rounds[i].cum_upload, ref.rounds[i].cum_upload) << i;
    EXPECT_EQ(resumed.rounds[i].cum_download, ref.rounds[i].cum_download)
        << i;
    EXPECT_EQ(resumed.rounds[i].num_clusters, ref.rounds[i].num_clusters)
        << i;
  }
  EXPECT_EQ(resumed.final_accuracy.mean, ref.final_accuracy.mean);
  EXPECT_EQ(resumed.cluster_labels, ref.cluster_labels);
  ASSERT_TRUE(algo.last_clustering().has_value());
}

TEST(CheckpointResume, RejectsMismatchedFederation) {
  const std::string path = "/tmp/fedclust_resume_reject_test.ckpt";
  auto cfg = fast_config();
  const FedClustConfig algo_cfg{.warmup_epochs = 2,
                                .checkpoint_every = 2,
                                .checkpoint_path = path};
  auto [fed, g1] = make_grouped_federation(4, 320, 66, cfg);
  FedClust(algo_cfg).run(fed, 3);
  const robust::RunCheckpoint ck = robust::load_checkpoint(path);
  std::filesystem::remove(path);

  FedClust algo(algo_cfg);
  // Different seed -> different stream universe -> refuse to resume.
  auto [fed_seed, g2] = make_grouped_federation(4, 320, 67, cfg);
  EXPECT_THROW(algo.resume(fed_seed, ck, 6), Error);
  // Different population size.
  auto [fed_size, g3] = make_grouped_federation(6, 480, 66, cfg);
  EXPECT_THROW(algo.resume(fed_size, ck, 6), Error);
  // Nothing left to run.
  auto [fed_done, g4] = make_grouped_federation(4, 320, 66, cfg);
  EXPECT_THROW(algo.resume(fed_done, ck, ck.next_round), Error);
}

// -- newcomers -----------------------------------------------------------------

TEST(Newcomer, AssignedToMatchingGroup) {
  auto [fed, groups] = make_grouped_federation(6, 480, 49, fast_config());
  FedClust algo({.warmup_epochs = 3});
  const fl::RunResult r = algo.run(fed, 3);
  ASSERT_TRUE(algo.last_clustering().has_value());
  const ClusteringOutcome& outcome = *algo.last_clustering();

  // Build newcomers drawn from each group's label set.
  const data::SyntheticGenerator gen(tiny_image_spec(), 49);
  Rng rng(50);
  for (std::size_t g = 0; g < 2; ++g) {
    std::vector<std::size_t> counts(4, 0);
    counts[2 * g] = 40;
    counts[2 * g + 1] = 40;
    const data::Dataset newcomer_data =
        gen.generate_per_class(counts, rng);

    const std::size_t assigned = algo.assign_newcomer(
        fed.template_model(), newcomer_data, fed.config().local,
        Rng(51 + g), outcome);

    // The assigned cluster must be the one holding group-g veterans.
    // Find the majority cluster of ground-truth group g.
    std::vector<std::size_t> votes(cluster::num_clusters(outcome.labels), 0);
    for (std::size_t i = 0; i < groups.size(); ++i) {
      if (groups[i] == g) ++votes[outcome.labels[i]];
    }
    const std::size_t expected = static_cast<std::size_t>(
        std::max_element(votes.begin(), votes.end()) - votes.begin());
    EXPECT_EQ(assigned, expected) << "newcomer of group " << g;
  }
}

TEST(Newcomer, RejectsEmptyOutcome) {
  auto [fed, groups] = make_grouped_federation(4, 320, 52, fast_config());
  FedClust algo({});
  ClusteringOutcome empty;
  const data::Dataset some = testing::tiny_pool(40, 53);
  EXPECT_THROW(algo.assign_newcomer(fed.template_model(), some,
                                    fed.config().local, Rng(1), empty),
               Error);
}

}  // namespace
}  // namespace fedclust::core
