// Tests for the baseline algorithms: FedAvg, FedProx, IFCA, CFL, PACFL.
#include <gtest/gtest.h>

#include <set>

#include "algorithms/cfl.hpp"
#include "algorithms/common.hpp"
#include "algorithms/fedavg.hpp"
#include "algorithms/ifca.hpp"
#include "algorithms/fedper.hpp"
#include "algorithms/local_only.hpp"
#include "algorithms/pacfl.hpp"
#include "nn/slicing.hpp"
#include "cluster/metrics.hpp"
#include "test_helpers.hpp"

namespace fedclust::algorithms {
namespace {

using testing::make_dirichlet_federation;
using testing::make_grouped_federation;

fl::FederationConfig fast_config() {
  fl::FederationConfig cfg;
  cfg.local.epochs = 2;
  cfg.local.batch_size = 16;
  cfg.local.sgd.lr = 0.05;
  cfg.threads = 2;
  return cfg;
}

TEST(FedAvg, ImprovesAccuracyOverRounds) {
  auto [fed, groups] = make_grouped_federation(4, 400, 21, fast_config());
  FedAvg algo;
  const fl::RunResult r = algo.run(fed, 6);
  EXPECT_EQ(r.algorithm, "FedAvg");
  ASSERT_GE(r.rounds.size(), 2u);
  EXPECT_GT(r.final_round().acc_mean, r.rounds.front().acc_mean);
  EXPECT_GT(r.final_accuracy.mean, 0.4);
  // Global method: everyone in cluster 0.
  for (std::size_t l : r.cluster_labels) EXPECT_EQ(l, 0u);
}

TEST(FedAvg, CommBytesMatchFormula) {
  auto [fed, groups] = make_grouped_federation(4, 400, 22, fast_config());
  FedAvg algo;
  const std::size_t rounds = 3;
  const fl::RunResult r = algo.run(fed, rounds);
  const std::uint64_t model_bytes =
      fl::CommMeter::float_bytes(fed.model_size());
  // Full participation: every round, 4 clients download + upload a model.
  EXPECT_EQ(r.final_round().cum_download, model_bytes * 4 * rounds);
  EXPECT_EQ(r.final_round().cum_upload, model_bytes * 4 * rounds);
}

TEST(FedAvg, DeterministicAcrossRuns) {
  auto cfg = fast_config();
  auto [fed1, g1] = make_grouped_federation(4, 400, 23, cfg);
  auto [fed2, g2] = make_grouped_federation(4, 400, 23, cfg);
  FedAvg algo;
  const fl::RunResult a = algo.run(fed1, 3);
  const fl::RunResult b = algo.run(fed2, 3);
  EXPECT_DOUBLE_EQ(a.final_accuracy.mean, b.final_accuracy.mean);
}

TEST(FedProx, RunsAndReportsName) {
  auto [fed, groups] = make_grouped_federation(4, 400, 24, fast_config());
  FedProx algo(0.1);
  EXPECT_DOUBLE_EQ(algo.mu(), 0.1);
  const fl::RunResult r = algo.run(fed, 4);
  EXPECT_EQ(r.algorithm, "FedProx");
  EXPECT_GT(r.final_accuracy.mean, 0.3);
}

TEST(FedProx, LimitsDriftRelativeToFedAvg) {
  // Under strong heterogeneity the FedProx global model's round-to-round
  // movement is smaller; proxy check: the two algorithms produce
  // different results (the prox term is live).
  auto cfg = fast_config();
  auto [fed1, g1] = make_grouped_federation(4, 400, 25, cfg);
  auto [fed2, g2] = make_grouped_federation(4, 400, 25, cfg);
  const fl::RunResult avg = FedAvg().run(fed1, 3);
  const fl::RunResult prox = FedProx(1.0).run(fed2, 3);
  EXPECT_NE(avg.final_accuracy.mean, prox.final_accuracy.mean);
}

TEST(Ifca, RecoversGroundTruthGroups) {
  auto [fed, groups] = make_grouped_federation(6, 480, 26, fast_config());
  Ifca algo({.num_clusters = 2, .init_perturbation = 0.05});
  const fl::RunResult r = algo.run(fed, 6);
  ASSERT_EQ(r.cluster_labels.size(), 6u);
  // Cluster identities should align with the two label groups by the end.
  EXPECT_GE(cluster::adjusted_rand_index(r.cluster_labels, groups), 0.9);
  EXPECT_GT(r.final_accuracy.mean, 0.5);
}

TEST(Ifca, DownloadCostScalesWithK) {
  auto cfg = fast_config();
  auto [fed2, g2] = make_grouped_federation(4, 320, 27, cfg);
  auto [fed4, g4] = make_grouped_federation(4, 320, 27, cfg);
  const fl::RunResult rk2 = Ifca({.num_clusters = 2}).run(fed2, 2);
  const fl::RunResult rk4 = Ifca({.num_clusters = 4}).run(fed4, 2);
  EXPECT_NEAR(static_cast<double>(rk4.final_round().cum_download) /
                  static_cast<double>(rk2.final_round().cum_download),
              2.0, 1e-9);
}

TEST(Ifca, SingleClusterDegeneratesToFedAvg) {
  auto cfg = fast_config();
  auto [fed1, g1] = make_grouped_federation(4, 320, 28, cfg);
  auto [fed2, g2] = make_grouped_federation(4, 320, 28, cfg);
  const fl::RunResult ifca = Ifca({.num_clusters = 1}).run(fed1, 3);
  const fl::RunResult avg = FedAvg().run(fed2, 3);
  EXPECT_NEAR(ifca.final_accuracy.mean, avg.final_accuracy.mean, 1e-9);
}

TEST(Cfl, SplitsUnderConflictingUpdates) {
  auto cfg = fast_config();
  auto [fed, groups] = make_grouped_federation(6, 480, 29, cfg);
  CflConfig ccfg;
  ccfg.warmup_rounds = 1;
  // Generous thresholds so the split triggers within the short test run.
  ccfg.eps1 = 1e9;
  ccfg.eps2 = 0.0;
  // 3 keeps the recursion from shattering the 6 clients past the first
  // bipartition, so the split aligns with the two ground-truth groups.
  ccfg.min_cluster_size = 3;
  Cfl algo(ccfg);
  const fl::RunResult r = algo.run(fed, 6);
  EXPECT_GT(r.final_round().num_clusters, 1u);
  // The first bipartition should reflect the two label groups.
  EXPECT_GE(cluster::adjusted_rand_index(r.cluster_labels, groups), 0.5);
}

TEST(Cfl, ConservativeThresholdsNeverSplit) {
  auto [fed, groups] = make_grouped_federation(4, 320, 30, fast_config());
  CflConfig ccfg;
  ccfg.eps1 = 0.0;  // mean norm can never be below zero
  ccfg.eps2 = 1e9;
  Cfl algo(ccfg);
  const fl::RunResult r = algo.run(fed, 4);
  EXPECT_EQ(r.final_round().num_clusters, 1u);
  for (std::size_t l : r.cluster_labels) EXPECT_EQ(l, 0u);
}

TEST(Pacfl, ClusterAssignmentsMatchDataGroups) {
  auto [fed, groups] = make_grouped_federation(6, 480, 31, fast_config());
  Pacfl algo({.subspace_rank = 2, .samples_per_class_cap = 20});
  Matrix dis;
  std::uint64_t upload = 0;
  const std::vector<std::size_t> labels =
      algo.cluster_clients(fed, &dis, &upload);
  EXPECT_EQ(labels.size(), 6u);
  EXPECT_GT(upload, 0u);
  EXPECT_GE(cluster::adjusted_rand_index(labels, groups), 0.9);
  // Within-group principal angles smaller than across-group.
  EXPECT_GT(cluster::block_contrast(dis, groups), 1.05);
}

TEST(Pacfl, FullRunImprovesOverInitialModel) {
  auto [fed, groups] = make_grouped_federation(6, 480, 32, fast_config());
  Pacfl algo({.subspace_rank = 2, .samples_per_class_cap = 20});
  const fl::RunResult r = algo.run(fed, 5);
  EXPECT_EQ(r.algorithm, "PACFL");
  EXPECT_GT(r.final_accuracy.mean, r.rounds.front().acc_mean);
  EXPECT_GT(r.final_accuracy.mean, 0.5);
}

TEST(Pacfl, RequiresFormationPlusTraining) {
  auto [fed, groups] = make_grouped_federation(4, 320, 33, fast_config());
  Pacfl algo({});
  EXPECT_THROW(algo.run(fed, 1), Error);
}

TEST(LocalOnly, NoCommunicationAndPersonalModels) {
  auto [fed, groups] = make_grouped_federation(4, 320, 36, fast_config());
  LocalOnly algo;
  const fl::RunResult r = algo.run(fed, 3);
  EXPECT_EQ(fed.comm().total(), 0u);
  // Each client is its own cluster.
  EXPECT_EQ(r.cluster_labels, (std::vector<std::size_t>{0, 1, 2, 3}));
  // Personal models fit local data well on this easy grouped task.
  EXPECT_GT(r.final_accuracy.mean, 0.5);
}

TEST(LocalOnly, WeightsPersistAcrossRounds) {
  auto cfg = fast_config();
  auto [fed3, g3] = make_grouped_federation(4, 320, 37, cfg);
  auto [fed1, g1] = make_grouped_federation(4, 320, 37, cfg);
  // 3 rounds of LocalOnly should beat 1 round (training accumulates).
  const double acc3 = LocalOnly().run(fed3, 3).final_accuracy.mean;
  const double acc1 = LocalOnly().run(fed1, 1).final_accuracy.mean;
  EXPECT_GE(acc3, acc1);
}

TEST(FedAvgM, ZeroMomentumMatchesFedAvg) {
  auto cfg = fast_config();
  auto [fed1, g1] = make_grouped_federation(4, 320, 38, cfg);
  auto [fed2, g2] = make_grouped_federation(4, 320, 38, cfg);
  const double m = FedAvgM(0.0).run(fed1, 3).final_accuracy.mean;
  const double a = FedAvg().run(fed2, 3).final_accuracy.mean;
  EXPECT_NEAR(m, a, 1e-9);
}

TEST(FedAvgM, MomentumChangesTrajectory) {
  auto cfg = fast_config();
  auto [fed1, g1] = make_grouped_federation(4, 320, 39, cfg);
  auto [fed2, g2] = make_grouped_federation(4, 320, 39, cfg);
  const double m = FedAvgM(0.9).run(fed1, 3).final_accuracy.mean;
  const double a = FedAvg().run(fed2, 3).final_accuracy.mean;
  EXPECT_NE(m, a);
}

TEST(FedAvgM, CommCostMatchesFedAvg) {
  auto cfg = fast_config();
  auto [fed, groups] = make_grouped_federation(4, 320, 40, cfg);
  FedAvgM algo(0.9);
  algo.run(fed, 2);
  const std::uint64_t model_bytes =
      fl::CommMeter::float_bytes(fed.model_size());
  EXPECT_EQ(fed.comm().total_upload(), model_bytes * 4 * 2);
}

TEST(FedPer, SharesOnlyTheBase) {
  auto cfg = fast_config();
  auto [fed, groups] = make_grouped_federation(4, 320, 55, cfg);
  FedPer algo;
  const fl::RunResult r = algo.run(fed, 3);
  const auto head =
      nn::resolve_partial_slices(fed.template_model(), "final+bias");
  const std::uint64_t base_bytes = fl::CommMeter::float_bytes(
      fed.model_size() - nn::slices_numel(head));
  // 4 clients × 3 rounds, base-only in both directions.
  EXPECT_EQ(fed.comm().total_upload(), base_bytes * 4 * 3);
  EXPECT_EQ(fed.comm().total_download(), base_bytes * 4 * 3);
  EXPECT_GT(r.final_accuracy.mean, 0.3);
}

TEST(FedPer, PersonalHeadsHelpUnderGroupStructure) {
  auto cfg = fast_config();
  auto [fed1, g1] = make_grouped_federation(6, 480, 56, cfg);
  auto [fed2, g2] = make_grouped_federation(6, 480, 56, cfg);
  const double per = FedPer().run(fed1, 5).final_accuracy.mean;
  const double avg = FedAvg().run(fed2, 5).final_accuracy.mean;
  EXPECT_GT(per, avg - 0.05);  // at minimum competitive; usually above
}

TEST(FedPer, RejectsHeadCoveringWholeModel) {
  auto cfg = fast_config();
  auto [fed, groups] = make_grouped_federation(4, 320, 57, cfg);
  FedPer algo({.head_spec = "all"});
  EXPECT_THROW(algo.run(fed, 2), Error);
}

// -- shared helper -------------------------------------------------------------

TEST(PerClusterRound, ValidatesLabels) {
  auto [fed, groups] = make_grouped_federation(4, 320, 34, fast_config());
  std::vector<std::vector<float>> weights{
      fed.template_model().flat_weights()};
  std::vector<std::size_t> bad_labels(fed.num_clients(), 1);  // no model 1
  fed.comm().begin_round(0);
  EXPECT_THROW(per_cluster_fedavg_round(fed, 0, bad_labels, weights), Error);
}

TEST(PerClusterRound, OnlyTouchedClustersChange) {
  auto cfg = fast_config();
  cfg.participation = 0.5;  // 2 of 4 clients
  auto [fed, groups] = make_grouped_federation(4, 320, 35, cfg);
  std::vector<std::vector<float>> weights(
      2, fed.template_model().flat_weights());
  // Clients 0,2 -> cluster 0; clients 1,3 -> cluster 1.
  const std::vector<std::size_t> labels{0, 1, 0, 1};
  const std::vector<float> before0 = weights[0];
  const std::vector<float> before1 = weights[1];
  fed.comm().begin_round(0);
  per_cluster_fedavg_round(fed, 0, labels, weights);
  const auto sampled = fed.sample_clients(0);
  std::set<std::size_t> touched;
  for (std::size_t cid : sampled) touched.insert(labels[cid]);
  if (!touched.count(0)) {
    EXPECT_EQ(weights[0], before0);
  }
  if (!touched.count(1)) {
    EXPECT_EQ(weights[1], before1);
  }
  for (std::size_t t : touched) {
    EXPECT_NE(weights[t], t == 0 ? before0 : before1);
  }
}

}  // namespace
}  // namespace fedclust::algorithms
