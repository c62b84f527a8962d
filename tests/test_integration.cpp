// Cross-module integration tests: every algorithm end-to-end on the same
// federation, plus system-level invariants (determinism, comm-cost
// ordering, clustered-methods-beat-global under group structure).
// AlgorithmReuse pins that begin() resets all per-run state: one
// instance run twice reproduces its trajectory bit for bit.
#include <gtest/gtest.h>

#include "algorithms/cfl.hpp"
#include "algorithms/fedavg.hpp"
#include "algorithms/fedper.hpp"
#include "algorithms/ifca.hpp"
#include "algorithms/local_only.hpp"
#include "algorithms/pacfl.hpp"
#include "cluster/metrics.hpp"
#include "core/fedclust.hpp"
#include "test_helpers.hpp"

namespace fedclust {
namespace {

using testing::make_grouped_federation;

fl::FederationConfig fast_config() {
  fl::FederationConfig cfg;
  cfg.local.epochs = 2;
  cfg.local.batch_size = 16;
  cfg.local.sgd.lr = 0.05;
  cfg.threads = 2;
  return cfg;
}

std::vector<std::unique_ptr<fl::Algorithm>> all_algorithms() {
  std::vector<std::unique_ptr<fl::Algorithm>> algos;
  algos.push_back(std::make_unique<algorithms::FedAvg>());
  algos.push_back(std::make_unique<algorithms::FedProx>(0.1));
  algos.push_back(std::make_unique<algorithms::Cfl>(algorithms::CflConfig{
      .eps1 = 1e9, .eps2 = 0.0, .warmup_rounds = 1}));
  algos.push_back(std::make_unique<algorithms::Ifca>(
      algorithms::IfcaConfig{.num_clusters = 2}));
  algos.push_back(std::make_unique<algorithms::Pacfl>(algorithms::PacflConfig{
      .subspace_rank = 2, .samples_per_class_cap = 16}));
  algos.push_back(
      std::make_unique<core::FedClust>(core::FedClustConfig{.warmup_epochs = 2}));
  algos.push_back(std::make_unique<algorithms::FedAvgM>(0.9));
  algos.push_back(std::make_unique<algorithms::FedPer>());
  algos.push_back(std::make_unique<algorithms::LocalOnly>());
  return algos;
}

class AlgorithmSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(AlgorithmSweep, RunsEndToEndWithSaneOutputs) {
  const std::size_t idx = GetParam();
  auto algos = all_algorithms();
  auto [fed, groups] = make_grouped_federation(6, 480, 60, fast_config());
  fl::Algorithm& algo = *algos[idx];

  const std::size_t rounds = 4;
  const fl::RunResult r = algo.run(fed, rounds);

  EXPECT_FALSE(r.algorithm.empty());
  ASSERT_FALSE(r.rounds.empty());
  EXPECT_EQ(r.cluster_labels.size(), 6u);
  EXPECT_EQ(r.final_accuracy.per_client.size(), 6u);
  EXPECT_GE(r.final_accuracy.mean, 0.0);
  EXPECT_LE(r.final_accuracy.mean, 1.0);
  // Rounds are recorded in order with monotone cumulative traffic.
  for (std::size_t i = 1; i < r.rounds.size(); ++i) {
    EXPECT_GT(r.rounds[i].round, r.rounds[i - 1].round);
    EXPECT_GE(r.rounds[i].cum_upload, r.rounds[i - 1].cum_upload);
    EXPECT_GE(r.rounds[i].cum_download, r.rounds[i - 1].cum_download);
  }
  // Evaluated final round is the last round.
  EXPECT_EQ(r.final_round().round, rounds - 1);
  // The model actually learned something.
  EXPECT_GT(r.final_accuracy.mean, 0.3);
}

std::string algorithm_param_name(
    const ::testing::TestParamInfo<std::size_t>& info) {
  static const char* const names[] = {"FedAvg",   "FedProx", "CFL",
                                      "IFCA",     "PACFL",   "FedClust",
                                      "FedAvgM",  "FedPer",  "LocalOnly"};
  return names[info.param];
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, AlgorithmSweep,
                         ::testing::Range<std::size_t>(0, 9),
                         algorithm_param_name);

TEST(Integration, ClusteredMethodsBeatGlobalUnderGroupStructure) {
  auto cfg = fast_config();
  double fedavg_acc = 0.0;
  double fedclust_acc = 0.0;
  {
    auto [fed, groups] = make_grouped_federation(6, 480, 61, cfg);
    fedavg_acc = algorithms::FedAvg().run(fed, 5).final_accuracy.mean;
  }
  {
    auto [fed, groups] = make_grouped_federation(6, 480, 61, cfg);
    fedclust_acc = core::FedClust({.warmup_epochs = 2})
                       .run(fed, 5)
                       .final_accuracy.mean;
  }
  EXPECT_GT(fedclust_acc, fedavg_acc);
}

TEST(Integration, FedClustClusteringAgreesWithIfcaAndPacfl) {
  auto cfg = fast_config();
  std::vector<std::size_t> labels_fc, labels_ifca, labels_pacfl;
  std::vector<std::size_t> groups_ref;
  {
    auto [fed, groups] = make_grouped_federation(6, 480, 62, cfg);
    groups_ref = groups;
    labels_fc = core::FedClust({.warmup_epochs = 2}).run(fed, 3).cluster_labels;
  }
  {
    auto [fed, groups] = make_grouped_federation(6, 480, 62, cfg);
    // IFCA's identity estimation is sensitive to the initial model
    // perturbation; 0.1 breaks symmetry reliably at this scale.
    labels_ifca = algorithms::Ifca({.num_clusters = 2,
                                    .init_perturbation = 0.1})
                      .run(fed, 5)
                      .cluster_labels;
  }
  {
    auto [fed, groups] = make_grouped_federation(6, 480, 62, cfg);
    labels_pacfl = algorithms::Pacfl({.subspace_rank = 2,
                                      .samples_per_class_cap = 16})
                       .run(fed, 3)
                       .cluster_labels;
  }
  // All three clusterings recover the same ground truth, hence agree
  // pairwise up to label permutation.
  EXPECT_GE(cluster::adjusted_rand_index(labels_fc, groups_ref), 0.9);
  EXPECT_GE(cluster::adjusted_rand_index(labels_ifca, labels_fc), 0.9);
  EXPECT_GE(cluster::adjusted_rand_index(labels_pacfl, labels_fc), 0.9);
}

TEST(Integration, FedClustClusteringRoundCheaperThanCflTotal) {
  // The headline efficiency claim: FedClust pays one partial-weight
  // upload for clustering; CFL pays full-model traffic every round while
  // clusters slowly form.
  auto cfg = fast_config();
  std::uint64_t fedclust_formation_upload = 0;
  std::uint64_t cfl_total_upload = 0;
  {
    auto [fed, groups] = make_grouped_federation(6, 480, 63, cfg);
    core::FedClust algo({.warmup_epochs = 2});
    algo.run(fed, 4);
    fedclust_formation_upload = fed.comm().round_upload()[0];
  }
  {
    auto [fed, groups] = make_grouped_federation(6, 480, 63, cfg);
    algorithms::Cfl algo({.eps1 = 1e9, .eps2 = 0.0, .warmup_rounds = 1});
    algo.run(fed, 4);
    cfl_total_upload = fed.comm().total_upload();
  }
  EXPECT_LT(fedclust_formation_upload * 10, cfl_total_upload);
}

TEST(Integration, WholePipelineDeterministicAcrossThreadCounts) {
  auto run_with_threads = [&](std::size_t threads) {
    fl::FederationConfig cfg = fast_config();
    cfg.threads = threads;
    auto [fed, groups] = make_grouped_federation(4, 320, 64, cfg);
    return core::FedClust({.warmup_epochs = 2}).run(fed, 3);
  };
  const fl::RunResult a = run_with_threads(1);
  const fl::RunResult b = run_with_threads(4);
  EXPECT_EQ(a.cluster_labels, b.cluster_labels);
  EXPECT_DOUBLE_EQ(a.final_accuracy.mean, b.final_accuracy.mean);
}

TEST(Integration, AlgorithmsSurviveClientChurn) {
  // 30% of sampled clients fail each round; every algorithm must still
  // complete and learn.
  fl::FederationConfig cfg = fast_config();
  cfg.dropout = 0.3;
  for (const std::size_t idx : {std::size_t{0}, std::size_t{3},
                                std::size_t{5}}) {  // FedAvg, IFCA, FedClust
    auto algos = all_algorithms();
    auto [fed, groups] = make_grouped_federation(6, 480, 80, cfg);
    const fl::RunResult r = algos[idx]->run(fed, 4);
    EXPECT_GT(r.final_accuracy.mean, 0.25) << r.algorithm;
    EXPECT_FALSE(r.rounds.empty()) << r.algorithm;
  }
}

TEST(Integration, DropoutChangesButDoesNotBreakDeterminism) {
  fl::FederationConfig cfg = fast_config();
  cfg.dropout = 0.25;
  auto run_once = [&]() {
    auto [fed, groups] = make_grouped_federation(4, 320, 81, cfg);
    return algorithms::FedAvg().run(fed, 3).final_accuracy.mean;
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

TEST(Integration, QuantitySkewFederationTrainsEndToEnd) {
  const data::Dataset pool = testing::tiny_pool(480, 82);
  Rng prng = Rng(82).split(3);
  const partition::Partition part =
      partition::quantity_skew_partition(pool, 6, 0.4, prng, 20);
  nn::Model model = nn::mlp({1, 8, 8, 4}, 16);
  Rng init = Rng(82).split(4);
  model.init_params(init);
  fl::FederationConfig cfg = fast_config();
  cfg.seed = 82;
  fl::Federation fed(std::move(model),
                     testing::make_clients(pool, part, 82), cfg);
  const fl::RunResult r = algorithms::FedAvg().run(fed, 4);
  // Quantity skew alone (IID labels) is easy for FedAvg.
  EXPECT_GT(r.final_accuracy.mean, 0.5);
}

TEST(Integration, FeatureSkewFederationTrainsEndToEnd) {
  const data::Dataset pool = testing::tiny_pool(480, 83);
  Rng prng = Rng(83).split(3);
  auto datasets = partition::feature_skew_split(pool, 6, 0.8, prng);
  std::vector<fl::ClientData> clients;
  Rng split_rng = Rng(83).split(5);
  for (auto& ds : datasets) {
    auto [train, test] = ds.stratified_split(0.25, split_rng);
    clients.push_back({std::move(train), std::move(test)});
  }
  nn::Model model = nn::mlp({1, 8, 8, 4}, 16);
  Rng init = Rng(83).split(4);
  model.init_params(init);
  fl::FederationConfig cfg = fast_config();
  cfg.seed = 83;
  fl::Federation fed(std::move(model), std::move(clients), cfg);
  const fl::RunResult r = algorithms::FedAvg().run(fed, 4);
  EXPECT_GT(r.final_accuracy.mean, 0.3);
  // The noisiest client should be the hardest one.
  EXPECT_LT(r.final_accuracy.per_client.back(),
            r.final_accuracy.per_client.front() + 1e-9 + 0.5);
}

TEST(Integration, HcCutKOnFedClustWeightsRecoversGroups) {
  // Under crisp group structure, a two-cluster cut of the dendrogram over
  // the weight vectors FedClust collects recovers the ground truth.
  auto [fed, groups] = make_grouped_federation(6, 480, 84, fast_config());
  core::FedClust algo({.warmup_epochs = 3});
  const core::ClusteringOutcome out = algo.form_clusters(fed);
  EXPECT_GE(cluster::adjusted_rand_index(out.dendrogram.cut_k(2), groups),
            0.9);
}

TEST(Integration, WarmStartImprovesEarlyRounds) {
  auto cfg = fast_config();
  double cold_r1 = 0.0, warm_r1 = 0.0;
  {
    auto [fed, groups] = make_grouped_federation(6, 480, 86, cfg);
    const fl::RunResult r = core::FedClust({.warmup_epochs = 3}).run(fed, 2);
    cold_r1 = r.final_accuracy.mean;
  }
  {
    auto [fed, groups] = make_grouped_federation(6, 480, 86, cfg);
    const fl::RunResult r =
        core::FedClust({.warmup_epochs = 3, .warm_start_classifier = true})
            .run(fed, 2);
    warm_r1 = r.final_accuracy.mean;
  }
  // After a single training round the warm-started classifier should be
  // at least competitive (it usually leads).
  EXPECT_GT(warm_r1, cold_r1 - 0.05);
}

TEST(Integration, EvalEveryReducesRecordedRounds) {
  fl::FederationConfig cfg = fast_config();
  cfg.eval_every = 3;
  auto [fed, groups] = make_grouped_federation(4, 320, 65, cfg);
  const fl::RunResult r = algorithms::FedAvg().run(fed, 7);
  // Rounds 2, 5 (1-indexed multiples of 3) and the final round 6.
  ASSERT_EQ(r.rounds.size(), 3u);
  EXPECT_EQ(r.rounds[0].round, 2u);
  EXPECT_EQ(r.rounds[1].round, 5u);
  EXPECT_EQ(r.rounds[2].round, 6u);
}

// -- AlgorithmReuse (CI gate) -------------------------------------------------
// Algorithms hold their per-run state; begin() must reset all of it. One
// instance runs three times — on a fresh federation, again on that same
// federation, and on an identically built one — and every run must give
// the same trajectory.

void expect_same_run(const fl::RunResult& a, const fl::RunResult& b) {
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t i = 0; i < a.rounds.size(); ++i) {
    const fl::RoundMetrics& x = a.rounds[i];
    const fl::RoundMetrics& y = b.rounds[i];
    EXPECT_EQ(x.round, y.round) << i;
    EXPECT_EQ(x.weights_fp, y.weights_fp) << i;
    EXPECT_EQ(x.acc_mean, y.acc_mean) << i;
    EXPECT_EQ(x.acc_std, y.acc_std) << i;
    EXPECT_EQ(x.train_loss, y.train_loss) << i;
    EXPECT_EQ(x.cum_upload, y.cum_upload) << i;
    EXPECT_EQ(x.cum_download, y.cum_download) << i;
    EXPECT_EQ(x.num_clusters, y.num_clusters) << i;
    EXPECT_EQ(x.sim_seconds, y.sim_seconds) << i;
    EXPECT_EQ(x.drift_score, y.drift_score) << i;
    EXPECT_EQ(x.drift_alarms, y.drift_alarms) << i;
    EXPECT_EQ(x.reclusters, y.reclusters) << i;
  }
  EXPECT_EQ(a.cluster_labels, b.cluster_labels);
  EXPECT_EQ(a.cluster_weights, b.cluster_weights);
}

TEST(AlgorithmReuse, AllNineAlgorithmsRerunIdentically) {
  fl::FederationConfig cfg = fast_config();
  cfg.network.enabled = true;
  cfg.network.profile = net::Profile::kCellular;
  cfg.network.straggler_frac = 0.8;
  cfg.dropout = 0.1;
  auto algos = all_algorithms();
  ASSERT_EQ(algos.size(), 9u);
  for (const auto& algo : algos) {
    SCOPED_TRACE(algo->name());
    auto [fed, groups] = make_grouped_federation(6, 480, 70, cfg);
    auto [twin, twin_groups] = make_grouped_federation(6, 480, 70, cfg);
    const fl::RunResult first = algo->run(fed, 4);
    expect_same_run(first, algo->run(fed, 4));
    expect_same_run(first, algo->run(twin, 4));
  }
}

TEST(AlgorithmReuse, FedClustDynamicUnderDriftRerunsIdentically) {
  // Half of group 0 rotates its labels at round 4, and a group-1 slot
  // departs at round 5 and is re-tenanted at round 8, so a run exercises
  // churn admission, detection and split/merge recovery.
  auto [probe, groups] = make_grouped_federation(8, 640, 42);
  std::vector<std::size_t> group0;
  std::size_t g1 = 0;
  for (std::size_t i = 0; i < groups.size(); ++i) {
    if (groups[i] == 0) group0.push_back(i);
  }
  while (groups[g1] != 1) ++g1;
  fl::FederationConfig cfg;
  cfg.local.epochs = 2;
  cfg.local.sgd.lr = 0.05;
  cfg.drift.enabled = true;
  robust::DriftEvent rotate;
  rotate.round = 4;
  rotate.kind = robust::DriftKind::kLabelRotation;
  rotate.slots.assign(group0.begin(), group0.begin() + group0.size() / 2);
  rotate.rotate_by = 2;
  robust::DriftEvent leave;
  leave.round = 5;
  leave.kind = robust::DriftKind::kDeparture;
  leave.slots = {g1};
  robust::DriftEvent arrive;
  arrive.round = 8;
  arrive.kind = robust::DriftKind::kArrival;
  arrive.slots = {g1};
  cfg.drift.events = {rotate, leave, arrive};

  core::FedClustConfig algo_cfg;
  algo_cfg.dynamic.enabled = true;
  algo_cfg.dynamic.detector.window = 4;
  algo_cfg.dynamic.detector.drop_threshold = 0.08;
  algo_cfg.dynamic.detector.hysteresis = 2;
  algo_cfg.dynamic.detector.cooldown = 2;
  algo_cfg.dynamic.max_recoveries = 1;
  core::FedClust algo(algo_cfg);

  constexpr std::size_t kRounds = 12;
  auto [fed, g] = make_grouped_federation(8, 640, 42, cfg);
  auto [twin, tg] = make_grouped_federation(8, 640, 42, cfg);
  const fl::RunResult first = algo.run(fed, kRounds);
  std::size_t reclusters = 0;
  for (const fl::RoundMetrics& m : first.rounds) reclusters += m.reclusters;
  // The recovery budget is spent in the first run; a rerun that kept it
  // spent (or kept the detector's windows) would diverge after the drift.
  EXPECT_EQ(reclusters, 1u);
  expect_same_run(first, algo.run(fed, kRounds));
  expect_same_run(first, algo.run(twin, kRounds));
}

}  // namespace
}  // namespace fedclust
