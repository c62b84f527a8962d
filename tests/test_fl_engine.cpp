// Tests for the FL engine: comm meter, local trainer, federation
// determinism, weighted averaging, and evaluation plumbing.
#include "fl/federation.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "fl/metrics.hpp"
#include "fl/trace.hpp"
#include "nn/layers.hpp"
#include "test_helpers.hpp"

namespace fedclust::fl {
namespace {

using testing::make_dirichlet_federation;
using testing::make_grouped_federation;
using testing::tiny_pool;

// -- CommMeter ----------------------------------------------------------------

TEST(CommMeter, AccumulatesPerRoundAndTotals) {
  CommMeter m;
  m.begin_round(0);
  m.download(100);
  m.upload(40);
  m.begin_round(1);
  m.download(10);
  EXPECT_EQ(m.total_download(), 110u);
  EXPECT_EQ(m.total_upload(), 40u);
  EXPECT_EQ(m.total(), 150u);
  EXPECT_EQ(m.round_download()[0], 100u);
  EXPECT_EQ(m.round_download()[1], 10u);
  EXPECT_EQ(m.round_upload()[1], 0u);
}

TEST(CommMeter, EnforcesRoundOrdering) {
  CommMeter m;
  EXPECT_THROW(m.download(1), Error);
  m.begin_round(0);
  EXPECT_THROW(m.begin_round(2), Error);
  m.reset();
  EXPECT_EQ(m.total(), 0u);
  m.begin_round(0);  // ordering restarts after reset
  // The cohort overload obeys the same ordering.
  const std::vector<std::size_t> cohort = {3, 1};
  EXPECT_THROW(m.begin_round(0, cohort), Error);
  m.begin_round(1, cohort);
  EXPECT_EQ(m.round_count(), 2u);
}

TEST(CommMeter, FloatBytes) {
  EXPECT_EQ(CommMeter::float_bytes(10), 40u);
  EXPECT_EQ(CommMeter::float_bytes(0), 0u);
}

TEST(CommMeter, RestoreRefusesInconsistentTotals) {
  CommMeter m;
  EXPECT_THROW(m.restore({100, 10}, {40}, 110, 40), Error);  // lengths
  EXPECT_THROW(m.restore({100, 10}, {40, 0}, 111, 40), Error);  // download
  EXPECT_THROW(m.restore({100, 10}, {40, 0}, 110, 39), Error);  // upload
  m.restore({100, 10}, {40, 0}, 110, 40);
  EXPECT_EQ(m.round_count(), 2u);
  EXPECT_EQ(m.total(), 150u);
  m.begin_round(2);  // metering continues after the restored rounds
  m.upload(5);
  EXPECT_EQ(m.total_upload(), 45u);
}

// -- local trainer ------------------------------------------------------------

TEST(TrainLocal, ReducesLoss) {
  const data::Dataset pool = tiny_pool(200, 1);
  nn::Model model = nn::mlp({1, 8, 8, 4}, 16);
  Rng init(2);
  model.init_params(init);

  const EvalResult before = evaluate(model, pool);
  LocalTrainConfig cfg;
  cfg.epochs = 5;
  cfg.batch_size = 20;
  cfg.sgd.lr = 0.05;
  train_local(model, pool, cfg, Rng(3));
  const EvalResult after = evaluate(model, pool);
  EXPECT_LT(after.loss, before.loss * 0.8);
  EXPECT_GT(after.accuracy, before.accuracy);
}

TEST(TrainLocal, DeterministicGivenRng) {
  const data::Dataset pool = tiny_pool(100, 4);
  LocalTrainConfig cfg;
  cfg.epochs = 2;
  cfg.sgd.lr = 0.05;

  nn::Model a = nn::mlp({1, 8, 8, 4}, 16);
  Rng init(5);
  a.init_params(init);
  nn::Model b = a.clone();

  train_local(a, pool, cfg, Rng(6));
  train_local(b, pool, cfg, Rng(6));
  EXPECT_EQ(a.flat_weights(), b.flat_weights());
}

TEST(TrainLocal, FirstConvNeverFormsItsInputGradient) {
  // Model::backward runs only the parameter half of conv1's backward, so
  // the grad-columns workspace of its im2col input gradient stays empty;
  // conv2 still needs its input gradient and fills that slot.
  data::SyntheticSpec spec = testing::tiny_image_spec();
  spec.image = {1, 28, 28, 4};
  const data::SyntheticGenerator gen(spec, 14);
  Rng data_rng(15);
  const data::Dataset pool = gen.generate(40, data_rng);
  nn::Model model = nn::lenet5(spec.image);
  Rng init(16);
  model.init_params(init);
  LocalTrainConfig cfg;
  cfg.epochs = 2;
  cfg.batch_size = 16;
  cfg.sgd.lr = 0.05;
  train_local(model, pool, cfg, Rng(17));

  const auto& conv1 = dynamic_cast<const nn::Conv2d&>(model.layer(0));
  const auto& conv2 = dynamic_cast<const nn::Conv2d&>(model.layer(3));
  EXPECT_GT(conv1.scratch_capacity(nn::Conv2d::kColumns), 0u);
  EXPECT_EQ(conv1.scratch_capacity(nn::Conv2d::kGradColumns), 0u);
  EXPECT_GT(conv2.scratch_capacity(nn::Conv2d::kGradColumns), 0u);
}

nn::Model dropout_mlp() {
  nn::Model m;
  m.emplace<nn::Flatten>();
  m.emplace<nn::Linear>(64, 16);
  m.emplace<nn::ReLU>();
  m.emplace<nn::Dropout>(0.5);
  m.emplace<nn::Linear>(16, 4);
  return m;
}

TEST(TrainLocalDropout, MasksAreDecorrelatedAcrossClients) {
  // Regression: train_local must reseed each clone's Dropout layers from
  // the client's RNG stream. Before the fix every clone kept the layer's
  // constructor seed, so all clients drew bit-identical mask sequences.
  // With a single-sample dataset the batch shuffle is a no-op and the
  // dropout mask is the ONLY stochastic input — identical final weights
  // would prove the masks were shared.
  const data::Dataset one = tiny_pool(1, 11);
  LocalTrainConfig cfg;
  cfg.epochs = 2;
  cfg.batch_size = 1;
  cfg.sgd.lr = 0.1;

  nn::Model tmpl = dropout_mlp();
  Rng init(12);
  tmpl.init_params(init);

  // Per-(client, round) streams exactly as Federation derives them.
  nn::Model a = tmpl.clone();
  nn::Model b = tmpl.clone();
  train_local(a, one, cfg, Rng(13).split(0x10000).split(0));
  train_local(b, one, cfg, Rng(13).split(0x10001).split(0));
  EXPECT_NE(a.flat_weights(), b.flat_weights());

  // Same (client, round) stream must still replay bit-identically.
  nn::Model c = tmpl.clone();
  train_local(c, one, cfg, Rng(13).split(0x10000).split(0));
  EXPECT_EQ(a.flat_weights(), c.flat_weights());
}

TEST(TrainLocal, ProxKeepsWeightsCloserToStart) {
  const data::Dataset pool = tiny_pool(150, 7);
  nn::Model base = nn::mlp({1, 8, 8, 4}, 16);
  Rng init(8);
  base.init_params(init);
  const std::vector<float> w0 = base.flat_weights();

  auto drift = [&](double mu) {
    nn::Model m = base.clone();
    LocalTrainConfig cfg;
    cfg.epochs = 4;
    cfg.sgd.lr = 0.05;
    cfg.sgd.prox_mu = mu;
    train_local(m, pool, cfg, Rng(9));
    const std::vector<float> w = m.flat_weights();
    double d = 0.0;
    for (std::size_t i = 0; i < w.size(); ++i) {
      d += (w[i] - w0[i]) * (w[i] - w0[i]);
    }
    return d;
  };
  EXPECT_LT(drift(1.0), drift(0.0));
}

TEST(TrainLocal, RejectsEmptyDatasetAndZeroEpochs) {
  data::Dataset empty({1, 8, 8, 4});
  nn::Model m = nn::mlp({1, 8, 8, 4}, 8);
  LocalTrainConfig cfg;
  EXPECT_THROW(train_local(m, empty, cfg, Rng(1)), Error);
  const data::Dataset pool = tiny_pool(20, 1);
  cfg.epochs = 0;
  EXPECT_THROW(train_local(m, pool, cfg, Rng(1)), Error);
}

// -- weighted average -----------------------------------------------------------

TEST(WeightedAverage, WeightsBySampleCount) {
  ClientUpdate a{0, {1.0f, 2.0f}, 1, 0.0f};
  ClientUpdate b{1, {4.0f, 8.0f}, 3, 0.0f};
  const auto avg = weighted_average({a, b});
  EXPECT_NEAR(avg[0], (1.0 * 1 + 4.0 * 3) / 4.0, 1e-6);
  EXPECT_NEAR(avg[1], (2.0 * 1 + 8.0 * 3) / 4.0, 1e-6);
}

TEST(WeightedAverage, SingleUpdateIdentity) {
  ClientUpdate a{0, {3.0f, -1.0f}, 5, 0.0f};
  EXPECT_EQ(weighted_average({a}), a.weights);
}

TEST(WeightedAverage, ValidatesInput) {
  EXPECT_THROW(weighted_average({}), Error);
  ClientUpdate a{0, {1.0f}, 1, 0.0f};
  ClientUpdate b{1, {1.0f, 2.0f}, 1, 0.0f};
  EXPECT_THROW(weighted_average({a, b}), Error);
  ClientUpdate c{2, {1.0f}, 0, 0.0f};
  EXPECT_THROW(weighted_average({a, c}), Error);
}

// -- federation ----------------------------------------------------------------

TEST(Federation, ValidatesConstruction) {
  nn::Model model = nn::mlp({1, 8, 8, 4}, 8);
  Rng init(1);
  model.init_params(init);
  EXPECT_THROW(fl::Federation(model.clone(), std::vector<ClientData>{}, {}),
               Error);

  FederationConfig bad;
  bad.participation = 0.0;
  const data::Dataset pool = tiny_pool(40, 2);
  std::vector<ClientData> clients{{pool, pool}};
  EXPECT_THROW(fl::Federation(model.clone(), clients, bad), Error);
}

TEST(Federation, SampleClientsFullParticipation) {
  auto [fed, groups] = make_grouped_federation(6);
  const auto ids = fed.sample_clients(0);
  EXPECT_EQ(ids.size(), 6u);
  for (std::size_t i = 0; i < 6; ++i) EXPECT_EQ(ids[i], i);
}

TEST(Federation, SampleClientsPartialParticipation) {
  FederationConfig cfg;
  cfg.participation = 0.5;
  auto [fed, groups] = make_grouped_federation(6, 480, 42, cfg);
  const auto r0 = fed.sample_clients(0);
  EXPECT_EQ(r0.size(), 3u);
  // Different rounds sample different subsets (with overwhelming
  // probability for this seed).
  const auto r1 = fed.sample_clients(1);
  EXPECT_EQ(fed.sample_clients(0), r0);  // same round -> same subset
  EXPECT_TRUE(r0 != r1 || fed.sample_clients(2) != r0);
}

TEST(Federation, ClientRngIndependentOfOrder) {
  auto [fed, groups] = make_grouped_federation(4);
  Rng a = fed.client_rng(2, 5);
  Rng b = fed.client_rng(2, 5);
  EXPECT_EQ(a(), b());
  Rng c = fed.client_rng(3, 5);
  Rng d = fed.client_rng(2, 6);
  EXPECT_NE(a(), c());
  EXPECT_NE(b(), d());
}

TEST(Federation, TrainClientsIsDeterministicAcrossThreadCounts) {
  FederationConfig one;
  one.threads = 1;
  one.local.epochs = 1;
  one.local.sgd.lr = 0.05;
  FederationConfig four = one;
  four.threads = 4;

  auto [fed1, g1] = make_grouped_federation(4, 320, 11, one);
  auto [fed4, g4] = make_grouped_federation(4, 320, 11, four);

  const std::vector<float> w0 = fed1.template_model().flat_weights();
  const std::vector<std::size_t> everyone{0, 1, 2, 3};
  auto start = [&](std::size_t) { return std::span<const float>(w0); };
  const auto u1 = fed1.train_clients(everyone, 0, start);
  const auto u4 = fed4.train_clients(everyone, 0, start);
  ASSERT_EQ(u1.size(), u4.size());
  for (std::size_t i = 0; i < u1.size(); ++i) {
    EXPECT_EQ(u1[i].client_id, u4[i].client_id);
    EXPECT_EQ(u1[i].weights, u4[i].weights) << "client " << i;
  }
}

TEST(Federation, TrainClientsImprovesLocalFit) {
  FederationConfig cfg;
  cfg.local.epochs = 3;
  cfg.local.sgd.lr = 0.05;
  auto [fed, groups] = make_grouped_federation(4, 320, 12, cfg);
  const std::vector<float> w0 = fed.template_model().flat_weights();
  const auto updates = fed.train_clients(
      {0}, 0, [&](std::size_t) { return std::span<const float>(w0); });
  ASSERT_EQ(updates.size(), 1u);
  // Client 0's trained weights beat the initial weights on its own data.
  const double before = fed.client_train_loss(0, w0);
  const double after = fed.client_train_loss(0, updates[0].weights);
  EXPECT_LT(after, before);
}

TEST(Federation, EvaluatePersonalizedAveragesClients) {
  auto [fed, groups] = make_grouped_federation(4);
  const std::vector<float> w = fed.template_model().flat_weights();
  const AccuracySummary acc =
      fed.evaluate_personalized([&](std::size_t) { return std::span<const float>(w); });
  ASSERT_EQ(acc.per_client.size(), 4u);
  double mean = 0.0;
  for (double a : acc.per_client) mean += a / 4.0;
  EXPECT_NEAR(acc.mean, mean, 1e-12);
  EXPECT_GE(acc.std, 0.0);
}

// -- failure injection ---------------------------------------------------------

TEST(Dropout, ZeroMeansNoFailures) {
  auto [fed, groups] = make_grouped_federation(4);
  for (std::size_t c = 0; c < 4; ++c) {
    for (std::size_t r = 0; r < 5; ++r) {
      EXPECT_FALSE(fed.client_fails(c, r));
    }
  }
}

TEST(Dropout, FailureRateMatchesProbability) {
  FederationConfig cfg;
  cfg.dropout = 0.3;
  auto [fed, groups] = make_grouped_federation(4, 320, 70, cfg);
  std::size_t failures = 0;
  constexpr std::size_t kTrials = 2000;
  for (std::size_t r = 0; r < kTrials / 4; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      if (fed.client_fails(c, r)) ++failures;
    }
  }
  EXPECT_NEAR(static_cast<double>(failures) / kTrials, 0.3, 0.05);
  // Deterministic: the same (client, round) always gives the same answer.
  EXPECT_EQ(fed.client_fails(2, 7), fed.client_fails(2, 7));
}

TEST(Dropout, FailedClientsProduceNoUpdates) {
  FederationConfig cfg;
  cfg.dropout = 1.0;
  cfg.local.epochs = 1;
  cfg.local.sgd.lr = 0.05;
  auto [fed, groups] = make_grouped_federation(4, 320, 71, cfg);
  const std::vector<float> w0 = fed.template_model().flat_weights();
  const std::vector<std::size_t> everyone{0, 1, 2, 3};
  const auto updates = fed.train_clients(
      everyone, 0, [&](std::size_t) { return std::span<const float>(w0); });
  EXPECT_TRUE(updates.empty());

  // allow_failures=false overrides the injection (formation round).
  const auto forced = fed.train_clients(
      everyone, 0, [&](std::size_t) { return std::span<const float>(w0); },
      nullptr, /*allow_failures=*/false);
  EXPECT_EQ(forced.size(), 4u);
}

TEST(Dropout, FedAvgSurvivesTotalDropoutRound) {
  FederationConfig cfg;
  cfg.dropout = 1.0;
  cfg.local.epochs = 1;
  cfg.local.sgd.lr = 0.05;
  auto [fed, groups] = make_grouped_federation(4, 320, 72, cfg);
  // With everyone failing every round the global model must simply stay
  // at the initialization — no crash, no NaN.
  std::vector<std::vector<float>> weights{
      fed.template_model().flat_weights()};
  const std::vector<float> before = weights[0];
  fed.comm().begin_round(0);
  const auto updates = fed.train_clients(
      {0, 1, 2, 3}, 0,
      [&](std::size_t) { return std::span<const float>(weights[0]); });
  EXPECT_TRUE(updates.empty());
  EXPECT_EQ(weights[0], before);
}

// -- metrics -------------------------------------------------------------------

TEST(RunResult, RoundsToAccuracy) {
  RunResult r;
  r.rounds.push_back({0, 0.3, 0.0, 1.0, 100, 200, 1});
  r.rounds.push_back({1, 0.6, 0.0, 0.5, 300, 500, 1});
  std::size_t round = 0;
  std::uint64_t bytes = 0;
  EXPECT_TRUE(r.rounds_to_accuracy(0.5, round, bytes));
  EXPECT_EQ(round, 1u);
  EXPECT_EQ(bytes, 800u);
  EXPECT_FALSE(r.rounds_to_accuracy(0.9, round, bytes));
  EXPECT_EQ(r.final_round().round, 1u);
}

TEST(RunResult, FinalRoundOnEmptyThrows) {
  RunResult r;
  EXPECT_THROW(r.final_round(), Error);
}

// -- trace writers ---------------------------------------------------------

RunResult sample_run() {
  RunResult r;
  r.algorithm = "Demo";
  r.rounds.push_back({0, 0.25, 0.1, 2.0, 100, 200, 3});
  r.rounds.push_back({1, 0.5, 0.05, 1.0, 300, 600, 3});
  r.cluster_labels = {0, 1, 0};
  r.final_accuracy.mean = 0.5;
  r.final_accuracy.per_client = {0.4, 0.5, 0.6};
  return r;
}

TEST(Trace, RoundsCsvHasHeaderAndRows) {
  const std::string csv = rounds_to_csv(sample_run());
  EXPECT_NE(csv.find("algorithm,round,acc_mean"), std::string::npos);
  EXPECT_NE(csv.find("Demo,0,0.25,0.1,2,100,200,3"), std::string::npos);
  EXPECT_NE(csv.find("Demo,1,0.5,0.05,1,300,600,3"), std::string::npos);
}

TEST(Trace, MultiRunCsvSharesOneHeader) {
  const std::string csv = rounds_to_csv(std::vector<RunResult>{
      sample_run(), sample_run()});
  std::size_t headers = 0;
  std::size_t pos = 0;
  while ((pos = csv.find("algorithm,round", pos)) != std::string::npos) {
    ++headers;
    ++pos;
  }
  EXPECT_EQ(headers, 1u);
}

TEST(Trace, ClientsCsvOneRowPerClient) {
  const std::string csv = clients_to_csv(sample_run());
  EXPECT_NE(csv.find("Demo,0,0,0.4"), std::string::npos);
  EXPECT_NE(csv.find("Demo,1,1,0.5"), std::string::npos);
  EXPECT_NE(csv.find("Demo,2,0,0.6"), std::string::npos);
}

TEST(Trace, ClientsCsvValidatesConsistency) {
  RunResult r = sample_run();
  r.cluster_labels.pop_back();
  EXPECT_THROW(clients_to_csv(r), Error);
}

TEST(Trace, WriteTextFileRoundTrip) {
  const std::string path = "/tmp/fedclust_trace_test.csv";
  write_text_file(path, "hello\n");
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "hello");
  std::filesystem::remove(path);
  EXPECT_THROW(write_text_file("/nonexistent-dir/x.csv", "y"), Error);
}

}  // namespace
}  // namespace fedclust::fl
