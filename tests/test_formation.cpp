// Tests for FedClust's streamed formation round: form_clusters trains the
// population through Federation::train_clients_into with a slice-keeping
// sink, so each runner drops the full model as soon as it has extracted
// the final-layer slice.
//  * StreamedFormation — the streamed round reproduces the gathered
//    recipe (train_clients + extract_slices + pairwise_euclidean +
//    agglomerative_cluster + the relative cut) bit for bit at 1 and 4
//    worker threads, under the plain engine, an int8 upload + download
//    codec, and audits; under crash + NaN faults with validation and
//    retry waves, reporters / deferred / resolicited / labels do not
//    depend on the thread count.
#include <gtest/gtest.h>

#include <cstring>

#include "cluster/distance.hpp"
#include "cluster/hierarchical.hpp"
#include "core/fedclust.hpp"
#include "test_helpers.hpp"

namespace fedclust {
namespace {

constexpr std::size_t kClients = 200;

fl::Federation make_federation(fl::FederationConfig cfg, std::size_t threads) {
  cfg.threads = threads;
  return testing::make_dirichlet_federation(kClients, 1.0, 60 * kClients, 11,
                                            cfg);
}

/// The gathered formation recipe: every full update held at once, then
/// sliced, then the relative-threshold cut FedClust applies by default.
struct Gathered {
  std::vector<std::vector<float>> partials;
  Matrix proximity;
  std::vector<std::size_t> labels;
};

Gathered gathered_formation(fl::Federation& fed,
                            const core::FedClustConfig& config) {
  const std::vector<nn::ParamSlice> slices =
      core::resolve_partial_slices(fed.template_model(), config.partial_spec);
  const std::vector<float> init = fed.template_model().flat_weights();
  const fl::NetPayloads payloads{fed.model_size(), core::slices_numel(slices),
                                 net::MessageKind::kPartialUpdate};
  std::vector<std::size_t> everyone(fed.num_clients());
  for (std::size_t i = 0; i < everyone.size(); ++i) everyone[i] = i;
  const std::vector<fl::ClientUpdate> updates = fed.train_clients(
      everyone, /*round=*/0,
      [&](std::size_t) { return std::span<const float>(init); },
      /*config_override=*/nullptr, /*allow_failures=*/false, &payloads);

  Gathered out;
  for (const fl::ClientUpdate& u : updates) {
    out.partials.push_back(core::extract_slices(u.weights, slices));
  }
  out.proximity = cluster::pairwise_euclidean(out.partials);
  const cluster::Dendrogram dendrogram =
      cluster::agglomerative_cluster(out.proximity, config.linkage);
  double mean = 0.0;
  std::size_t pairs = 0;
  for (std::size_t i = 0; i < out.proximity.rows(); ++i) {
    for (std::size_t j = i + 1; j < out.proximity.cols(); ++j) {
      mean += out.proximity(i, j);
      ++pairs;
    }
  }
  mean /= static_cast<double>(pairs);
  out.labels = dendrogram.cut_threshold(config.rel_factor * mean);
  return out;
}

void expect_streamed_equals_gathered(const fl::FederationConfig& cfg) {
  const core::FedClustConfig config{};
  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE(::testing::Message() << threads << " threads");
    fl::Federation streamed_fed = make_federation(cfg, threads);
    fl::Federation gathered_fed = make_federation(cfg, threads);
    const core::ClusteringOutcome streamed =
        core::FedClust(config).form_clusters(streamed_fed, /*round=*/0);
    const Gathered gathered = gathered_formation(gathered_fed, config);

    ASSERT_EQ(streamed.reporters.size(), kClients);
    ASSERT_EQ(gathered.partials.size(), kClients);
    for (std::size_t c = 0; c < kClients; ++c) {
      const std::vector<float>& a = streamed.partial_weights[c];
      const std::vector<float>& b = gathered.partials[c];
      ASSERT_EQ(a.size(), b.size()) << "client " << c;
      EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
          << "client " << c << " partial differs";
    }
    ASSERT_EQ(streamed.proximity.rows(), gathered.proximity.rows());
    ASSERT_EQ(streamed.proximity.cols(), gathered.proximity.cols());
    EXPECT_EQ(std::memcmp(streamed.proximity.data(), gathered.proximity.data(),
                          streamed.proximity.rows() *
                              streamed.proximity.cols() * sizeof(double)),
              0);
    EXPECT_EQ(streamed.labels, gathered.labels);
  }
}

TEST(StreamedFormation, MatchesGatheredRecipePlain) {
  expect_streamed_equals_gathered({});
}

TEST(StreamedFormation, MatchesGatheredRecipeUnderCodecs) {
  fl::FederationConfig cfg;
  cfg.compression.enabled = true;
  cfg.compression.upload = compress::CodecKind::kInt8;
  cfg.compression.download = compress::CodecKind::kInt8;
  expect_streamed_equals_gathered(cfg);
}

TEST(StreamedFormation, MatchesGatheredRecipeUnderAudit) {
  fl::FederationConfig cfg;
  cfg.audit = true;
  expect_streamed_equals_gathered(cfg);
}

TEST(StreamedFormation, FaultyRetriesIndependentOfThreads) {
  fl::FederationConfig cfg;
  cfg.faults.enabled = true;
  cfg.faults.crash_prob = 0.2;
  cfg.faults.nan_prob = 0.1;
  cfg.robust.validate.enabled = true;
  const core::FedClustConfig config{.formation_retries = 2};

  fl::Federation one = make_federation(cfg, 1);
  fl::Federation four = make_federation(cfg, 4);
  const core::ClusteringOutcome a =
      core::FedClust(config).form_clusters(one, /*round=*/0);
  const core::ClusteringOutcome b =
      core::FedClust(config).form_clusters(four, /*round=*/0);

  // The scenario must exercise the retry waves and the screen.
  ASSERT_FALSE(a.resolicited.empty());
  EXPECT_GT(one.quarantine().total_strikes(), 0u);
  EXPECT_EQ(a.reporters, b.reporters);
  EXPECT_EQ(a.deferred, b.deferred);
  EXPECT_EQ(a.resolicited, b.resolicited);
  EXPECT_EQ(a.labels, b.labels);
  for (std::size_t c = 0; c < kClients; ++c) {
    EXPECT_EQ(a.partial_weights[c], b.partial_weights[c]) << "client " << c;
  }
}

}  // namespace
}  // namespace fedclust
