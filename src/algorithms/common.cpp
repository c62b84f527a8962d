#include "algorithms/common.hpp"

#include <algorithm>

namespace fedclust::algorithms {

double per_cluster_fedavg_round(
    fl::Federation& federation, std::size_t round,
    const std::vector<std::size_t>& labels,
    std::vector<std::vector<float>>& cluster_weights,
    const fl::LocalTrainConfig* config_override) {
  FEDCLUST_REQUIRE(labels.size() == federation.num_clients(),
                   "labels must cover every client");
  for (std::size_t l : labels) {
    FEDCLUST_REQUIRE(l < cluster_weights.size(),
                     "cluster label " << l << " has no model");
  }

  const std::vector<std::size_t> participants =
      federation.sample_clients(round);

  // Everyone downloads their cluster model; everyone who arrives in time
  // uploads a full one.
  for (std::size_t cid : participants) {
    federation.meter_download(cid, federation.model_size());
  }

  std::vector<fl::ClientUpdate> updates = federation.train_clients(
      participants, round,
      [&](std::size_t cid) {
        return std::span<const float>(cluster_weights[labels[cid]]);
      },
      config_override);

  double loss_sum = 0.0;
  for (const fl::ClientUpdate& u : updates) {
    federation.meter_upload(u.client_id, federation.model_size());
    loss_sum += u.train_loss;
  }
  const std::size_t arrived = updates.size();
  aggregate_by_cluster(federation, std::move(updates), labels,
                       cluster_weights);
  return arrived == 0 ? 0.0 : loss_sum / static_cast<double>(arrived);
}

void aggregate_by_cluster(fl::Federation& federation,
                          std::vector<fl::ClientUpdate>&& updates,
                          const std::vector<std::size_t>& labels,
                          std::vector<std::vector<float>>& models) {
  std::vector<std::vector<fl::ClientUpdate>> by_cluster(models.size());
  for (fl::ClientUpdate& u : updates) {
    by_cluster[labels[u.client_id]].push_back(std::move(u));
  }
  for (std::size_t c = 0; c < by_cluster.size(); ++c) {
    if (!by_cluster[c].empty()) {
      models[c] = federation.aggregate(by_cluster[c], models[c]);
    }
  }
}

fl::AccuracySummary evaluate_clustered(
    const fl::Federation& federation, const std::vector<std::size_t>& labels,
    const std::vector<std::vector<float>>& cluster_weights) {
  FEDCLUST_REQUIRE(labels.size() == federation.num_clients(),
                   "labels must cover every client");
  return federation.evaluate_personalized([&](std::size_t cid) {
    return std::span<const float>(cluster_weights[labels[cid]]);
  });
}

}  // namespace fedclust::algorithms
