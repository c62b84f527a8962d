#include "algorithms/ifca.hpp"

#include <limits>

#include "algorithms/common.hpp"
#include "check/audit.hpp"
#include "cluster/hierarchical.hpp"
#include "utils/rng.hpp"

namespace fedclust::algorithms {

std::size_t Ifca::begin(fl::Federation& federation, fl::RunResult&) {
  FEDCLUST_REQUIRE(config_.num_clusters >= 1, "IFCA needs k >= 1");
  // k models: template plus small independent perturbations so the
  // cluster-identity estimation can break symmetry in round 0.
  const std::vector<float> base = federation.template_model().flat_weights();
  models_.assign(config_.num_clusters, base);
  Rng init_rng = Rng(federation.config().seed).split(0x1fca);
  for (std::size_t k = 1; k < models_.size(); ++k) {
    for (float& w : models_[k]) {
      w += static_cast<float>(init_rng.normal(0.0, config_.init_perturbation));
    }
  }
  labels_.assign(federation.num_clients(), 0);
  return 0;
}

double Ifca::sync_round(fl::Federation& federation, std::size_t round_index) {
  // Under the network simulator, a participant's download is all k models
  // (identity estimation) while the upload is the single chosen model.
  const fl::NetPayloads payloads{
      federation.model_size() * config_.num_clusters, federation.model_size(),
      net::MessageKind::kModelUpdate};

  const std::vector<std::size_t> participants =
      federation.sample_clients(round_index);

  // Identity estimation sees each model as it arrives over the wire: when
  // a download codec is active the broadcast is lossy, so the clients must
  // score the decoded weights, not the server-side originals.  Zero-copy
  // views when compression is off.
  std::vector<std::vector<float>> decoded(models_.size());
  std::vector<std::span<const float>> delivered(models_.size());
  for (std::size_t k = 0; k < models_.size(); ++k) {
    decoded[k] = federation.download_roundtrip(models_[k]);
    delivered[k] = decoded[k].empty() ? std::span<const float>(models_[k])
                                      : std::span<const float>(decoded[k]);
  }

  // Identity estimation: every participant downloads all k models and
  // evaluates them on its local training data.
  for (std::size_t cid : participants) {
    federation.meter_download(cid, federation.model_size() * models_.size());
    double best = std::numeric_limits<double>::infinity();
    std::size_t best_k = 0;
    for (std::size_t k = 0; k < models_.size(); ++k) {
      const double loss = federation.client_train_loss(cid, delivered[k]);
      if (loss < best) {
        best = loss;
        best_k = k;
      }
    }
    labels_[cid] = best_k;
  }

  // Local training on the chosen model.
  std::vector<fl::ClientUpdate> updates = federation.train_clients(
      participants, round_index,
      [&](std::size_t cid) {
        return std::span<const float>(models_[labels_[cid]]);
      },
      nullptr, /*allow_failures=*/true, &payloads);

  double loss_sum = 0.0;
  for (const fl::ClientUpdate& u : updates) {
    federation.meter_upload(u.client_id, federation.model_size());
    loss_sum += u.train_loss;
  }
  const std::size_t arrived = updates.size();
  aggregate_by_cluster(federation, std::move(updates), labels_, models_);
  return arrived == 0 ? 0.0 : loss_sum / static_cast<double>(arrived);
}

fl::AccuracySummary Ifca::evaluate(const fl::Federation& federation) const {
  return evaluate_clustered(federation, labels_, models_);
}

std::uint64_t Ifca::fingerprint() const {
  return check::weights_fingerprint(models_);
}

std::size_t Ifca::num_clusters() const {
  return cluster::num_clusters(labels_);
}

void Ifca::finish(fl::RunResult& result) { result.cluster_labels = labels_; }

}  // namespace fedclust::algorithms
