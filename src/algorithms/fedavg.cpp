#include "algorithms/fedavg.hpp"

#include "algorithms/common.hpp"
#include "check/audit.hpp"
#include "robust/checkpoint.hpp"

namespace fedclust::algorithms {

// --- FedAvg / FedProx --------------------------------------------------------

std::size_t FedAvg::begin(fl::Federation& federation, fl::RunResult&) {
  labels_.assign(federation.num_clients(), 0);
  global_.assign(1, federation.template_model().flat_weights());
  set_local(federation);
  return 0;
}

void FedAvg::set_local(const fl::Federation& federation) {
  local_.reset();
  if (mu_) {
    // Same engine config, but the local objective gains the proximal
    // term anchored at the model each client downloads (train_local
    // captures the reference at entry).
    local_ = federation.config().local;
    local_->sgd.prox_mu = *mu_;
  }
}

double FedAvg::sync_round(fl::Federation& federation, std::size_t round) {
  return per_cluster_fedavg_round(federation, round, labels_, global_,
                                  local_override());
}

fl::AccuracySummary FedAvg::evaluate(const fl::Federation& federation) const {
  return evaluate_clustered(federation, labels_, global_);
}

std::uint64_t FedAvg::fingerprint() const {
  return check::weights_fingerprint(global_);
}

void FedAvg::finish(fl::RunResult& result) { result.cluster_labels = labels_; }

std::span<const float> FedAvg::cluster_model(std::size_t cluster) const {
  return std::span<const float>(global_.at(cluster));
}

void FedAvg::set_cluster_model(std::size_t cluster,
                               std::vector<float> weights) {
  global_.at(cluster) = std::move(weights);
}

const fl::LocalTrainConfig* FedAvg::local_override() const {
  return local_ ? &*local_ : nullptr;
}

void FedAvg::save_state(robust::RunCheckpoint& checkpoint) const {
  checkpoint.labels.assign(labels_.begin(), labels_.end());
  checkpoint.cluster_weights = global_;
}

void FedAvg::restore_state(fl::Federation& federation,
                           const robust::RunCheckpoint& checkpoint) {
  set_local(federation);
  labels_.assign(checkpoint.labels.begin(), checkpoint.labels.end());
  global_ = checkpoint.cluster_weights;
}

// --- FedAvgM -----------------------------------------------------------------

std::size_t FedAvgM::begin(fl::Federation& federation, fl::RunResult&) {
  FEDCLUST_REQUIRE(momentum_ >= 0.0 && momentum_ < 1.0,
                   "server momentum must be in [0, 1)");
  clients_ = federation.num_clients();
  global_ = federation.template_model().flat_weights();
  velocity_.assign(global_.size(), 0.0f);
  return 0;
}

double FedAvgM::sync_round(fl::Federation& federation, std::size_t round) {
  const std::vector<std::size_t> participants =
      federation.sample_clients(round);
  for (std::size_t cid : participants) {
    federation.meter_download(cid, federation.model_size());
  }
  const std::vector<fl::ClientUpdate> updates = federation.train_clients(
      participants, round,
      [&](std::size_t) { return std::span<const float>(global_); });
  double loss_sum = 0.0;
  for (const fl::ClientUpdate& u : updates) {
    federation.meter_upload(u.client_id, federation.model_size());
    loss_sum += u.train_loss;
  }

  // Server update: v = beta*v + (avg - w); w += v. A round in which
  // every client dropped out leaves the model untouched.
  if (!updates.empty()) {
    const std::vector<float> averaged = federation.aggregate(updates, global_);
    const float beta = static_cast<float>(momentum_);
    for (std::size_t i = 0; i < global_.size(); ++i) {
      velocity_[i] = beta * velocity_[i] + (averaged[i] - global_[i]);
      global_[i] += velocity_[i];
    }
  }
  return updates.empty() ? 0.0
                         : loss_sum / static_cast<double>(updates.size());
}

fl::AccuracySummary FedAvgM::evaluate(
    const fl::Federation& federation) const {
  return federation.evaluate_personalized(
      [&](std::size_t) { return std::span<const float>(global_); });
}

std::uint64_t FedAvgM::fingerprint() const {
  return check::weights_fingerprint(std::span<const float>(global_));
}

void FedAvgM::finish(fl::RunResult& result) {
  result.cluster_labels.assign(clients_, 0);
}

}  // namespace fedclust::algorithms
