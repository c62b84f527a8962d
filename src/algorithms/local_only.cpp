#include "algorithms/local_only.hpp"

#include "check/audit.hpp"

namespace fedclust::algorithms {

std::size_t LocalOnly::begin(fl::Federation& federation, fl::RunResult&) {
  weights_.assign(federation.num_clients(),
                  federation.template_model().flat_weights());
  return 0;
}

double LocalOnly::sync_round(fl::Federation& federation, std::size_t round) {
  // Nothing ever crosses the wire; the zero/zero payload spec keeps the
  // network simulator out of the round entirely (comm stays at zero).
  const fl::NetPayloads no_traffic{0, 0, net::MessageKind::kModelUpdate};
  std::vector<std::size_t> everyone(weights_.size());
  for (std::size_t i = 0; i < everyone.size(); ++i) everyone[i] = i;
  const std::vector<fl::ClientUpdate> updates = federation.train_clients(
      everyone, round,
      [&](std::size_t cid) { return std::span<const float>(weights_[cid]); },
      nullptr, /*allow_failures=*/true, &no_traffic);
  double loss_sum = 0.0;
  for (const fl::ClientUpdate& u : updates) {
    weights_[u.client_id] = u.weights;
    loss_sum += u.train_loss;
  }
  return loss_sum / static_cast<double>(updates.size());
}

fl::AccuracySummary LocalOnly::evaluate(
    const fl::Federation& federation) const {
  return federation.evaluate_personalized([&](std::size_t cid) {
    return std::span<const float>(weights_[cid]);
  });
}

std::uint64_t LocalOnly::fingerprint() const {
  return check::weights_fingerprint(weights_);
}

void LocalOnly::finish(fl::RunResult& result) {
  result.cluster_labels.resize(weights_.size());
  for (std::size_t i = 0; i < weights_.size(); ++i) {
    result.cluster_labels[i] = i;
  }
}

}  // namespace fedclust::algorithms
