#include "algorithms/fedper.hpp"

#include "check/audit.hpp"

namespace fedclust::algorithms {

std::size_t FedPer::begin(fl::Federation& federation, fl::RunResult&) {
  head_ = nn::resolve_partial_slices(federation.template_model(),
                                     config_.head_spec);
  FEDCLUST_REQUIRE(nn::slices_numel(head_) < federation.model_size(),
                   "FedPer head covers the whole model — nothing to share");
  global_ = federation.template_model().flat_weights();
  template_head_ = nn::extract_slices(global_, head_);
  heads_.assign(federation.num_clients(), template_head_);
  return 0;
}

std::vector<float> FedPer::served_model(std::size_t client) const {
  std::vector<float> full = global_;
  std::size_t cursor = 0;
  for (const nn::ParamSlice& s : head_) {
    for (std::size_t i = 0; i < s.size; ++i, ++cursor) {
      full[s.offset + i] = heads_[client][cursor];
    }
  }
  return full;
}

double FedPer::sync_round(fl::Federation& federation, std::size_t round) {
  // Only the base crosses the wire, in both directions.
  const std::size_t base_floats =
      federation.model_size() - nn::slices_numel(head_);
  const fl::NetPayloads payloads{base_floats, base_floats,
                                 net::MessageKind::kPartialUpdate};

  const std::vector<std::size_t> participants =
      federation.sample_clients(round);
  // Per-client start vectors must outlive train_clients' callback.
  std::vector<std::vector<float>> starts(federation.num_clients());
  for (const std::size_t cid : participants) {
    federation.meter_download(cid, base_floats);  // base only; head is local
    starts[cid] = served_model(cid);
  }

  const std::vector<fl::ClientUpdate> updates = federation.train_clients(
      participants, round,
      [&](std::size_t cid) { return std::span<const float>(starts[cid]); },
      nullptr, /*allow_failures=*/true, &payloads);

  double loss_sum = 0.0;
  for (const fl::ClientUpdate& u : updates) {
    federation.meter_upload(u.client_id, base_floats);
    loss_sum += u.train_loss;
    heads_[u.client_id] = nn::extract_slices(u.weights, head_);
  }

  // Aggregate the base; the heads stay personal. An all-dropout round
  // leaves the base unchanged.
  if (!updates.empty()) {
    std::vector<float> new_global = federation.aggregate(updates, global_);
    // Restore the template head region of the global vector so the
    // global never carries any single client's head.
    std::size_t cursor = 0;
    for (const nn::ParamSlice& s : head_) {
      for (std::size_t i = 0; i < s.size; ++i, ++cursor) {
        new_global[s.offset + i] = template_head_[cursor];
      }
    }
    global_ = std::move(new_global);
  }
  return updates.empty() ? 0.0
                         : loss_sum / static_cast<double>(updates.size());
}

std::vector<std::vector<float>> FedPer::served_models() const {
  std::vector<std::vector<float>> served;
  served.reserve(heads_.size());
  for (std::size_t cid = 0; cid < heads_.size(); ++cid) {
    served.push_back(served_model(cid));
  }
  return served;
}

fl::AccuracySummary FedPer::evaluate(const fl::Federation& federation) const {
  const std::vector<std::vector<float>> served = served_models();
  return federation.evaluate_personalized([&](std::size_t cid) {
    return std::span<const float>(served[cid]);
  });
}

std::uint64_t FedPer::fingerprint() const {
  return check::weights_fingerprint(served_models());
}

void FedPer::finish(fl::RunResult& result) {
  result.cluster_labels.assign(heads_.size(), 0);  // one shared base
}

}  // namespace fedclust::algorithms
