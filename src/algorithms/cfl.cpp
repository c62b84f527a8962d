#include "algorithms/cfl.hpp"

#include <algorithm>
#include <cmath>

#include "algorithms/common.hpp"
#include "check/audit.hpp"
#include "cluster/distance.hpp"
#include "cluster/hierarchical.hpp"

namespace fedclust::algorithms {
namespace {

double vector_norm(const std::vector<float>& v) {
  double s = 0.0;
  for (float x : v) s += static_cast<double>(x) * x;
  return std::sqrt(s);
}

}  // namespace

std::size_t Cfl::begin(fl::Federation& federation, fl::RunResult&) {
  labels_.assign(federation.num_clients(), 0);
  cluster_weights_ = {federation.template_model().flat_weights()};
  return 0;
}

double Cfl::sync_round(fl::Federation& federation, std::size_t round_index) {
  const std::vector<std::size_t> participants =
      federation.sample_clients(round_index);

  for (std::size_t cid : participants) {
    federation.meter_download(cid, federation.model_size());
  }
  const std::vector<fl::ClientUpdate> updates = federation.train_clients(
      participants, round_index, [&](std::size_t cid) {
        return std::span<const float>(cluster_weights_[labels_[cid]]);
      });

  // Collect per-cluster update vectors Δ_i = w_i - w_cluster before the
  // aggregation overwrites the cluster weights.
  std::vector<std::vector<const fl::ClientUpdate*>> by_cluster(
      cluster_weights_.size());
  double loss_sum = 0.0;
  for (const fl::ClientUpdate& u : updates) {
    federation.meter_upload(u.client_id, federation.model_size());
    loss_sum += u.train_loss;
    by_cluster[labels_[u.client_id]].push_back(&u);
  }

  std::vector<std::vector<std::vector<float>>> deltas(cluster_weights_.size());
  for (std::size_t c = 0; c < by_cluster.size(); ++c) {
    for (const fl::ClientUpdate* u : by_cluster[c]) {
      std::vector<float> d(u->weights.size());
      for (std::size_t i = 0; i < d.size(); ++i) {
        d[i] = u->weights[i] - cluster_weights_[c][i];
      }
      deltas[c].push_back(std::move(d));
    }
  }

  // Standard per-cluster aggregation.
  for (std::size_t c = 0; c < by_cluster.size(); ++c) {
    if (by_cluster[c].empty()) continue;
    std::vector<fl::ClientUpdate> tmp;
    tmp.reserve(by_cluster[c].size());
    for (const fl::ClientUpdate* u : by_cluster[c]) tmp.push_back(*u);
    cluster_weights_[c] = federation.aggregate(tmp, cluster_weights_[c]);
  }

  // Split check per cluster (Sattler's eps1/eps2 criterion).
  if (round_index >= config_.warmup_rounds) {
    const std::size_t existing = cluster_weights_.size();
    for (std::size_t c = 0; c < existing; ++c) {
      const auto& ds = deltas[c];
      if (ds.size() <= config_.min_cluster_size) continue;

      std::vector<float> mean(ds.front().size(), 0.0f);
      for (const auto& d : ds) {
        for (std::size_t i = 0; i < mean.size(); ++i) {
          mean[i] += d[i] / static_cast<float>(ds.size());
        }
      }
      double max_norm = 0.0;
      for (const auto& d : ds) max_norm = std::max(max_norm, vector_norm(d));
      if (vector_norm(mean) >= config_.eps1 || max_norm <= config_.eps2) {
        continue;
      }

      // Bipartition members along the cosine structure of their updates.
      const Matrix dist = cluster::pairwise_cosine_distance(ds);
      const cluster::Dendrogram dendro =
          cluster::agglomerative_cluster(dist, cluster::Linkage::kComplete);
      const std::vector<std::size_t> split = dendro.cut_k(2);

      // Members with split label 1 move to a brand-new cluster whose
      // model starts from the (already aggregated) parent weights.
      const std::size_t new_cluster = cluster_weights_.size();
      bool any_moved = false;
      for (std::size_t m = 0; m < by_cluster[c].size(); ++m) {
        if (split[m] == 1) {
          labels_[by_cluster[c][m]->client_id] = new_cluster;
          any_moved = true;
        }
      }
      if (any_moved) {
        cluster_weights_.push_back(cluster_weights_[c]);
      }
    }
  }

  return updates.empty() ? 0.0
                         : loss_sum / static_cast<double>(updates.size());
}

fl::AccuracySummary Cfl::evaluate(const fl::Federation& federation) const {
  return evaluate_clustered(federation, labels_, cluster_weights_);
}

std::uint64_t Cfl::fingerprint() const {
  return check::weights_fingerprint(cluster_weights_);
}

void Cfl::finish(fl::RunResult& result) { result.cluster_labels = labels_; }

}  // namespace fedclust::algorithms
