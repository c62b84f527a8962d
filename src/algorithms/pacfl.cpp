#include "algorithms/pacfl.hpp"

#include <algorithm>
#include <numeric>

#include "algorithms/common.hpp"
#include "check/audit.hpp"
#include "linalg/svd.hpp"
#include "robust/checkpoint.hpp"

namespace fedclust::algorithms {
namespace {

/// Client-side: orthonormal basis spanning the top-p directions of each
/// locally present class, concatenated column-wise (d × Σ_c p_c).
Matrix client_subspace_basis(const data::Dataset& train,
                             const PacflConfig& config) {
  const std::size_t d = train.spec().channels * train.spec().height *
                        train.spec().width;
  std::vector<std::vector<std::size_t>> by_class(train.spec().classes);
  for (std::size_t i = 0; i < train.size(); ++i) {
    by_class[static_cast<std::size_t>(train.label(i))].push_back(i);
  }

  std::vector<Matrix> blocks;
  std::size_t total_cols = 0;
  for (const auto& cls : by_class) {
    if (cls.empty()) continue;
    const std::size_t take =
        std::min(cls.size(), config.samples_per_class_cap);
    Matrix a(d, take);
    for (std::size_t j = 0; j < take; ++j) {
      const Tensor img = train.image(cls[j]);
      for (std::size_t i = 0; i < d; ++i) a(i, j) = img[i];
    }
    const std::size_t p = std::min(config.subspace_rank, take);
    Matrix u = truncated_left_singular_vectors_gram(a, p);
    total_cols += u.cols();
    blocks.push_back(std::move(u));
  }
  FEDCLUST_CHECK(total_cols > 0, "client has no data for PACFL basis");

  Matrix basis(d, total_cols);
  std::size_t col = 0;
  for (const Matrix& b : blocks) {
    for (std::size_t j = 0; j < b.cols(); ++j, ++col) {
      for (std::size_t i = 0; i < d; ++i) basis(i, col) = b(i, j);
    }
  }
  // Columns are orthonormal within a class but not across classes;
  // re-orthonormalize so principal angles are well-defined.
  const std::size_t rank = orthonormalize_columns(basis);
  if (rank < basis.cols()) {
    Matrix trimmed(d, rank);
    for (std::size_t i = 0; i < d; ++i) {
      for (std::size_t j = 0; j < rank; ++j) trimmed(i, j) = basis(i, j);
    }
    return trimmed;
  }
  return basis;
}

}  // namespace

std::vector<std::size_t> Pacfl::cluster_clients(
    const fl::Federation& federation, Matrix* dissimilarity_out,
    std::uint64_t* upload_bytes_out,
    std::vector<std::size_t>* basis_floats_out) const {
  const std::size_t n = federation.num_clients();

  std::vector<Matrix> bases;
  bases.reserve(n);
  std::vector<std::size_t> basis_floats(n, 0);
  std::uint64_t upload_bytes = 0;
  for (std::size_t c = 0; c < n; ++c) {
    bases.push_back(
        client_subspace_basis(federation.client_data(c)->train, config_));
    basis_floats[c] = bases.back().rows() * bases.back().cols();
    upload_bytes += federation.upload_wire_bytes(basis_floats[c]);
  }

  Matrix dis(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const std::vector<double> angles = principal_angles(bases[i], bases[j]);
      const double mean =
          std::accumulate(angles.begin(), angles.end(), 0.0) /
          static_cast<double>(angles.size());
      dis(i, j) = mean;
      dis(j, i) = mean;
    }
  }

  const cluster::Dendrogram dendro =
      cluster::agglomerative_cluster(dis, config_.linkage);
  const double threshold =
      config_.threshold > 0.0
          ? config_.threshold
          : cluster::suggest_threshold(dendro, config_.min_gap_ratio);

  if (dissimilarity_out != nullptr) *dissimilarity_out = dis;
  if (upload_bytes_out != nullptr) *upload_bytes_out = upload_bytes;
  if (basis_floats_out != nullptr) *basis_floats_out = std::move(basis_floats);
  std::vector<std::size_t> labels = dendro.cut_threshold(threshold);
  if (federation.config().audit) {
    check::audit_dendrogram_monotone(dendro);
    check::audit_cluster_partition(labels);
  }
  return labels;
}

std::size_t Pacfl::begin(fl::Federation& federation, fl::RunResult& result) {
  // Round 0: one-shot clustering from data subspaces (upload only — no
  // model travels).
  federation.comm().begin_round(0);
  std::vector<std::size_t> basis_floats;
  labels_ = cluster_clients(federation, nullptr, nullptr, &basis_floats);
  for (std::size_t c = 0; c < basis_floats.size(); ++c) {
    federation.meter_upload(c, basis_floats[c]);
  }
  // Formation is synchronous: the engine never trains here, so simulate
  // the basis uploads directly (no downlink payload, one SVD "epoch" of
  // local compute, everyone waits for everyone).
  if (federation.network_enabled()) {
    std::vector<net::ClientOp> ops;
    ops.reserve(basis_floats.size());
    for (std::size_t c = 0; c < basis_floats.size(); ++c) {
      ops.push_back(net::ClientOp{
          .client = c,
          .download_floats = 0,
          .upload_floats = basis_floats[c],
          .num_samples = federation.client_train_size(c),
          .epochs = 1,
          .churned = false,
          .upload_kind = net::MessageKind::kBasisUpload});
    }
    federation.simulate_network_round(0, ops, /*reliable=*/true);
  }

  cluster_weights_.assign(cluster::num_clusters(labels_),
                          federation.template_model().flat_weights());
  result.rounds.push_back(fl::make_round_metrics(
      0, evaluate(federation), 0.0, federation, num_clusters(),
      fingerprint()));
  return 1;
}

double Pacfl::sync_round(fl::Federation& federation, std::size_t round) {
  return per_cluster_fedavg_round(federation, round, labels_,
                                  cluster_weights_);
}

fl::AccuracySummary Pacfl::evaluate(const fl::Federation& federation) const {
  return evaluate_clustered(federation, labels_, cluster_weights_);
}

std::uint64_t Pacfl::fingerprint() const {
  return check::weights_fingerprint(cluster_weights_);
}

void Pacfl::finish(fl::RunResult& result) { result.cluster_labels = labels_; }

std::span<const float> Pacfl::cluster_model(std::size_t cluster) const {
  return std::span<const float>(cluster_weights_.at(cluster));
}

void Pacfl::set_cluster_model(std::size_t cluster,
                              std::vector<float> weights) {
  cluster_weights_.at(cluster) = std::move(weights);
}

void Pacfl::save_state(robust::RunCheckpoint& checkpoint) const {
  checkpoint.labels.assign(labels_.begin(), labels_.end());
  checkpoint.cluster_weights = cluster_weights_;
}

void Pacfl::restore_state(fl::Federation&,
                          const robust::RunCheckpoint& checkpoint) {
  labels_.assign(checkpoint.labels.begin(), checkpoint.labels.end());
  cluster_weights_ = checkpoint.cluster_weights;
}

}  // namespace fedclust::algorithms
