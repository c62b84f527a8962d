// PACFL — clustered FL via Principal Angles between Client data
// subspaces (Vahidian et al., AAAI 2023).
//
// One-shot like FedClust, but driven by RAW DATA instead of weights:
// before training, every client computes a truncated SVD of each local
// class's data matrix (flattened images as columns), uploads the leading
// left singular vectors, and the server clusters clients by the
// principal angles between those subspaces.
//
// Variation from the original: we use the mean of the principal angles
// between the clients' concatenated (re-orthonormalized) class bases as
// the dissimilarity, rather than the per-class-pair minimum-angle
// bookkeeping of the original code — the resulting proximity structure
// is the same for label-skew partitions, and the mean is
// rotation-invariant and needs no class alignment.
#pragma once

#include "cluster/hierarchical.hpp"
#include "fl/algorithm.hpp"

namespace fedclust::algorithms {

struct PacflConfig {
  /// Singular vectors kept per present class (p in the paper).
  std::size_t subspace_rank = 3;
  /// Cap on samples per class entering the SVD (keeps the client-side
  /// cost bounded; the PACFL code subsamples similarly).
  std::size_t samples_per_class_cap = 30;
  cluster::Linkage linkage = cluster::Linkage::kAverage;
  /// HC cut threshold on the angle dissimilarity (radians); 0 = choose
  /// automatically from the dendrogram's largest gap.
  double threshold = 0.0;
  double min_gap_ratio = 2.0;
};

/// One-shot data-subspace clustering in begin(), then static
/// per-cluster FedAvg — async-capable.
class Pacfl : public fl::Algorithm {
 public:
  explicit Pacfl(PacflConfig config) : config_(config) {}

  std::string name() const override { return "PACFL"; }
  const PacflConfig& config() const { return config_; }

  /// The one-shot clustering step alone (exposed for tests/ablations):
  /// returns per-client labels and, through `dissimilarity_out` if
  /// non-null, the angle matrix. `upload_bytes_out` receives the total
  /// wire cost of shipping every basis; `basis_floats_out` the per-client
  /// basis sizes in float32 values (what begin() meters and simulates).
  std::vector<std::size_t> cluster_clients(
      const fl::Federation& federation, Matrix* dissimilarity_out = nullptr,
      std::uint64_t* upload_bytes_out = nullptr,
      std::vector<std::size_t>* basis_floats_out = nullptr) const;

  /// Round 0: clusters from subspace bases, meters and simulates the
  /// basis uploads, seeds one template copy per cluster, and appends the
  /// round-0 metrics entry. Returns 1.
  std::size_t begin(fl::Federation& federation,
                    fl::RunResult& result) override;
  double sync_round(fl::Federation& federation, std::size_t round) override;
  fl::AccuracySummary evaluate(const fl::Federation& federation) const override;
  std::uint64_t fingerprint() const override;
  std::size_t num_clusters() const override { return cluster_weights_.size(); }
  void finish(fl::RunResult& result) override;

  bool supports_async() const override { return true; }
  std::size_t cluster_of(std::size_t client) const override {
    return labels_.at(client);
  }
  std::span<const float> cluster_model(std::size_t cluster) const override;
  void set_cluster_model(std::size_t cluster,
                         std::vector<float> weights) override;

  void save_state(robust::RunCheckpoint& checkpoint) const override;
  void restore_state(fl::Federation& federation,
                     const robust::RunCheckpoint& checkpoint) override;

 private:
  PacflConfig config_;
  std::vector<std::size_t> labels_;
  std::vector<std::vector<float>> cluster_weights_;
};

}  // namespace fedclust::algorithms
