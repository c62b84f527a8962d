// CFL — Clustered Federated Learning (Sattler et al., IEEE TNNLS 2020).
//
// Starts with one cluster containing every client and recursively
// bipartitions: when a cluster's training has (nearly) converged — the
// norm of the mean client update falls below eps1 — while individual
// clients still push in conflicting directions — the max update norm
// stays above eps2 — the cluster is split in two along the cosine
// similarity structure of the client updates.
//
// This is the baseline whose weakness motivates FedClust: splits can only
// happen after the cluster has already converged, so stable clusters cost
// many communication rounds.
//
// Bipartition detail: Sattler et al. derive the optimal bipartition from
// the pairwise cosine similarity of updates; we realize it as a
// complete-linkage HC cut at k=2 on the cosine distance matrix, the
// standard practical approximation.
#pragma once

#include "fl/algorithm.hpp"

namespace fedclust::algorithms {

struct CflConfig {
  /// Split when ||mean update|| < eps1 ...
  double eps1 = 0.4;
  /// ... while max_i ||update_i|| > eps2.
  double eps2 = 0.6;
  /// Never split before this round (lets training leave the initial
  /// transient).
  std::size_t warmup_rounds = 2;
  /// Clusters at or below this size are never split further.
  std::size_t min_cluster_size = 2;
};

/// Sync-only: the eps1/eps2 split check is part of every round, so
/// cluster membership is never static.
class Cfl : public fl::Algorithm {
 public:
  explicit Cfl(CflConfig config) : config_(config) {}

  std::string name() const override { return "CFL"; }
  const CflConfig& config() const { return config_; }

  /// Initial state: one cluster holding every client.
  std::size_t begin(fl::Federation& federation,
                    fl::RunResult& result) override;
  /// Per-cluster training + aggregation, then (after warmup) Sattler's
  /// eps1/eps2 split check, possibly growing the cluster set.
  double sync_round(fl::Federation& federation, std::size_t round) override;
  fl::AccuracySummary evaluate(const fl::Federation& federation) const override;
  std::uint64_t fingerprint() const override;
  std::size_t num_clusters() const override { return cluster_weights_.size(); }
  void finish(fl::RunResult& result) override;

 private:
  CflConfig config_;
  /// The cluster tree flattened to labels + one model per cluster.
  std::vector<std::size_t> labels_;
  std::vector<std::vector<float>> cluster_weights_;
};

}  // namespace fedclust::algorithms
