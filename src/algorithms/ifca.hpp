// IFCA — the Iterative Federated Clustering Algorithm (Ghosh et al.,
// NeurIPS 2020).
//
// The server keeps k cluster models. Every round each participating
// client downloads ALL k models, picks the one with the lowest loss on
// its local data (cluster-identity estimation), trains that model, and
// uploads the result; the server averages per cluster.
//
// The paper's critique that FedClust addresses: k must be chosen a
// priori, and broadcasting k models multiplies the download cost.
#pragma once

#include "fl/algorithm.hpp"

namespace fedclust::algorithms {

struct IfcaConfig {
  std::size_t num_clusters = 2;
  /// Scale of the random perturbation that differentiates the k initial
  /// models (all derive from the federation's template).
  double init_perturbation = 0.05;
};

/// Sync-only: identity estimation reruns every round.
class Ifca : public fl::Algorithm {
 public:
  explicit Ifca(IfcaConfig config) : config_(config) {}

  std::string name() const override { return "IFCA"; }
  const IfcaConfig& config() const { return config_; }

  /// Initial state: k perturbed copies of the template, everyone in
  /// cluster 0.
  std::size_t begin(fl::Federation& federation,
                    fl::RunResult& result) override;
  /// Identity estimation over the k delivered models, training on the
  /// chosen model, per-cluster aggregation.
  double sync_round(fl::Federation& federation, std::size_t round) override;
  fl::AccuracySummary evaluate(const fl::Federation& federation) const override;
  std::uint64_t fingerprint() const override;
  std::size_t num_clusters() const override;
  void finish(fl::RunResult& result) override;

 private:
  IfcaConfig config_;
  /// The k cluster models plus the latest per-client identity estimates.
  std::vector<std::vector<float>> models_;
  std::vector<std::size_t> labels_;
};

}  // namespace fedclust::algorithms
