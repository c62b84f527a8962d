// FedAvg (McMahan et al., AISTATS 2017) — the canonical FL baseline —
// and FedProx (Li et al., MLSys 2020), which adds a proximal term to the
// local objective to curb client drift under heterogeneity.
#pragma once

#include <optional>

#include "fl/algorithm.hpp"

namespace fedclust::algorithms {

/// Single global model, sample-weighted averaging each round: the
/// one-cluster case of per-cluster FedAvg. Async-capable.
class FedAvg : public fl::Algorithm {
 public:
  FedAvg() = default;

  std::string name() const override { return "FedAvg"; }
  std::size_t begin(fl::Federation& federation,
                    fl::RunResult& result) override;
  double sync_round(fl::Federation& federation, std::size_t round) override;
  fl::AccuracySummary evaluate(const fl::Federation& federation) const override;
  std::uint64_t fingerprint() const override;
  std::size_t num_clusters() const override { return 1; }
  void finish(fl::RunResult& result) override;

  bool supports_async() const override { return true; }
  std::span<const float> cluster_model(std::size_t cluster) const override;
  void set_cluster_model(std::size_t cluster,
                         std::vector<float> weights) override;
  const fl::LocalTrainConfig* local_override() const override;

  void save_state(robust::RunCheckpoint& checkpoint) const override;
  void restore_state(fl::Federation& federation,
                     const robust::RunCheckpoint& checkpoint) override;

 protected:
  explicit FedAvg(double prox_mu) : mu_(prox_mu) {}

  /// Proximal coefficient of the local objective; none = plain FedAvg.
  std::optional<double> mu_;

 private:
  void set_local(const fl::Federation& federation);

  std::optional<fl::LocalTrainConfig> local_;
  std::vector<std::size_t> labels_;  ///< everyone in cluster 0
  std::vector<std::vector<float>> global_;  ///< the single model
};

/// FedAvg whose local objective is F_i(w) + (mu/2)||w - w_global||^2,
/// anchored at the model each client downloads.
class FedProx : public FedAvg {
 public:
  explicit FedProx(double mu = 0.01) : FedAvg(mu) {}

  std::string name() const override { return "FedProx"; }

  double mu() const { return *mu_; }
};

/// FedAvgM (Hsu et al., 2019): FedAvg with server-side momentum — the
/// server treats the averaged client delta as a pseudo-gradient and
/// applies it through a momentum buffer. Dampens the oscillations that
/// label-skew drift induces in plain FedAvg. Extension baseline (not in
/// the paper's Table I). Sync-only: the momentum buffer is a per-round
/// server state.
class FedAvgM : public fl::Algorithm {
 public:
  explicit FedAvgM(double server_momentum = 0.9)
      : momentum_(server_momentum) {}

  std::string name() const override { return "FedAvgM"; }
  std::size_t begin(fl::Federation& federation,
                    fl::RunResult& result) override;
  double sync_round(fl::Federation& federation, std::size_t round) override;
  fl::AccuracySummary evaluate(const fl::Federation& federation) const override;
  std::uint64_t fingerprint() const override;
  std::size_t num_clusters() const override { return 1; }
  void finish(fl::RunResult& result) override;

  double server_momentum() const { return momentum_; }

 private:
  double momentum_;
  std::size_t clients_ = 0;
  std::vector<float> global_;
  std::vector<float> velocity_;
};

}  // namespace fedclust::algorithms
