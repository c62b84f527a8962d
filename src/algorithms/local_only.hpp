// LocalOnly — the no-communication reference point.
//
// Every client trains its own model from the common initialization and
// never talks to the server. Under extreme label skew this is a strong
// baseline (each client's problem is small), and it brackets the
// clustered methods from the other side than FedAvg does: FedAvg shares
// everything, LocalOnly shares nothing, clustered FL sits between.
// Not part of the paper's Table I; included as an analysis baseline.
#pragma once

#include "fl/algorithm.hpp"

namespace fedclust::algorithms {

class LocalOnly : public fl::Algorithm {
 public:
  LocalOnly() = default;

  std::string name() const override { return "LocalOnly"; }
  std::size_t begin(fl::Federation& federation,
                    fl::RunResult& result) override;
  double sync_round(fl::Federation& federation, std::size_t round) override;
  fl::AccuracySummary evaluate(const fl::Federation& federation) const override;
  std::uint64_t fingerprint() const override;
  /// Every client is its own "cluster".
  std::size_t num_clusters() const override { return weights_.size(); }
  void finish(fl::RunResult& result) override;

 private:
  /// One model per client; persists across rounds.
  std::vector<std::vector<float>> weights_;
};

}  // namespace fedclust::algorithms
