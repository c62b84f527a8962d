// FedPer (Arivazhagan et al., 2019) — personalization-layer FL.
//
// The model is split into a shared BASE (feature extractor, aggregated
// by the server like FedAvg) and a personal HEAD (the final classifier
// layer, which never leaves the device). This baseline is the
// personalization mirror image of FedClust's premise: both agree the
// final layer is where the data distribution lives — FedPer keeps it
// local per client, FedClust uses it to group clients. Not in the
// paper's Table I; included as an extension baseline.
#pragma once

#include "fl/algorithm.hpp"
#include "nn/slicing.hpp"

namespace fedclust::algorithms {

struct FedPerConfig {
  /// Slice spec of the personal head (see core::resolve_partial_slices):
  /// default is the final layer's weight and bias.
  std::string head_spec = "final+bias";
};

/// Sync-only: the personal heads never leave the clients, so there is
/// no per-cluster server model to stream.
class FedPer : public fl::Algorithm {
 public:
  explicit FedPer(FedPerConfig config = {}) : config_(config) {}

  std::string name() const override { return "FedPer"; }
  const FedPerConfig& config() const { return config_; }

  std::size_t begin(fl::Federation& federation,
                    fl::RunResult& result) override;
  double sync_round(fl::Federation& federation, std::size_t round) override;
  fl::AccuracySummary evaluate(const fl::Federation& federation) const override;
  /// Over the served state: shared base + personal head per client.
  std::uint64_t fingerprint() const override;
  std::size_t num_clusters() const override { return 1; }
  void finish(fl::RunResult& result) override;

 private:
  /// The global base with `client`'s personal head spliced in.
  std::vector<float> served_model(std::size_t client) const;
  std::vector<std::vector<float>> served_models() const;

  FedPerConfig config_;
  std::vector<nn::ParamSlice> head_;
  /// Global base weights live inside a full-size vector (its head region
  /// holds the template head); personal heads are stored per client.
  std::vector<float> global_;
  std::vector<std::vector<float>> heads_;
  std::vector<float> template_head_;
};

}  // namespace fedclust::algorithms
