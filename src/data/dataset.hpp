// In-memory labelled image dataset with batching utilities.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "nn/models.hpp"  // ImageSpec
#include "tensor/tensor.hpp"
#include "utils/rng.hpp"

namespace fedclust::data {

using nn::ImageSpec;

/// A batch ready to feed a model: images (B, C, H, W) + labels (B).
struct Batch {
  Tensor images;
  std::vector<std::int32_t> labels;

  std::size_t size() const { return labels.size(); }
};

/// Owning container of samples with uniform geometry.
class Dataset {
 public:
  Dataset() = default;
  explicit Dataset(ImageSpec spec) : spec_(spec) {}

  const ImageSpec& spec() const { return spec_; }
  std::size_t size() const { return labels_.size(); }
  bool empty() const { return labels_.empty(); }

  /// Appends one sample; image numel must match the spec.
  void add(const Tensor& image, std::int32_t label);
  /// Makes room for `samples` samples in total, so that many add() calls
  /// do not reallocate.
  void reserve(std::size_t samples);

  std::int32_t label(std::size_t i) const;
  /// Relabels sample i in place (drift scenarios rewrite labels on a
  /// copied shard; pixels are immutable).
  void set_label(std::size_t i, std::int32_t label);
  /// Copies sample i's pixels into a (C, H, W) tensor.
  Tensor image(std::size_t i) const;

  /// Gathers the given sample indices into one batch.
  Batch gather(std::span<const std::size_t> indices) const;

  /// The whole dataset as a single batch.
  Batch all() const;

  /// Samples per class (size = spec.classes).
  std::vector<std::size_t> label_histogram() const;

  /// Builds a new dataset from a subset of this one's indices.
  Dataset subset(std::span<const std::size_t> indices) const;

  /// Splits into (train, test) with `test_fraction` of every class kept
  /// for test (stratified so local test sets mirror local label skew —
  /// the evaluation protocol of Table I).
  std::pair<Dataset, Dataset> stratified_split(double test_fraction,
                                               Rng& rng) const;

 private:
  ImageSpec spec_;
  std::vector<float> pixels_;  // samples back to back, CHW each
  std::vector<std::int32_t> labels_;

  std::size_t sample_numel() const {
    return spec_.channels * spec_.height * spec_.width;
  }
};

/// Iterates a dataset in shuffled mini-batches; reshuffles each epoch.
class BatchIterator {
 public:
  BatchIterator(const Dataset& dataset, std::size_t batch_size, Rng rng);

  /// Returns the next mini-batch, starting a new shuffled epoch when the
  /// previous one is exhausted. The final batch of an epoch may be
  /// smaller than batch_size.
  Batch next();

  /// Number of batches per epoch.
  std::size_t batches_per_epoch() const;

 private:
  const Dataset& dataset_;
  std::size_t batch_size_;
  Rng rng_;
  std::vector<std::size_t> order_;
  std::size_t cursor_ = 0;

  void reshuffle();
};

}  // namespace fedclust::data
