#include "data/dataset.hpp"

#include <algorithm>

namespace fedclust::data {

void Dataset::add(const Tensor& image, std::int32_t label) {
  FEDCLUST_REQUIRE(image.numel() == sample_numel(),
                   "image numel " << image.numel() << " != spec numel "
                                  << sample_numel());
  FEDCLUST_REQUIRE(label >= 0 &&
                       static_cast<std::size_t>(label) < spec_.classes,
                   "label " << label << " out of range");
  const auto f = image.flat();
  pixels_.insert(pixels_.end(), f.begin(), f.end());
  labels_.push_back(label);
}

void Dataset::reserve(std::size_t samples) {
  pixels_.reserve(samples * sample_numel());
  labels_.reserve(samples);
}

std::int32_t Dataset::label(std::size_t i) const {
  FEDCLUST_REQUIRE(i < labels_.size(), "sample index out of range");
  return labels_[i];
}

void Dataset::set_label(std::size_t i, std::int32_t label) {
  FEDCLUST_REQUIRE(i < labels_.size(), "sample index out of range");
  FEDCLUST_REQUIRE(label >= 0 &&
                       static_cast<std::size_t>(label) < spec_.classes,
                   "label " << label << " out of range");
  labels_[i] = label;
}

Tensor Dataset::image(std::size_t i) const {
  FEDCLUST_REQUIRE(i < labels_.size(), "sample index out of range");
  const std::size_t n = sample_numel();
  std::vector<float> buf(pixels_.begin() + static_cast<std::ptrdiff_t>(i * n),
                         pixels_.begin() +
                             static_cast<std::ptrdiff_t>((i + 1) * n));
  return Tensor({spec_.channels, spec_.height, spec_.width}, std::move(buf));
}

Batch Dataset::gather(std::span<const std::size_t> indices) const {
  FEDCLUST_REQUIRE(!indices.empty(), "cannot gather an empty batch");
  const std::size_t n = sample_numel();
  Batch batch;
  batch.images =
      Tensor({indices.size(), spec_.channels, spec_.height, spec_.width});
  batch.labels.reserve(indices.size());
  float* out = batch.images.data();
  for (std::size_t bi = 0; bi < indices.size(); ++bi) {
    const std::size_t i = indices[bi];
    FEDCLUST_REQUIRE(i < labels_.size(), "gather index out of range");
    std::copy_n(pixels_.data() + i * n, n, out + bi * n);
    batch.labels.push_back(labels_[i]);
  }
  return batch;
}

Batch Dataset::all() const {
  std::vector<std::size_t> idx(size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  return gather(idx);
}

std::vector<std::size_t> Dataset::label_histogram() const {
  std::vector<std::size_t> hist(spec_.classes, 0);
  for (std::int32_t y : labels_) ++hist[static_cast<std::size_t>(y)];
  return hist;
}

Dataset Dataset::subset(std::span<const std::size_t> indices) const {
  Dataset out(spec_);
  const std::size_t n = sample_numel();
  out.pixels_.reserve(indices.size() * n);
  out.labels_.reserve(indices.size());
  for (std::size_t i : indices) {
    FEDCLUST_REQUIRE(i < labels_.size(), "subset index out of range");
    out.pixels_.insert(out.pixels_.end(), pixels_.begin() + static_cast<std::ptrdiff_t>(i * n),
                       pixels_.begin() + static_cast<std::ptrdiff_t>((i + 1) * n));
    out.labels_.push_back(labels_[i]);
  }
  return out;
}

std::pair<Dataset, Dataset> Dataset::stratified_split(double test_fraction,
                                                      Rng& rng) const {
  FEDCLUST_REQUIRE(test_fraction >= 0.0 && test_fraction < 1.0,
                   "test_fraction must be in [0, 1)");
  std::vector<std::vector<std::size_t>> by_class(spec_.classes);
  for (std::size_t i = 0; i < labels_.size(); ++i) {
    by_class[static_cast<std::size_t>(labels_[i])].push_back(i);
  }
  std::vector<std::size_t> train_idx;
  std::vector<std::size_t> test_idx;
  for (auto& cls : by_class) {
    rng.shuffle(cls);
    // Round to nearest but always leave at least one training sample per
    // represented class so every client can learn its own labels.
    std::size_t n_test = static_cast<std::size_t>(
        test_fraction * static_cast<double>(cls.size()) + 0.5);
    if (!cls.empty() && n_test >= cls.size()) n_test = cls.size() - 1;
    for (std::size_t i = 0; i < cls.size(); ++i) {
      (i < n_test ? test_idx : train_idx).push_back(cls[i]);
    }
  }
  // Keep deterministic ordering independent of class interleaving.
  std::sort(train_idx.begin(), train_idx.end());
  std::sort(test_idx.begin(), test_idx.end());
  return {subset(train_idx), subset(test_idx)};
}

BatchIterator::BatchIterator(const Dataset& dataset, std::size_t batch_size,
                             Rng rng)
    : dataset_(dataset), batch_size_(batch_size), rng_(rng) {
  FEDCLUST_REQUIRE(batch_size_ > 0, "batch size must be positive");
  FEDCLUST_REQUIRE(!dataset_.empty(), "cannot iterate an empty dataset");
  order_.resize(dataset_.size());
  for (std::size_t i = 0; i < order_.size(); ++i) order_[i] = i;
  reshuffle();
}

void BatchIterator::reshuffle() {
  rng_.shuffle(order_);
  cursor_ = 0;
}

Batch BatchIterator::next() {
  if (cursor_ >= order_.size()) reshuffle();
  const std::size_t take = std::min(batch_size_, order_.size() - cursor_);
  const std::span<const std::size_t> window(order_.data() + cursor_, take);
  cursor_ += take;
  return dataset_.gather(window);
}

std::size_t BatchIterator::batches_per_epoch() const {
  return (dataset_.size() + batch_size_ - 1) / batch_size_;
}

}  // namespace fedclust::data
