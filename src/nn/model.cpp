#include "nn/model.hpp"

#include <algorithm>

#include "utils/rng.hpp"

namespace fedclust::nn {

Layer& Model::add(std::unique_ptr<Layer> layer) {
  FEDCLUST_REQUIRE(layer != nullptr, "cannot add a null layer");
  if (layer->name().empty()) {
    // "conv1", "linear2", ... — 1-based index among layers of that type.
    std::size_t count = 1;
    for (const auto& l : layers_) {
      if (std::string(l->type()) == layer->type()) ++count;
    }
    layer->set_name(std::string(layer->type()) + std::to_string(count));
  }
  layers_.push_back(std::move(layer));
  return *layers_.back();
}

Layer& Model::layer(std::size_t i) {
  FEDCLUST_REQUIRE(i < layers_.size(), "layer index out of range");
  return *layers_[i];
}

const Layer& Model::layer(std::size_t i) const {
  FEDCLUST_REQUIRE(i < layers_.size(), "layer index out of range");
  return *layers_[i];
}

void Model::init_params(Rng& rng) {
  for (auto& l : layers_) l->init_params(rng);
}

Tensor Model::forward(const Tensor& input, bool train) {
  Tensor x = input;
  for (auto& l : layers_) x = l->forward(x, train);
  return x;
}

void Model::backward(const Tensor& grad_output) {
  std::size_t first = 0;
  while (first < layers_.size() && layers_[first]->params().empty()) ++first;
  if (first == layers_.size()) return;
  Tensor g = grad_output;
  for (std::size_t i = layers_.size() - 1; i > first; --i) {
    g = layers_[i]->backward(g);
  }
  layers_[first]->backward_params(g);
}

void Model::zero_grad() {
  for (Param* p : params()) p->grad.zero();
}

void Model::reseed_dropout(std::uint64_t seed) {
  const Rng base(seed);
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    layers_[i]->reseed(base.split(i)());
  }
}

void Model::set_thread_pool(ThreadPool* pool) {
  for (auto& l : layers_) l->set_thread_pool(pool);
}

std::vector<Param*> Model::params() {
  std::vector<Param*> out;
  for (auto& l : layers_) {
    for (Param* p : l->params()) out.push_back(p);
  }
  return out;
}

std::vector<const Param*> Model::params() const {
  std::vector<const Param*> out;
  for (const auto& l : layers_) {
    for (Param* p : const_cast<Layer&>(*l).params()) out.push_back(p);
  }
  return out;
}

std::size_t Model::num_weights() const {
  std::size_t n = 0;
  for (const Param* p : params()) n += p->value.numel();
  return n;
}

std::vector<ParamSlice> Model::slices() const {
  std::vector<ParamSlice> out;
  std::size_t offset = 0;
  for (const auto& l : layers_) {
    for (Param* p : const_cast<Layer&>(*l).params()) {
      out.push_back({l->name() + "." + p->name, offset, p->value.numel()});
      offset += p->value.numel();
    }
  }
  return out;
}

ParamSlice Model::slice_for(const std::string& qualified_name) const {
  for (const ParamSlice& s : slices()) {
    if (s.name == qualified_name) return s;
  }
  FEDCLUST_FAIL("no parameter named '" << qualified_name << "'");
}

std::vector<float> Model::flat_weights() const {
  std::vector<float> out;
  out.reserve(num_weights());
  for (const Param* p : params()) {
    const auto f = p->value.flat();
    out.insert(out.end(), f.begin(), f.end());
  }
  return out;
}

void Model::set_flat_weights(std::span<const float> weights) {
  FEDCLUST_REQUIRE(weights.size() == num_weights(),
                   "flat weight size " << weights.size() << " != model size "
                                       << num_weights());
  std::size_t offset = 0;
  for (Param* p : params()) {
    std::copy_n(weights.begin() + static_cast<std::ptrdiff_t>(offset),
                p->value.numel(), p->value.data());
    offset += p->value.numel();
  }
}

std::vector<float> Model::flat_grads() const {
  std::vector<float> out;
  out.reserve(num_weights());
  for (const Param* p : params()) {
    const auto f = p->grad.flat();
    out.insert(out.end(), f.begin(), f.end());
  }
  return out;
}

Model Model::clone() const { return *this; }

Model& Model::operator=(const Model& other) {
  if (this == &other) return *this;
  layers_.clear();
  layers_.reserve(other.layers_.size());
  for (const auto& l : other.layers_) layers_.push_back(l->clone());
  return *this;
}

}  // namespace fedclust::nn
