// Sequential model container with named parameters and flat-weight
// (de)serialization — the unit the FL engine ships between server and
// clients.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "nn/layer.hpp"

namespace fedclust::nn {

/// Offset of one parameter tensor inside the flat weight vector.
struct ParamSlice {
  std::string name;    ///< qualified name, e.g. "fc3.weight"
  std::size_t offset;  ///< start index in the flat vector
  std::size_t size;    ///< number of float32 elements
};

/// A stack of layers executed in order. Owns its layers; copyable via
/// clone(). Layer instance names default to "<type><index>" ("conv1",
/// "linear3") and qualify parameter names.
class Model {
 public:
  Model() = default;

  /// Appends a layer and returns a reference to the added instance.
  Layer& add(std::unique_ptr<Layer> layer);

  /// Convenience: constructs L in place.
  template <typename L, typename... Args>
  L& emplace(Args&&... args) {
    auto layer = std::make_unique<L>(std::forward<Args>(args)...);
    L& ref = *layer;
    add(std::move(layer));
    return ref;
  }

  std::size_t num_layers() const { return layers_.size(); }
  Layer& layer(std::size_t i);
  const Layer& layer(std::size_t i) const;

  /// Initializes every layer's parameters from `rng` (deterministic for a
  /// given seed — all FL algorithms start clients from identical models).
  void init_params(Rng& rng);

  /// Runs the full stack. `train` enables dropout masking.
  Tensor forward(const Tensor& input, bool train = false);

  /// Backpropagates from the loss gradient w.r.t. the model output and
  /// accumulates parameter gradients. The gradient w.r.t. the model input
  /// is never formed: the first parameterized layer runs
  /// Layer::backward_params, and the layers below it are skipped.
  void backward(const Tensor& grad_output);

  /// Zeroes all parameter gradients.
  void zero_grad();

  /// Reseeds every RNG-bearing layer (Dropout mask streams) from `seed`,
  /// mixing in the layer index so two dropout layers never share a
  /// stream. Clones copy the template's RNG state verbatim, so callers
  /// that fan a model out (one clone per client) must reseed each clone
  /// or all of them draw identical mask sequences.
  void reseed_dropout(std::uint64_t seed);

  /// Lends a (borrowed, possibly null) thread pool to every layer whose
  /// kernels can use one; large GEMMs then split across row blocks.
  /// Clones inherit the pointer.
  void set_thread_pool(ThreadPool* pool);

  /// All parameters in layer order.
  std::vector<Param*> params();
  std::vector<const Param*> params() const;

  /// Total number of learnable scalars.
  std::size_t num_weights() const;

  /// Layout of the flat weight vector (stable across clones).
  std::vector<ParamSlice> slices() const;

  /// Finds the slice for a qualified parameter name; throws if absent.
  ParamSlice slice_for(const std::string& qualified_name) const;

  /// Serializes all parameter values into one float vector (the "model
  /// update" that goes over the wire).
  std::vector<float> flat_weights() const;
  /// Loads a flat vector produced by flat_weights() on an identically
  /// structured model.
  void set_flat_weights(std::span<const float> weights);

  /// Same for gradients (used by tests and by FedSGD-style baselines).
  std::vector<float> flat_grads() const;

  /// Deep copy with independent parameter storage.
  Model clone() const;

  Model(const Model& other) { *this = other; }
  Model& operator=(const Model& other);
  Model(Model&&) = default;
  Model& operator=(Model&&) = default;

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

}  // namespace fedclust::nn
