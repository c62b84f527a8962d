// Layer abstraction for the from-scratch neural network library.
//
// The library is deliberately small: sequential models, explicit
// layer-by-layer backward passes, float32 parameters. That is all the
// federated-learning algorithms need — they treat a model as "a thing
// that trains locally and exposes named weight tensors".
//
// Contract: a TRAIN-mode forward() caches whatever the subsequent
// backward() needs, so train forward/backward calls must be paired on
// the same batch. An EVAL-mode forward (train == false) is a pure
// inference pass: it allocates no backward caches and leaves every
// training cache untouched, so eval forwards may interleave freely with
// train forward/backward pairs (the serving engine relies on this).
// backward() always refers to the most recent TRAIN-mode forward.
// Parameter gradients are ACCUMULATED by backward(); callers zero them
// via Model::zero_grad() between optimizer steps.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"

namespace fedclust {

class Rng;
class ThreadPool;

namespace nn {

/// A learnable tensor with its gradient.
struct Param {
  std::string name;  ///< e.g. "conv1.weight"
  Tensor value;
  Tensor grad;

  Param(std::string n, Shape shape)
      : name(std::move(n)), value(shape), grad(std::move(shape)) {}
};

/// Base class for all layers.
class Layer {
 public:
  virtual ~Layer() = default;

  /// Short type tag, e.g. "conv2d", "linear", "relu".
  virtual const char* type() const = 0;

  /// Layer instance name used to qualify parameter names ("conv1").
  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  /// Computes the layer output; `train` enables train-only behaviour
  /// (dropout masking).
  virtual Tensor forward(const Tensor& input, bool train) = 0;

  /// Propagates the loss gradient; accumulates into parameter grads and
  /// returns the gradient w.r.t. the layer input.
  virtual Tensor backward(const Tensor& grad_output) = 0;

  /// Accumulates exactly the parameter gradients backward() would, but
  /// skips the input gradient nobody reads below a model's first
  /// parameterized layer. Default: backward() with the result dropped.
  virtual void backward_params(const Tensor& grad_output) {
    (void)backward(grad_output);
  }

  /// Learnable parameters (empty for stateless layers).
  virtual std::vector<Param*> params() { return {}; }

  /// (Re-)initializes parameters from `rng`. Default: nothing.
  virtual void init_params(Rng& rng) { (void)rng; }

  /// Reseeds any internal RNG stream (Dropout's mask stream). Default:
  /// nothing. The FL trainer calls this on every cloned model with a
  /// (client, round)-keyed seed — clones copy the template's RNG state,
  /// so without reseeding every client would replay identical streams.
  virtual void reseed(std::uint64_t seed) { (void)seed; }

  /// Lends a thread pool to layers whose kernels can split work across
  /// row blocks (Conv2d, Linear). The pool is borrowed, never owned, and
  /// may be null (single-threaded kernels). Default: ignored.
  virtual void set_thread_pool(ThreadPool* pool) { (void)pool; }

  /// Deep copy, preserving parameter values but not cached activations.
  virtual std::unique_ptr<Layer> clone() const = 0;

 protected:
  Layer() = default;
  Layer(const Layer&) = default;
  Layer& operator=(const Layer&) = default;

 private:
  std::string name_;
};

}  // namespace nn
}  // namespace fedclust
