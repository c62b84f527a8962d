// Concrete layers: Conv2d, Linear, ReLU, Tanh, MaxPool2d, AvgPool2d,
// Flatten, Dropout.
#pragma once

#include <memory>
#include <vector>

#include "nn/layer.hpp"
#include "tensor/ops.hpp"
#include "tensor/scratch.hpp"
#include "utils/rng.hpp"

namespace fedclust::nn {

/// 2-D convolution (square kernel, configurable stride/padding).
/// Weight layout (out_channels, in_channels, k, k); Kaiming-uniform init.
///
/// Runs im2col + blocked GEMM (the direct ops::conv2d_* kernels are the
/// test reference). A TRAIN forward caches the column expansion and
/// reuses it in backward, with all temporaries held in a ScratchArena so
/// steady-state training does zero heap allocation per batch. EVAL
/// forwards expand into a separate inference-only arena so they never
/// disturb a pending train cache.
class Conv2d final : public Layer {
 public:
  Conv2d(std::size_t in_channels, std::size_t out_channels, std::size_t kernel,
         std::size_t padding = 0, std::size_t stride = 1);

  const char* type() const override { return "conv2d"; }
  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  void backward_params(const Tensor& grad_output) override;
  std::vector<Param*> params() override { return {&weight_, &bias_}; }
  void init_params(Rng& rng) override;
  void set_thread_pool(ThreadPool* pool) override { pool_ = pool; }
  std::unique_ptr<Layer> clone() const override;

  /// Slot keys of the training scratch arena.
  enum Slot : std::size_t {
    kColumns = 0,   // im2col expansion, cached forward -> backward
    kPix,           // pixel-major GEMM operand/result
    kGradColumns,   // grad w.r.t. columns (backward-input)
    kGradWeight,    // per-batch dW before accumulation into the Param
    kGradBias,      // per-batch db before accumulation into the Param
  };

  const ops::Conv2dSpec& spec() const { return spec_; }

  /// Heap (re)allocations the scratch arena has performed so far; stable
  /// across batches once shapes reach steady state.
  std::size_t scratch_allocations() const { return scratch_.allocations(); }
  /// Floats currently held by the scratch arena — stable across batches
  /// in steady state (kernels resize slots in place, reusing capacity).
  std::size_t scratch_footprint() const { return scratch_.footprint(); }
  /// Floats held by one training slot (0 if the slot was never used).
  std::size_t scratch_capacity(Slot slot) const {
    return scratch_.capacity(slot);
  }
  /// Same counters for the eval-only arena: eval forwards allocate here
  /// once per shape and never touch the training arena above.
  std::size_t eval_scratch_allocations() const {
    return eval_scratch_.allocations();
  }
  std::size_t eval_scratch_footprint() const {
    return eval_scratch_.footprint();
  }

 private:
  ops::Conv2dSpec spec_;
  Param weight_;
  Param bias_;
  Shape cached_input_shape_;
  ScratchArena scratch_;       // train-mode workspaces (kColumns feeds backward)
  ScratchArena eval_scratch_;  // eval-mode im2col workspaces (slots kColumns/kPix)
  ThreadPool* pool_ = nullptr;  // borrowed; null = single-threaded kernels
};

/// Fully connected layer: y = x·Wᵀ + b with W (out × in).
class Linear final : public Layer {
 public:
  Linear(std::size_t in_features, std::size_t out_features);

  const char* type() const override { return "linear"; }
  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  void backward_params(const Tensor& grad_output) override;
  std::vector<Param*> params() override { return {&weight_, &bias_}; }
  void init_params(Rng& rng) override;
  void set_thread_pool(ThreadPool* pool) override { pool_ = pool; }
  std::unique_ptr<Layer> clone() const override;

  std::size_t in_features() const { return in_features_; }
  std::size_t out_features() const { return out_features_; }

 private:
  std::size_t in_features_;
  std::size_t out_features_;
  Param weight_;
  Param bias_;
  Tensor cached_input_;
  ScratchArena scratch_;         // slot 0: per-batch dW
  ThreadPool* pool_ = nullptr;   // borrowed; null = single-threaded kernels
};

/// Elementwise max(x, 0). A TRAIN forward records a 0/1 mask of where
/// the gradient passes (x > 0, or x is NaN) in a reused buffer.
class ReLU final : public Layer {
 public:
  const char* type() const override { return "relu"; }
  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  std::unique_ptr<Layer> clone() const override;

  /// Heap (re)allocations of the mask buffer so far; stable across
  /// batches once shapes reach steady state.
  std::size_t mask_allocations() const { return mask_.allocations(); }

 private:
  ScratchArena mask_;  // slot 0: the mask, cached forward -> backward
};

/// Elementwise tanh (the classic LeNet activation).
class Tanh final : public Layer {
 public:
  const char* type() const override { return "tanh"; }
  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  std::unique_ptr<Layer> clone() const override;

 private:
  Tensor cached_output_;
};

/// Non-overlapping max pooling (window == stride).
class MaxPool2d final : public Layer {
 public:
  explicit MaxPool2d(std::size_t window) : window_(window) {}

  const char* type() const override { return "max_pool2d"; }
  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  std::unique_ptr<Layer> clone() const override;

 private:
  std::size_t window_;
  Shape cached_input_shape_;
  std::vector<std::size_t> argmax_;       // backward routing (train forward)
  std::vector<std::size_t> eval_argmax_;  // kernel output bin for eval forwards
};

/// Non-overlapping average pooling (window == stride).
class AvgPool2d final : public Layer {
 public:
  explicit AvgPool2d(std::size_t window) : window_(window) {}

  const char* type() const override { return "avg_pool2d"; }
  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  std::unique_ptr<Layer> clone() const override;

 private:
  std::size_t window_;
  Shape cached_input_shape_;
};

/// Collapses (N, C, H, W) to (N, C·H·W).
class Flatten final : public Layer {
 public:
  const char* type() const override { return "flatten"; }
  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  std::unique_ptr<Layer> clone() const override;

 private:
  Shape cached_input_shape_;
};

/// Per-channel batch normalization for NCHW inputs (Ioffe & Szegedy,
/// 2015). Train mode normalizes with batch statistics and updates the
/// running mean/var; eval mode uses the running statistics.
///
/// FL note: gamma/beta are learnable and travel with the model like any
/// parameter; the running statistics do too (they are exposed through
/// params() as non-gradient tensors would not be — instead they live in
/// extra parameter slots whose gradients stay zero), which matches how
/// FedAvg-style systems average BN statistics across clients.
class BatchNorm2d final : public Layer {
 public:
  explicit BatchNorm2d(std::size_t channels, double momentum = 0.1,
                       double epsilon = 1e-5);

  const char* type() const override { return "batch_norm2d"; }
  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  /// gamma, beta, running_mean, running_var — the latter two have
  /// permanently zero gradients but are included so they are aggregated
  /// and shipped with the model.
  std::vector<Param*> params() override {
    return {&gamma_, &beta_, &running_mean_, &running_var_};
  }
  void init_params(Rng& rng) override;
  std::unique_ptr<Layer> clone() const override;

  std::size_t channels() const { return channels_; }

 private:
  std::size_t channels_;
  double momentum_;
  double epsilon_;
  Param gamma_;
  Param beta_;
  Param running_mean_;
  Param running_var_;
  // Backward caches (train-mode forward only).
  Tensor x_hat_;
  std::vector<float> inv_std_;
};

/// Inverted dropout: train-time mask scaled by 1/(1-p); identity at eval.
/// The mask stream is drawn from an internal Rng reseedable via
/// `reseed()` so client-local training stays deterministic.
class Dropout final : public Layer {
 public:
  explicit Dropout(double p, std::uint64_t seed = 0x5eed);

  const char* type() const override { return "dropout"; }
  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  std::unique_ptr<Layer> clone() const override;

  void reseed(std::uint64_t seed) override { rng_ = Rng(seed); }
  double rate() const { return p_; }

 private:
  double p_;
  Rng rng_;
  Tensor mask_;
};

}  // namespace fedclust::nn
