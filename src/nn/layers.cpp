#include "nn/layers.hpp"

#include <cmath>

#include "tensor/kernels.hpp"

namespace fedclust::nn {

// -- Conv2d ----------------------------------------------------------------

Conv2d::Conv2d(std::size_t in_channels, std::size_t out_channels,
               std::size_t kernel, std::size_t padding, std::size_t stride)
    : spec_{in_channels, out_channels, kernel, padding, stride},
      weight_("weight", {out_channels, in_channels, kernel, kernel}),
      bias_("bias", {out_channels}) {
  FEDCLUST_REQUIRE(in_channels > 0 && out_channels > 0 && kernel > 0,
                   "conv2d dimensions must be positive");
  FEDCLUST_REQUIRE(stride > 0, "conv2d stride must be positive");
}

void Conv2d::init_params(Rng& rng) {
  // Kaiming-uniform for ReLU nets: U(-b, b), b = sqrt(6 / fan_in).
  const double fan_in =
      static_cast<double>(spec_.in_channels * spec_.kernel * spec_.kernel);
  const double bound = std::sqrt(6.0 / fan_in);
  for (auto& v : weight_.value.flat()) {
    v = static_cast<float>(rng.uniform(-bound, bound));
  }
  bias_.value.zero();
}

Tensor Conv2d::forward(const Tensor& input, bool train) {
  if (train) cached_input_shape_ = input.shape();
  // A train forward leaves the column expansion in slot kColumns for the
  // paired backward()'s dW GEMM. An eval forward must not disturb that
  // cache (serving interleaves eval passes with training), so it expands
  // into a separate inference-only arena.
  ScratchArena& arena = train ? scratch_ : eval_scratch_;
  Tensor output;
  ops::conv2d_forward_im2col(input, weight_.value, bias_.value, spec_, output,
                             arena.slot(kColumns), arena.slot(kPix), pool_);
  return output;
}

void Conv2d::backward_params(const Tensor& grad_output) {
  FEDCLUST_REQUIRE(!cached_input_shape_.empty(), "backward before forward");
  // Kernels overwrite their outputs, so per-batch gradients go to scratch
  // first and are then accumulated into the Params.
  Tensor& dw = scratch_.acquire(kGradWeight, weight_.value.shape());
  Tensor& db = scratch_.acquire(kGradBias, bias_.value.shape());
  ops::conv2d_backward_params_im2col(grad_output, scratch_.slot(kColumns),
                                     spec_, dw, db, scratch_.slot(kPix), pool_);
  weight_.grad += dw;
  bias_.grad += db;
}

Tensor Conv2d::backward(const Tensor& grad_output) {
  backward_params(grad_output);
  Tensor grad_input(cached_input_shape_);
  ops::conv2d_backward_input_im2col(grad_output, weight_.value, spec_,
                                    grad_input, scratch_.slot(kPix),
                                    scratch_.slot(kGradColumns), pool_);
  return grad_input;
}

std::unique_ptr<Layer> Conv2d::clone() const {
  return std::make_unique<Conv2d>(*this);
}

// -- Linear ------------------------------------------------------------------

Linear::Linear(std::size_t in_features, std::size_t out_features)
    : in_features_(in_features),
      out_features_(out_features),
      weight_("weight", {out_features, in_features}),
      bias_("bias", {out_features}) {
  FEDCLUST_REQUIRE(in_features > 0 && out_features > 0,
                   "linear dimensions must be positive");
}

void Linear::init_params(Rng& rng) {
  const double bound = std::sqrt(6.0 / static_cast<double>(in_features_));
  for (auto& v : weight_.value.flat()) {
    v = static_cast<float>(rng.uniform(-bound, bound));
  }
  bias_.value.zero();
}

Tensor Linear::forward(const Tensor& input, bool train) {
  FEDCLUST_REQUIRE(input.rank() == 2 && input.dim(1) == in_features_,
                   "linear expects (batch, " << in_features_ << "), got "
                                             << shape_to_string(input.shape()));
  if (train) cached_input_ = input;
  Tensor output;
  ops::matmul_nt(input, weight_.value, output, pool_);  // (B,in)·(out,in)ᵀ
  const ops::KernelTable& kt = ops::kernels();
  for (std::size_t i = 0; i < output.dim(0); ++i) {
    kt.add(bias_.value.data(), output.data() + i * out_features_,
           out_features_);
  }
  return output;
}

void Linear::backward_params(const Tensor& grad_output) {
  FEDCLUST_REQUIRE(!cached_input_.empty(), "backward before forward");
  const std::size_t batch = grad_output.dim(0);

  // dW = gᵀ · x  (out×B · B×in), accumulated via a reused scratch slot.
  Tensor& dw = scratch_.slot(0);
  ops::matmul_tn(grad_output, cached_input_, dw, pool_);
  weight_.grad += dw;

  const ops::KernelTable& kt = ops::kernels();
  for (std::size_t i = 0; i < batch; ++i) {
    kt.add(grad_output.data() + i * out_features_, bias_.grad.data(),
           out_features_);
  }
}

Tensor Linear::backward(const Tensor& grad_output) {
  backward_params(grad_output);
  // dx = g · W  (B×out · out×in)
  Tensor grad_input;
  ops::matmul(grad_output, weight_.value, grad_input, pool_);
  return grad_input;
}

std::unique_ptr<Layer> Linear::clone() const {
  return std::make_unique<Linear>(*this);
}

// -- ReLU ----------------------------------------------------------------------

Tensor ReLU::forward(const Tensor& input, bool train) {
  if (train) {
    // relu_backward zeroes the gradient where its x <= 0, so a 0/1
    // stand-in for x reproduces it bit for bit (NaN inputs pass).
    Tensor& mask = mask_.acquire(0, input.shape());
    const float* x = input.data();
    float* m = mask.data();
    for (std::size_t i = 0; i < mask.numel(); ++i) {
      m[i] = x[i] <= 0.0f ? 0.0f : 1.0f;
    }
  }
  Tensor out(input.shape());
  ops::kernels().relu_forward(input.data(), out.data(), out.numel());
  return out;
}

Tensor ReLU::backward(const Tensor& grad_output) {
  const Tensor& mask = mask_.slot(0);
  FEDCLUST_REQUIRE(grad_output.same_shape(mask),
                   "relu backward shape mismatch");
  Tensor grad = grad_output;
  ops::kernels().relu_backward(mask.data(), grad.data(), grad.numel());
  return grad;
}

std::unique_ptr<Layer> ReLU::clone() const {
  return std::make_unique<ReLU>(*this);
}

// -- Tanh -----------------------------------------------------------------------

Tensor Tanh::forward(const Tensor& input, bool train) {
  Tensor out = input;
  for (auto& v : out.flat()) v = std::tanh(v);
  if (train) cached_output_ = out;
  return out;
}

Tensor Tanh::backward(const Tensor& grad_output) {
  Tensor grad = grad_output;
  const float* y = cached_output_.data();
  float* g = grad.data();
  for (std::size_t i = 0; i < grad.numel(); ++i) {
    g[i] *= 1.0f - y[i] * y[i];
  }
  return grad;
}

std::unique_ptr<Layer> Tanh::clone() const {
  return std::make_unique<Tanh>(*this);
}

// -- Pooling ----------------------------------------------------------------------

Tensor MaxPool2d::forward(const Tensor& input, bool train) {
  Tensor out;
  if (train) {
    cached_input_shape_ = input.shape();
    ops::max_pool_forward(input, window_, out, argmax_);
  } else {
    // The kernel needs an argmax output either way; eval keeps its own
    // bin so the backward routing of a pending train pass survives.
    ops::max_pool_forward(input, window_, out, eval_argmax_);
  }
  return out;
}

Tensor MaxPool2d::backward(const Tensor& grad_output) {
  Tensor grad_input(cached_input_shape_);
  ops::max_pool_backward(grad_output, argmax_, grad_input);
  return grad_input;
}

std::unique_ptr<Layer> MaxPool2d::clone() const {
  return std::make_unique<MaxPool2d>(*this);
}

Tensor AvgPool2d::forward(const Tensor& input, bool train) {
  if (train) cached_input_shape_ = input.shape();
  Tensor out;
  ops::avg_pool_forward(input, window_, out);
  return out;
}

Tensor AvgPool2d::backward(const Tensor& grad_output) {
  Tensor grad_input(cached_input_shape_);
  ops::avg_pool_backward(grad_output, window_, grad_input);
  return grad_input;
}

std::unique_ptr<Layer> AvgPool2d::clone() const {
  return std::make_unique<AvgPool2d>(*this);
}

// -- Flatten ------------------------------------------------------------------------

Tensor Flatten::forward(const Tensor& input, bool train) {
  FEDCLUST_REQUIRE(input.rank() >= 2, "flatten needs a batched input");
  if (train) cached_input_shape_ = input.shape();
  const std::size_t batch = input.dim(0);
  return input.reshaped({batch, input.numel() / batch});
}

Tensor Flatten::backward(const Tensor& grad_output) {
  return grad_output.reshaped(cached_input_shape_);
}

std::unique_ptr<Layer> Flatten::clone() const {
  return std::make_unique<Flatten>(*this);
}

// -- BatchNorm2d -------------------------------------------------------------------

BatchNorm2d::BatchNorm2d(std::size_t channels, double momentum,
                         double epsilon)
    : channels_(channels),
      momentum_(momentum),
      epsilon_(epsilon),
      gamma_("gamma", {channels}),
      beta_("beta", {channels}),
      running_mean_("running_mean", {channels}),
      running_var_("running_var", {channels}) {
  FEDCLUST_REQUIRE(channels > 0, "batch norm needs at least one channel");
  FEDCLUST_REQUIRE(momentum > 0.0 && momentum <= 1.0,
                   "momentum must be in (0, 1]");
  FEDCLUST_REQUIRE(epsilon > 0.0, "epsilon must be positive");
  gamma_.value.fill(1.0f);
  running_var_.value.fill(1.0f);
}

void BatchNorm2d::init_params(Rng& rng) {
  (void)rng;
  gamma_.value.fill(1.0f);
  beta_.value.zero();
  running_mean_.value.zero();
  running_var_.value.fill(1.0f);
}

Tensor BatchNorm2d::forward(const Tensor& input, bool train) {
  FEDCLUST_REQUIRE(input.rank() == 4 && input.dim(1) == channels_,
                   "batch norm expects (N, " << channels_ << ", H, W), got "
                                             << shape_to_string(input.shape()));
  const std::size_t n = input.dim(0), h = input.dim(2), w = input.dim(3);
  const std::size_t plane = h * w;
  const double m = static_cast<double>(n * plane);

  // Eval leaves x_hat_/inv_std_ alone: a pending train pass keeps its
  // backward caches, and a model that never trained still rejects
  // backward() (x_hat_ stays empty).
  Tensor out(input.shape());
  if (train) {
    x_hat_ = Tensor(input.shape());
    inv_std_.assign(channels_, 0.0f);
  }

  const ops::KernelTable& kt = ops::kernels();
  for (std::size_t c = 0; c < channels_; ++c) {
    double mean = 0.0, var = 0.0;
    if (train) {
      for (std::size_t img = 0; img < n; ++img) {
        mean += kt.sum(input.data() + (img * channels_ + c) * plane, plane);
      }
      mean /= m;
      for (std::size_t img = 0; img < n; ++img) {
        var += kt.sqdev(input.data() + (img * channels_ + c) * plane, mean,
                        plane);
      }
      var /= m;  // biased variance, as in the original paper
      running_mean_.value[c] = static_cast<float>(
          (1.0 - momentum_) * running_mean_.value[c] + momentum_ * mean);
      running_var_.value[c] = static_cast<float>(
          (1.0 - momentum_) * running_var_.value[c] + momentum_ * var);
    } else {
      mean = running_mean_.value[c];
      var = running_var_.value[c];
    }

    const float inv = static_cast<float>(1.0 / std::sqrt(var + epsilon_));
    const float g = gamma_.value[c];
    const float b = beta_.value[c];
    if (train) inv_std_[c] = inv;
    for (std::size_t img = 0; img < n; ++img) {
      const float* p = input.data() + (img * channels_ + c) * plane;
      float* o = out.data() + (img * channels_ + c) * plane;
      if (train) {
        // x̂ = (x − μ)·inv kept for backward, then y = γ·x̂ + β.
        float* xh = x_hat_.data() + (img * channels_ + c) * plane;
        kt.sub_mul(p, xh, static_cast<float>(mean), inv, plane);
        kt.scale_shift(xh, o, g, b, plane);
      } else {
        kt.sub_mul(p, o, static_cast<float>(mean), inv, plane);
        kt.scale_shift(o, o, g, b, plane);
      }
    }
  }
  return out;
}

Tensor BatchNorm2d::backward(const Tensor& grad_output) {
  FEDCLUST_REQUIRE(!x_hat_.empty(),
                   "batch norm backward requires a train-mode forward");
  FEDCLUST_REQUIRE(grad_output.same_shape(x_hat_),
                   "batch norm backward shape mismatch");
  const std::size_t n = grad_output.dim(0), h = grad_output.dim(2),
                    w = grad_output.dim(3);
  const std::size_t plane = h * w;
  const double m = static_cast<double>(n * plane);

  Tensor grad_input(grad_output.shape());
  const ops::KernelTable& kt = ops::kernels();
  for (std::size_t c = 0; c < channels_; ++c) {
    // Channel-wise reductions: Σdy and Σ(dy·x̂).
    double sum_dy = 0.0, sum_dy_xhat = 0.0;
    for (std::size_t img = 0; img < n; ++img) {
      const float* dy = grad_output.data() + (img * channels_ + c) * plane;
      const float* xh = x_hat_.data() + (img * channels_ + c) * plane;
      sum_dy += kt.sum(dy, plane);
      sum_dy_xhat += kt.dot(dy, xh, plane);
    }
    gamma_.grad[c] += static_cast<float>(sum_dy_xhat);
    beta_.grad[c] += static_cast<float>(sum_dy);

    // dx = (γ/σ) · (dy − Σdy/m − x̂·Σ(dy·x̂)/m)
    const double scale =
        static_cast<double>(gamma_.value[c]) * inv_std_[c];
    const double mean_dy = sum_dy / m;
    const double mean_dy_xhat = sum_dy_xhat / m;
    for (std::size_t img = 0; img < n; ++img) {
      const float* dy = grad_output.data() + (img * channels_ + c) * plane;
      const float* xh = x_hat_.data() + (img * channels_ + c) * plane;
      float* dx = grad_input.data() + (img * channels_ + c) * plane;
      kt.bn_backward_dx(dy, xh, dx, scale, mean_dy, mean_dy_xhat, plane);
    }
  }
  return grad_input;
}

std::unique_ptr<Layer> BatchNorm2d::clone() const {
  return std::make_unique<BatchNorm2d>(*this);
}

// -- Dropout ---------------------------------------------------------------------------

Dropout::Dropout(double p, std::uint64_t seed) : p_(p), rng_(seed) {
  FEDCLUST_REQUIRE(p >= 0.0 && p < 1.0, "dropout rate must be in [0, 1)");
}

Tensor Dropout::forward(const Tensor& input, bool train) {
  // Eval is a pure identity: it neither draws from the mask stream nor
  // clears the mask of a pending train pass, so backward() still applies
  // the mask of the train forward it pairs with.
  if (!train || p_ == 0.0) return input;
  mask_ = Tensor(input.shape());
  const float scale = static_cast<float>(1.0 / (1.0 - p_));
  for (auto& m : mask_.flat()) {
    m = rng_.bernoulli(p_) ? 0.0f : scale;
  }
  Tensor out = input;
  out.hadamard(mask_);
  return out;
}

Tensor Dropout::backward(const Tensor& grad_output) {
  if (mask_.empty()) return grad_output;  // eval-mode forward
  Tensor grad = grad_output;
  grad.hadamard(mask_);
  return grad;
}

std::unique_ptr<Layer> Dropout::clone() const {
  return std::make_unique<Dropout>(*this);
}

}  // namespace fedclust::nn
