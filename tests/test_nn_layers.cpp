// Per-layer tests: shape handling, known-value forwards, and
// finite-difference gradient checks through the Layer interface.
#include "nn/layers.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>

#include "tensor/kernels.hpp"

namespace fedclust::nn {
namespace {

Tensor random_tensor(Shape shape, std::uint64_t seed, float scale = 1.0f) {
  Rng rng(seed);
  return Tensor::randn(std::move(shape), rng, 0.0f, scale);
}

/// Scalar loss L = Σ g ⊙ layer(x); returns analytic input grad and fills
/// parameter grads.
Tensor analytic_grads(Layer& layer, const Tensor& x, const Tensor& g) {
  for (Param* p : layer.params()) p->grad.zero();
  // backward() pairs with a TRAIN-mode forward; eval forwards allocate
  // no backward caches.
  (void)layer.forward(x, /*train=*/true);
  return layer.backward(g);
}

double loss_of(Layer& layer, const Tensor& x, const Tensor& g) {
  const Tensor y = layer.forward(x, /*train=*/false);
  double l = 0.0;
  for (std::size_t i = 0; i < g.numel(); ++i) {
    l += static_cast<double>(g[i]) * y[i];
  }
  return l;
}

/// Checks dL/dx against central differences at a few probe indices.
void check_input_grad(Layer& layer, Tensor x, const Tensor& g,
                      std::initializer_list<std::size_t> probes,
                      double tol = 5e-2) {
  const Tensor grad = analytic_grads(layer, x, g);
  const float eps = 1e-2f;
  for (std::size_t p : probes) {
    const float orig = x[p];
    x[p] = orig + eps;
    const double lp = loss_of(layer, x, g);
    x[p] = orig - eps;
    const double lm = loss_of(layer, x, g);
    x[p] = orig;
    EXPECT_NEAR(grad[p], (lp - lm) / (2.0 * eps), tol) << "input idx " << p;
  }
}

/// Checks each parameter's gradient at a few probe indices.
void check_param_grads(Layer& layer, const Tensor& x, const Tensor& g,
                       double tol = 5e-2) {
  (void)analytic_grads(layer, x, g);
  std::vector<std::vector<float>> saved;
  for (Param* p : layer.params()) {
    saved.emplace_back(p->grad.flat().begin(), p->grad.flat().end());
  }
  const float eps = 1e-2f;
  std::size_t pi = 0;
  for (Param* p : layer.params()) {
    for (std::size_t idx :
         {std::size_t{0}, p->value.numel() / 2, p->value.numel() - 1}) {
      const float orig = p->value[idx];
      p->value[idx] = orig + eps;
      const double lp = loss_of(layer, x, g);
      p->value[idx] = orig - eps;
      const double lm = loss_of(layer, x, g);
      p->value[idx] = orig;
      EXPECT_NEAR(saved[pi][idx], (lp - lm) / (2.0 * eps), tol)
          << p->name << "[" << idx << "]";
    }
    ++pi;
  }
}

// -- Linear ------------------------------------------------------------------

TEST(LinearLayer, ForwardKnownValues) {
  Linear fc(2, 2);
  // W = [[1, 2], [3, 4]], b = [10, 20]; y = x Wᵀ + b.
  fc.params()[0]->value = Tensor({2, 2}, std::vector<float>{1, 2, 3, 4});
  fc.params()[1]->value = Tensor({2}, std::vector<float>{10, 20});
  const Tensor x({1, 2}, std::vector<float>{1, 1});
  const Tensor y = fc.forward(x, false);
  EXPECT_FLOAT_EQ(y.at(0, 0), 13.0f);
  EXPECT_FLOAT_EQ(y.at(0, 1), 27.0f);
}

TEST(LinearLayer, GradientsMatchFiniteDifference) {
  Linear fc(5, 3);
  Rng rng(1);
  fc.init_params(rng);
  const Tensor x = random_tensor({4, 5}, 2);
  const Tensor g = random_tensor({4, 3}, 3);
  check_input_grad(fc, x, g, {0, 7, 19});
  check_param_grads(fc, x, g);
}

TEST(LinearLayer, GradAccumulatesAcrossBackwardCalls) {
  Linear fc(3, 2);
  Rng rng(4);
  fc.init_params(rng);
  const Tensor x = random_tensor({2, 3}, 5);
  const Tensor g = random_tensor({2, 2}, 6);
  (void)fc.forward(x, true);
  (void)fc.backward(g);
  const float once = fc.params()[0]->grad[0];
  (void)fc.forward(x, true);
  (void)fc.backward(g);
  EXPECT_NEAR(fc.params()[0]->grad[0], 2.0f * once, 1e-5f);
}

TEST(LinearLayer, RejectsWrongInputWidth) {
  Linear fc(3, 2);
  const Tensor x({2, 4});
  EXPECT_THROW(fc.forward(x, false), Error);
}

// -- Conv2d -----------------------------------------------------------------

TEST(Conv2dLayer, GradientsMatchFiniteDifference) {
  Conv2d conv(2, 3, 3, /*padding=*/1);
  Rng rng(7);
  conv.init_params(rng);
  const Tensor x = random_tensor({2, 2, 6, 6}, 8);
  const Tensor g = random_tensor({2, 3, 6, 6}, 9);
  check_input_grad(conv, x, g, {0, 31, 143});
  check_param_grads(conv, x, g, /*tol=*/0.1);
}

TEST(Conv2dLayer, KaimingInitScale) {
  Conv2d conv(3, 8, 5);
  Rng rng(10);
  conv.init_params(rng);
  const Tensor& w = conv.params()[0]->value;
  const float bound = std::sqrt(6.0f / (3 * 5 * 5));
  EXPECT_GE(w.min(), -bound);
  EXPECT_LE(w.max(), bound);
  // Bias starts at zero.
  EXPECT_FLOAT_EQ(conv.params()[1]->value.norm(), 0.0f);
}

TEST(Conv2dLayer, BackwardBeforeForwardThrows) {
  Conv2d conv(1, 1, 3, 1);
  const Tensor g({1, 1, 4, 4});
  EXPECT_THROW(conv.backward(g), Error);
}

// -- activations ---------------------------------------------------------------

TEST(ReLULayer, ForwardClampsNegatives) {
  ReLU relu;
  const Tensor x({4}, std::vector<float>{-1, 0, 2, -3});
  const Tensor y = relu.forward(x, false);
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[1], 0.0f);
  EXPECT_FLOAT_EQ(y[2], 2.0f);
}

TEST(ReLULayer, BackwardMasksNegativeInputs) {
  ReLU relu;
  const Tensor x({4}, std::vector<float>{-1, 0.5f, 2, -3});
  (void)relu.forward(x, true);
  const Tensor g({4}, std::vector<float>{1, 1, 1, 1});
  const Tensor dx = relu.backward(g);
  EXPECT_FLOAT_EQ(dx[0], 0.0f);
  EXPECT_FLOAT_EQ(dx[1], 1.0f);
  EXPECT_FLOAT_EQ(dx[2], 1.0f);
  EXPECT_FLOAT_EQ(dx[3], 0.0f);
}

TEST(ReLULayer, BackwardBitwiseMatchesKernelOnInput) {
  // The mask must reproduce relu_backward applied to the cached input
  // itself, on every edge of its x <= 0 contract. 37 elements cover the
  // SIMD body and the scalar tail.
  const float edges[] = {std::numeric_limits<float>::quiet_NaN(),
                         -0.0f,
                         0.0f,
                         std::numeric_limits<float>::denorm_min(),
                         -std::numeric_limits<float>::denorm_min(),
                         1.0f,
                         -1.0f};
  std::vector<float> xs(37), gs(37);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    xs[i] = edges[i % std::size(edges)];
    gs[i] = 0.25f * static_cast<float>(i + 1) * (i % 2 == 0 ? 1.0f : -1.0f);
  }
  const Tensor x({xs.size()}, xs);
  const Tensor g({gs.size()}, gs);

  ReLU relu;
  (void)relu.forward(x, true);
  const Tensor dx = relu.backward(g);

  std::vector<float> want = gs;
  ops::kernels().relu_backward(xs.data(), want.data(), want.size());
  ASSERT_EQ(dx.numel(), want.size());
  EXPECT_EQ(std::memcmp(dx.data(), want.data(), want.size() * sizeof(float)),
            0);
  EXPECT_EQ(dx[0], g[0]);  // NaN input passes its gradient
  EXPECT_EQ(dx[1], 0.0f);  // -0 blocks it
  EXPECT_EQ(dx[3], g[3]);  // a positive denormal passes it
}

TEST(ReLULayer, SteadyStateBatchesDoNotReallocateMask) {
  ReLU relu;
  const Tensor full = random_tensor({32, 6, 4, 4}, 86);
  const Tensor tail = random_tensor({5, 6, 4, 4}, 87);
  (void)relu.forward(full, true);
  (void)relu.backward(full);
  EXPECT_EQ(relu.mask_allocations(), 1u);
  for (int epoch = 0; epoch < 3; ++epoch) {
    (void)relu.forward(full, true);
    (void)relu.backward(full);
    (void)relu.forward(tail, true);  // an epoch's short last batch
    (void)relu.backward(tail);
  }
  EXPECT_EQ(relu.mask_allocations(), 1u);
}

TEST(TanhLayer, ForwardAndGradient) {
  Tanh tanh_layer;
  const Tensor x({2}, std::vector<float>{0.0f, 1.0f});
  const Tensor y = tanh_layer.forward(x, true);
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_NEAR(y[1], std::tanh(1.0f), 1e-6f);

  const Tensor g({2}, std::vector<float>{1.0f, 1.0f});
  const Tensor dx = tanh_layer.backward(g);
  EXPECT_NEAR(dx[0], 1.0f, 1e-6f);  // tanh'(0) = 1
  const float t = std::tanh(1.0f);
  EXPECT_NEAR(dx[1], 1.0f - t * t, 1e-6f);
}

// -- pooling / flatten ----------------------------------------------------------

TEST(MaxPoolLayer, RoundTripGradient) {
  MaxPool2d pool(2);
  const Tensor x = random_tensor({1, 2, 4, 4}, 11);
  const Tensor y = pool.forward(x, true);
  EXPECT_EQ(y.shape(), (Shape{1, 2, 2, 2}));
  const Tensor g = Tensor::ones(y.shape());
  const Tensor dx = pool.backward(g);
  EXPECT_EQ(dx.shape(), x.shape());
  // Gradient mass is conserved: each output routes to exactly one input.
  EXPECT_NEAR(dx.sum(), g.sum(), 1e-5f);
}

TEST(AvgPoolLayer, ForwardBackwardShapes) {
  AvgPool2d pool(2);
  const Tensor x = random_tensor({2, 3, 8, 8}, 12);
  const Tensor y = pool.forward(x, true);
  EXPECT_EQ(y.shape(), (Shape{2, 3, 4, 4}));
  const Tensor dx = pool.backward(Tensor::ones(y.shape()));
  EXPECT_EQ(dx.shape(), x.shape());
  EXPECT_NEAR(dx.sum(), static_cast<float>(y.numel()), 1e-4f);
}

TEST(FlattenLayer, CollapsesAndRestores) {
  Flatten flat;
  const Tensor x = random_tensor({2, 3, 4, 4}, 13);
  const Tensor y = flat.forward(x, true);
  EXPECT_EQ(y.shape(), (Shape{2, 48}));
  const Tensor dx = flat.backward(y);
  EXPECT_EQ(dx.shape(), x.shape());
  EXPECT_FLOAT_EQ(dx[17], x[17]);
}

// -- batch norm ----------------------------------------------------------------

TEST(BatchNormLayer, TrainForwardNormalizesPerChannel) {
  BatchNorm2d bn(2);
  const Tensor x = random_tensor({4, 2, 3, 3}, 60, 5.0f);
  const Tensor y = bn.forward(x, /*train=*/true);
  // Each channel of the output is ~zero-mean unit-variance (gamma=1,
  // beta=0 at init).
  for (std::size_t c = 0; c < 2; ++c) {
    double mean = 0.0, var = 0.0;
    const std::size_t m = 4 * 9;
    for (std::size_t img = 0; img < 4; ++img) {
      for (std::size_t i = 0; i < 9; ++i) {
        mean += y.at(img, c, i / 3, i % 3);
      }
    }
    mean /= static_cast<double>(m);
    for (std::size_t img = 0; img < 4; ++img) {
      for (std::size_t i = 0; i < 9; ++i) {
        const double d = y.at(img, c, i / 3, i % 3) - mean;
        var += d * d;
      }
    }
    var /= static_cast<double>(m);
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(BatchNormLayer, EvalUsesRunningStatistics) {
  BatchNorm2d bn(1, /*momentum=*/1.0);  // running stats = last batch stats
  Rng rng(61);
  const Tensor x = Tensor::randn({8, 1, 4, 4}, rng, 3.0f, 2.0f);
  (void)bn.forward(x, true);
  // After one momentum-1 update, eval on the SAME batch ~ train output.
  const Tensor ytrain = bn.forward(x, true);
  const Tensor yeval = bn.forward(x, false);
  for (std::size_t i = 0; i < yeval.numel(); ++i) {
    ASSERT_NEAR(yeval[i], ytrain[i], 5e-2f);
  }
}

TEST(BatchNormLayer, GradientsMatchFiniteDifference) {
  // BN's backward needs a TRAIN-mode forward (batch statistics), so this
  // check runs its own train-mode finite differences. momentum must not
  // perturb the loss between probes: with fresh running stats each probe
  // still normalizes with the same batch stats, so it's safe.
  BatchNorm2d bn(2);
  // Nudge gamma/beta off their defaults so gradients are generic.
  bn.params()[0]->value[0] = 1.3f;
  bn.params()[1]->value[1] = -0.4f;
  Tensor x = random_tensor({3, 2, 2, 2}, 63);
  const Tensor g = random_tensor({3, 2, 2, 2}, 64);

  auto loss_train = [&]() {
    const Tensor y = bn.forward(x, true);
    double l = 0.0;
    for (std::size_t i = 0; i < g.numel(); ++i) {
      l += static_cast<double>(g[i]) * y[i];
    }
    return l;
  };

  (void)bn.forward(x, true);
  const Tensor grad = bn.backward(g);

  const float eps = 1e-2f;
  for (std::size_t probe : {0u, 9u, 23u}) {
    const float orig = x[probe];
    x[probe] = orig + eps;
    const double lp = loss_train();
    x[probe] = orig - eps;
    const double lm = loss_train();
    x[probe] = orig;
    EXPECT_NEAR(grad[probe], (lp - lm) / (2.0 * eps), 8e-2)
        << "input idx " << probe;
  }
}

TEST(BatchNormLayer, GammaBetaGradientsMatchFiniteDifference) {
  // Forward in train mode; perturb gamma/beta and compare the loss
  // delta against the analytic accumulation.
  BatchNorm2d bn(2);
  const Tensor x = random_tensor({3, 2, 2, 2}, 65);
  const Tensor g = random_tensor({3, 2, 2, 2}, 66);

  auto loss_of_train = [&]() {
    const Tensor y = bn.forward(x, true);
    double l = 0.0;
    for (std::size_t i = 0; i < g.numel(); ++i) {
      l += static_cast<double>(g[i]) * y[i];
    }
    return l;
  };

  for (Param* p : bn.params()) p->grad.zero();
  (void)bn.forward(x, true);
  (void)bn.backward(g);
  const float dgamma0 = bn.params()[0]->grad[0];
  const float dbeta1 = bn.params()[1]->grad[1];

  const float eps = 1e-2f;
  Param* gamma = bn.params()[0];
  const float orig_g = gamma->value[0];
  gamma->value[0] = orig_g + eps;
  const double lp = loss_of_train();
  gamma->value[0] = orig_g - eps;
  const double lm = loss_of_train();
  gamma->value[0] = orig_g;
  EXPECT_NEAR(dgamma0, (lp - lm) / (2.0 * eps), 5e-2);

  Param* beta = bn.params()[1];
  const float orig_b = beta->value[1];
  beta->value[1] = orig_b + eps;
  const double lbp = loss_of_train();
  beta->value[1] = orig_b - eps;
  const double lbm = loss_of_train();
  beta->value[1] = orig_b;
  EXPECT_NEAR(dbeta1, (lbp - lbm) / (2.0 * eps), 5e-2);
}

TEST(BatchNormLayer, RunningStatsTravelWithFlatWeights) {
  // The running statistics are exposed as parameters, so they survive
  // the flat-weights round trip models use on the wire.
  BatchNorm2d bn(1, 1.0);
  Rng rng(67);
  const Tensor x = Tensor::randn({8, 1, 2, 2}, rng, 7.0f, 1.0f);
  (void)bn.forward(x, true);
  EXPECT_NEAR(bn.params()[2]->value[0], 7.0f, 0.5f);  // running mean
}

TEST(BatchNormLayer, BackwardInEvalModeThrows) {
  BatchNorm2d bn(1);
  const Tensor x = random_tensor({2, 1, 2, 2}, 68);
  (void)bn.forward(x, false);
  EXPECT_THROW(bn.backward(x), Error);
}

TEST(BatchNormLayer, RejectsBadConfigAndInput) {
  EXPECT_THROW(BatchNorm2d(0), Error);
  EXPECT_THROW(BatchNorm2d(2, 0.0), Error);
  BatchNorm2d bn(3);
  EXPECT_THROW(bn.forward(Tensor({1, 2, 4, 4}), true), Error);
}

// -- dropout -----------------------------------------------------------------

TEST(DropoutLayer, EvalModeIsIdentity) {
  Dropout drop(0.5);
  const Tensor x = random_tensor({100}, 14);
  const Tensor y = drop.forward(x, /*train=*/false);
  for (std::size_t i = 0; i < x.numel(); ++i) EXPECT_FLOAT_EQ(y[i], x[i]);
  // Backward in eval mode is identity too.
  const Tensor dx = drop.backward(x);
  for (std::size_t i = 0; i < x.numel(); ++i) EXPECT_FLOAT_EQ(dx[i], x[i]);
}

TEST(DropoutLayer, TrainModeDropsAndRescales) {
  Dropout drop(0.5, /*seed=*/99);
  const Tensor x = Tensor::ones({10000});
  const Tensor y = drop.forward(x, /*train=*/true);
  std::size_t zeros = 0;
  for (std::size_t i = 0; i < y.numel(); ++i) {
    if (y[i] == 0.0f) {
      ++zeros;
    } else {
      EXPECT_FLOAT_EQ(y[i], 2.0f);  // 1 / (1 - 0.5)
    }
  }
  EXPECT_NEAR(static_cast<double>(zeros) / 10000.0, 0.5, 0.03);
  // Expected value preserved.
  EXPECT_NEAR(y.mean(), 1.0f, 0.05f);
}

TEST(DropoutLayer, BackwardUsesSameMask) {
  Dropout drop(0.3, 7);
  const Tensor x = Tensor::ones({1000});
  const Tensor y = drop.forward(x, true);
  const Tensor dx = drop.backward(Tensor::ones({1000}));
  for (std::size_t i = 0; i < x.numel(); ++i) {
    EXPECT_FLOAT_EQ(dx[i], y[i]);  // same mask, same scale
  }
}

TEST(DropoutLayer, RejectsInvalidRate) {
  EXPECT_THROW(Dropout(1.0), Error);
  EXPECT_THROW(Dropout(-0.1), Error);
  EXPECT_NO_THROW(Dropout(0.0));
}

// -- eval-mode inference fast path -------------------------------------------
//
// forward(x, /*train=*/false) is a pure inference pass: it must produce
// the same bits as a train forward (for deterministic layers), allocate
// no backward caches, and leave the caches of a pending train pass
// untouched so eval passes can interleave with training (the serving
// engine interleaves them continuously).

TEST(EvalForward, BitIdenticalToTrainForward) {
  Conv2d conv(2, 3, 3, /*padding=*/1);
  Rng rng(70);
  conv.init_params(rng);
  Linear fc(6, 4);
  fc.init_params(rng);

  const Tensor xc = random_tensor({2, 2, 6, 6}, 71);
  const Tensor yc_train = conv.forward(xc, true);
  const Tensor yc_eval = conv.forward(xc, false);
  ASSERT_EQ(yc_train.numel(), yc_eval.numel());
  for (std::size_t i = 0; i < yc_train.numel(); ++i) {
    ASSERT_EQ(yc_train[i], yc_eval[i]) << "conv output idx " << i;
  }

  const Tensor xl = random_tensor({3, 6}, 72);
  const Tensor yl_train = fc.forward(xl, true);
  const Tensor yl_eval = fc.forward(xl, false);
  for (std::size_t i = 0; i < yl_train.numel(); ++i) {
    ASSERT_EQ(yl_train[i], yl_eval[i]) << "linear output idx " << i;
  }
}

TEST(EvalForward, ConvAllocatesNoBackwardCaches) {
  Conv2d conv(1, 2, 3, /*padding=*/1);
  Rng rng(73);
  conv.init_params(rng);
  const Tensor x = random_tensor({2, 1, 8, 8}, 74);

  (void)conv.forward(x, false);
  // The training arena never saw the eval pass...
  EXPECT_EQ(conv.scratch_footprint(), 0u);
  EXPECT_EQ(conv.scratch_allocations(), 0u);
  // ...and backward has nothing to pair with.
  EXPECT_THROW(conv.backward(Tensor({2, 2, 8, 8})), Error);

  // The eval arena reaches steady state after the first same-shape pass.
  const std::size_t after_first = conv.eval_scratch_footprint();
  EXPECT_GT(after_first, 0u);
  (void)conv.forward(x, false);
  (void)conv.forward(x, false);
  EXPECT_EQ(conv.eval_scratch_footprint(), after_first);
  EXPECT_EQ(conv.eval_scratch_allocations(), 0u);  // slots resize in place
  EXPECT_EQ(conv.scratch_footprint(), 0u);
}

TEST(EvalForward, ConvLeavesTrainCachesUntouched) {
  Conv2d conv(2, 3, 3, /*padding=*/1);
  Rng rng(75);
  conv.init_params(rng);
  Conv2d control = conv;  // same params, never sees the eval pass

  const Tensor x1 = random_tensor({2, 2, 6, 6}, 76);
  const Tensor x2 = random_tensor({4, 2, 6, 6}, 77);  // different batch
  const Tensor g = random_tensor({2, 3, 6, 6}, 78);

  (void)conv.forward(x1, true);
  (void)conv.forward(x2, false);  // interleaved inference pass
  const Tensor dx = conv.backward(g);

  (void)control.forward(x1, true);
  const Tensor dx_control = control.backward(g);

  for (std::size_t i = 0; i < dx.numel(); ++i) {
    ASSERT_EQ(dx[i], dx_control[i]) << "dx idx " << i;
  }
  for (std::size_t p = 0; p < 2; ++p) {
    const Tensor& got = conv.params()[p]->grad;
    const Tensor& want = control.params()[p]->grad;
    for (std::size_t i = 0; i < got.numel(); ++i) {
      ASSERT_EQ(got[i], want[i]) << "param " << p << " grad idx " << i;
    }
  }
}

TEST(EvalForward, MaxPoolKeepsTrainArgmaxAcrossEvalPasses) {
  MaxPool2d pool(2);
  MaxPool2d control(2);
  const Tensor x1 = random_tensor({1, 2, 4, 4}, 79);
  Tensor x2 = x1;
  x2 *= -1.0f;  // flips every window's argmax
  const Tensor g = random_tensor({1, 2, 2, 2}, 80);

  (void)pool.forward(x1, true);
  (void)pool.forward(x2, false);
  const Tensor dx = pool.backward(g);

  (void)control.forward(x1, true);
  const Tensor dx_control = control.backward(g);
  for (std::size_t i = 0; i < dx.numel(); ++i) {
    ASSERT_EQ(dx[i], dx_control[i]) << "dx idx " << i;
  }
}

TEST(EvalForward, ReLUKeepsTrainMaskAcrossEvalPasses) {
  ReLU relu;
  ReLU control;
  const Tensor x1 = random_tensor({2, 3, 4, 4}, 88);
  Tensor x2 = x1;
  x2 *= -1.0f;  // flips every element's sign
  const Tensor g = random_tensor({2, 3, 4, 4}, 89);

  (void)relu.forward(x1, true);
  (void)relu.forward(x2, false);
  const Tensor dx = relu.backward(g);

  (void)control.forward(x1, true);
  const Tensor dx_control = control.backward(g);
  for (std::size_t i = 0; i < dx.numel(); ++i) {
    ASSERT_EQ(dx[i], dx_control[i]) << "dx idx " << i;
  }
}

TEST(EvalForward, BatchNormKeepsTrainCachesAcrossEvalPasses) {
  BatchNorm2d bn(2);
  BatchNorm2d control = bn;
  const Tensor x1 = random_tensor({3, 2, 2, 2}, 81);
  const Tensor x2 = random_tensor({5, 2, 2, 2}, 82);
  const Tensor g = random_tensor({3, 2, 2, 2}, 83);

  (void)bn.forward(x1, true);
  (void)bn.forward(x2, false);  // running-stats inference pass
  const Tensor dx = bn.backward(g);

  (void)control.forward(x1, true);
  const Tensor dx_control = control.backward(g);
  for (std::size_t i = 0; i < dx.numel(); ++i) {
    ASSERT_EQ(dx[i], dx_control[i]) << "dx idx " << i;
  }
  // Eval must not have advanced the running statistics either.
  for (std::size_t p = 2; p < 4; ++p) {
    ASSERT_EQ(bn.params()[p]->value[0], control.params()[p]->value[0]);
  }
}

TEST(EvalForward, DropoutKeepsTrainMaskAcrossEvalPasses) {
  Dropout drop(0.4, /*seed=*/84);
  const Tensor x = Tensor::ones({512});
  const Tensor y_train = drop.forward(x, true);

  const Tensor other = random_tensor({512}, 85);
  const Tensor y_eval = drop.forward(other, false);
  for (std::size_t i = 0; i < other.numel(); ++i) {
    ASSERT_EQ(y_eval[i], other[i]);  // identity, no mask draw
  }

  // backward still applies the mask of the train forward it pairs with.
  const Tensor dx = drop.backward(Tensor::ones({512}));
  for (std::size_t i = 0; i < dx.numel(); ++i) {
    ASSERT_EQ(dx[i], y_train[i]);
  }
}

// -- clone -----------------------------------------------------------------

TEST(LayerClone, ConvCloneIsDeep) {
  Conv2d conv(1, 2, 3);
  Rng rng(15);
  conv.init_params(rng);
  auto copy = conv.clone();
  copy->params()[0]->value[0] += 1.0f;
  EXPECT_NE(copy->params()[0]->value[0], conv.params()[0]->value[0]);
}

}  // namespace
}  // namespace fedclust::nn
