// Tests for the Model container: naming, slices, flat weights, cloning,
// the reference model builders, and the loss functions.
#include "nn/model.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include <filesystem>
#include <fstream>

#include "nn/layers.hpp"
#include "nn/loss.hpp"
#include "nn/models.hpp"
#include "nn/serialize.hpp"

namespace fedclust::nn {
namespace {

Model tiny_model() {
  Model m;
  m.emplace<Flatten>();
  m.emplace<Linear>(4, 3);
  m.emplace<ReLU>();
  m.emplace<Linear>(3, 2);
  return m;
}

TEST(Model, AutoNamesLayersByTypeIndex) {
  Model m = tiny_model();
  EXPECT_EQ(m.layer(0).name(), "flatten1");
  EXPECT_EQ(m.layer(1).name(), "linear1");
  EXPECT_EQ(m.layer(3).name(), "linear2");
}

TEST(Model, SlicesCoverAllWeightsContiguously) {
  Model m = tiny_model();
  const auto slices = m.slices();
  ASSERT_EQ(slices.size(), 4u);  // 2 linear layers × (weight, bias)
  EXPECT_EQ(slices[0].name, "linear1.weight");
  EXPECT_EQ(slices[0].offset, 0u);
  EXPECT_EQ(slices[0].size, 12u);
  EXPECT_EQ(slices[1].name, "linear1.bias");
  EXPECT_EQ(slices[1].offset, 12u);
  std::size_t expected_offset = 0;
  for (const auto& s : slices) {
    EXPECT_EQ(s.offset, expected_offset);
    expected_offset += s.size;
  }
  EXPECT_EQ(expected_offset, m.num_weights());
}

TEST(Model, SliceForThrowsOnUnknownName) {
  Model m = tiny_model();
  EXPECT_NO_THROW(m.slice_for("linear2.bias"));
  EXPECT_THROW(m.slice_for("conv1.weight"), Error);
}

TEST(Model, FlatWeightsRoundTrip) {
  Model m = tiny_model();
  Rng rng(1);
  m.init_params(rng);
  const std::vector<float> w = m.flat_weights();
  EXPECT_EQ(w.size(), m.num_weights());

  Model m2 = tiny_model();
  m2.set_flat_weights(w);
  EXPECT_EQ(m2.flat_weights(), w);
}

TEST(Model, SetFlatWeightsValidatesSize) {
  Model m = tiny_model();
  std::vector<float> w(m.num_weights() + 1, 0.0f);
  EXPECT_THROW(m.set_flat_weights(w), Error);
}

TEST(Model, CloneIsDeepAndPreservesWeights) {
  Model m = tiny_model();
  Rng rng(2);
  m.init_params(rng);
  Model c = m.clone();
  EXPECT_EQ(c.flat_weights(), m.flat_weights());
  c.params()[0]->value[0] += 5.0f;
  EXPECT_NE(c.flat_weights()[0], m.flat_weights()[0]);
}

TEST(Model, ZeroGradClearsAccumulation) {
  Model m = tiny_model();
  Rng rng(3);
  m.init_params(rng);
  const Tensor x = Tensor::randn({2, 4}, rng);
  const Tensor y = m.forward(x, true);
  m.backward(Tensor::ones(y.shape()));
  bool any_nonzero = false;
  for (const Param* p : static_cast<const Model&>(m).params()) {
    if (p->grad.norm() > 0.0f) any_nonzero = true;
  }
  EXPECT_TRUE(any_nonzero);
  m.zero_grad();
  for (const Param* p : static_cast<const Model&>(m).params()) {
    EXPECT_FLOAT_EQ(p->grad.norm(), 0.0f);
  }
}

TEST(Model, DeterministicInitGivenSeed) {
  Model a = tiny_model();
  Model b = tiny_model();
  Rng ra(7), rb(7);
  a.init_params(ra);
  b.init_params(rb);
  EXPECT_EQ(a.flat_weights(), b.flat_weights());
}

// -- builders ---------------------------------------------------------------

TEST(Builders, Lenet5ShapesFor28And32) {
  for (const std::size_t size : {std::size_t{28}, std::size_t{32}}) {
    const ImageSpec spec{size == 28 ? std::size_t{1} : std::size_t{3}, size,
                         size, 10};
    Model m = lenet5(spec);
    Rng rng(4);
    m.init_params(rng);
    const Tensor x({2, spec.channels, size, size});
    const Tensor y = m.forward(x, false);
    EXPECT_EQ(y.shape(), (Shape{2, 10})) << "input " << size;
  }
}

TEST(Builders, Lenet5RejectsOtherSizes) {
  EXPECT_THROW(lenet5({1, 16, 16, 10}), Error);
  EXPECT_THROW(lenet5({1, 28, 32, 10}), Error);
}

TEST(Builders, Lenet5ParameterCount) {
  // Classic LeNet-5 on 3×32×32: conv1 3->6 (456), conv2 6->16 (2416),
  // fc 400->120 (48120), 120->84 (10164), 84->10 (850).
  Model m = lenet5({3, 32, 32, 10});
  EXPECT_EQ(m.num_weights(), 456u + 2416u + 48120u + 10164u + 850u);
}

TEST(Builders, Lenet5BnForwardAndTraining) {
  Model m = lenet5_bn({1, 28, 28, 10});
  Rng rng(44);
  m.init_params(rng);
  const Tensor x = Tensor::randn({4, 1, 28, 28}, rng);
  EXPECT_EQ(m.forward(x, true).shape(), (Shape{4, 10}));
  EXPECT_EQ(m.forward(x, false).shape(), (Shape{4, 10}));
  // BN contributes gamma/beta + running stats to the flat vector.
  EXPECT_EQ(m.num_weights(), lenet5({1, 28, 28, 10}).num_weights() +
                                 4 * (6 + 16));
  // One backward pass flows end to end.
  m.zero_grad();
  const Tensor logits = m.forward(x, true);
  const std::vector<std::int32_t> labels{0, 1, 2, 3};
  const LossResult loss = softmax_cross_entropy(logits, labels);
  m.backward(loss.grad_logits);
  bool any = false;
  for (const Param* p : static_cast<const Model&>(m).params()) {
    if (p->grad.norm() > 0.0f) any = true;
  }
  EXPECT_TRUE(any);
}

TEST(Builders, VggMiniForwardShape) {
  Model m = vgg_mini({3, 32, 32, 10});
  Rng rng(5);
  m.init_params(rng);
  const Tensor x({1, 3, 32, 32});
  EXPECT_EQ(m.forward(x, false).shape(), (Shape{1, 10}));
}

TEST(Builders, MlpForwardShape) {
  Model m = mlp({1, 28, 28, 10}, 32);
  Rng rng(6);
  m.init_params(rng);
  const Tensor x({3, 1, 28, 28});
  EXPECT_EQ(m.forward(x, false).shape(), (Shape{3, 10}));
}

TEST(Builders, FinalLayerWeightName) {
  EXPECT_EQ(final_layer_weight_name(lenet5({1, 28, 28, 10})),
            "linear3.weight");
  EXPECT_EQ(final_layer_weight_name(vgg_mini({3, 32, 32, 10})),
            "linear2.weight");
  EXPECT_EQ(final_layer_weight_name(mlp({1, 28, 28, 10})), "linear2.weight");
}

// Model clone / round-trip invariants across every reference builder.
class BuilderRoundTrip : public ::testing::TestWithParam<int> {
 protected:
  Model build() const {
    switch (GetParam()) {
      case 0:
        return lenet5({1, 28, 28, 10});
      case 1:
        return lenet5({3, 32, 32, 10});
      case 2:
        return vgg_mini({3, 32, 32, 10});
      default:
        return mlp({1, 28, 28, 10}, 32);
    }
  }
};

TEST_P(BuilderRoundTrip, FlatWeightsAndCloneAgree) {
  Model m = build();
  Rng rng(31 + static_cast<std::uint64_t>(GetParam()));
  m.init_params(rng);
  const std::vector<float> w = m.flat_weights();

  Model via_flat = build();
  via_flat.set_flat_weights(w);
  Model via_clone = m.clone();
  EXPECT_EQ(via_flat.flat_weights(), w);
  EXPECT_EQ(via_clone.flat_weights(), w);

  // Identical weights -> identical outputs.
  const auto& spec = m.slices();
  (void)spec;
  Rng xrng(99);
  const std::size_t in_ch = GetParam() == 0 || GetParam() == 3 ? 1 : 3;
  const std::size_t side = GetParam() == 0 || GetParam() == 3 ? 28 : 32;
  const Tensor x = Tensor::randn({2, in_ch, side, side}, xrng);
  const Tensor y1 = m.forward(x, false);
  const Tensor y2 = via_clone.forward(x, false);
  for (std::size_t i = 0; i < y1.numel(); ++i) {
    ASSERT_FLOAT_EQ(y1[i], y2[i]);
  }
}

std::string builder_param_name(const ::testing::TestParamInfo<int>& info) {
  static const char* const names[] = {"lenet5_28", "lenet5_32", "vgg_mini",
                                      "mlp"};
  return names[info.param];
}

INSTANTIATE_TEST_SUITE_P(Builders, BuilderRoundTrip, ::testing::Range(0, 4),
                         builder_param_name);

// Model::backward never forms the model-input gradient; the parameter
// gradients must still be bit-for-bit those of a full layer-by-layer
// backward, for every builder.
struct BackwardCase {
  const char* name;
  Model (*build)();
  Shape input;
};

void PrintTo(const BackwardCase& c, std::ostream* os) { *os << c.name; }

class ModelBackward : public ::testing::TestWithParam<BackwardCase> {};

TEST_P(ModelBackward, ParamGradsMatchFullLayerByLayerBackward) {
  const BackwardCase& c = GetParam();
  Model model = c.build();
  Rng rng(41);
  model.init_params(rng);
  Model manual = model.clone();
  const Tensor x = Tensor::randn(c.input, rng);

  const Tensor y = model.forward(x, true);
  const Tensor g = Tensor::randn(y.shape(), rng);
  model.zero_grad();
  model.backward(g);

  (void)manual.forward(x, true);
  manual.zero_grad();
  Tensor grad = g;
  for (std::size_t i = manual.num_layers(); i-- > 0;) {
    grad = manual.layer(i).backward(grad);
  }
  EXPECT_EQ(grad.shape(), x.shape());  // the direct call still returns dx

  const std::vector<float> got = model.flat_grads();
  const std::vector<float> want = manual.flat_grads();
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)),
            0);
}

const BackwardCase kBackwardCases[] = {
    {"lenet5_im2col", [] { return lenet5({1, 28, 28, 10}); }, {3, 1, 28, 28}},
    {"lenet5_bn_im2col", [] { return lenet5_bn({1, 28, 28, 10}); },
     {3, 1, 28, 28}},
    {"vgg_mini_im2col", [] { return vgg_mini({3, 32, 32, 10}); },
     {2, 3, 32, 32}},
    {"mlp", [] { return mlp({1, 28, 28, 10}, 32); }, {3, 1, 28, 28}},
};

INSTANTIATE_TEST_SUITE_P(
    Builders, ModelBackward, ::testing::ValuesIn(kBackwardCases),
    [](const ::testing::TestParamInfo<BackwardCase>& info) {
      return std::string(info.param.name);
    });

// -- serialization -----------------------------------------------------------

TEST(Serialize, RoundTripPreservesWeights) {
  Model m = tiny_model();
  Rng rng(21);
  m.init_params(rng);
  const std::string path = "/tmp/fedclust_ckpt_test.bin";
  save_weights(m, path);

  Model fresh = tiny_model();
  load_weights(fresh, path);
  EXPECT_EQ(fresh.flat_weights(), m.flat_weights());
  std::filesystem::remove(path);
}

TEST(Serialize, RejectsArchitectureMismatch) {
  Model m = tiny_model();
  Rng rng(22);
  m.init_params(rng);
  const std::string path = "/tmp/fedclust_ckpt_mismatch.bin";
  save_weights(m, path);

  Model other = mlp({1, 4, 4, 3}, 5);  // different hidden width
  EXPECT_THROW(load_weights(other, path), Error);
  std::filesystem::remove(path);
}

TEST(Serialize, RejectsGarbageAndMissingFiles) {
  Model m = tiny_model();
  EXPECT_THROW(load_weights(m, "/tmp/does_not_exist_fedclust.bin"), Error);

  const std::string path = "/tmp/fedclust_ckpt_garbage.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a checkpoint";
  }
  EXPECT_THROW(load_weights(m, path), Error);
  std::filesystem::remove(path);
}

TEST(Serialize, RejectsTruncatedFile) {
  Model m = tiny_model();
  Rng rng(23);
  m.init_params(rng);
  const std::string path = "/tmp/fedclust_ckpt_trunc.bin";
  save_weights(m, path);
  // Chop off the last half of the value section.
  const auto full = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full - m.num_weights() * 2);
  EXPECT_THROW(load_weights(m, path), Error);
  std::filesystem::remove(path);
}

// -- losses -----------------------------------------------------------------

TEST(Loss, CrossEntropyUniformLogits) {
  const Tensor logits({2, 4});  // all zeros -> uniform softmax
  const std::vector<std::int32_t> labels{0, 3};
  const LossResult r = softmax_cross_entropy(logits, labels);
  EXPECT_NEAR(r.loss, std::log(4.0f), 1e-5f);
  // Gradient: (1/4 - onehot)/batch.
  EXPECT_NEAR(r.grad_logits.at(0, 0), (0.25f - 1.0f) / 2.0f, 1e-6f);
  EXPECT_NEAR(r.grad_logits.at(0, 1), 0.25f / 2.0f, 1e-6f);
}

TEST(Loss, GradientRowsSumToZero) {
  Rng rng(8);
  const Tensor logits = Tensor::randn({5, 10}, rng);
  const std::vector<std::int32_t> labels{0, 1, 2, 3, 4};
  const LossResult r = softmax_cross_entropy(logits, labels);
  for (std::size_t i = 0; i < 5; ++i) {
    double s = 0.0;
    for (std::size_t j = 0; j < 10; ++j) s += r.grad_logits.at(i, j);
    EXPECT_NEAR(s, 0.0, 1e-6);
  }
}

TEST(Loss, LossOnlyVariantAgrees) {
  Rng rng(9);
  const Tensor logits = Tensor::randn({6, 10}, rng, 0.0f, 2.0f);
  const std::vector<std::int32_t> labels{1, 2, 3, 4, 5, 6};
  const LossResult full = softmax_cross_entropy(logits, labels);
  const float loss_only = softmax_cross_entropy_loss(logits, labels);
  EXPECT_NEAR(full.loss, loss_only, 1e-5f);
}

TEST(Loss, PerfectPredictionLowLoss) {
  Tensor logits({2, 3});
  logits.at(0, 1) = 50.0f;
  logits.at(1, 2) = 50.0f;
  const std::vector<std::int32_t> labels{1, 2};
  EXPECT_LT(softmax_cross_entropy_loss(logits, labels), 1e-4f);
}

TEST(Loss, AccuracyCountsArgmaxMatches) {
  Tensor logits({3, 2});
  logits.at(0, 0) = 1.0f;  // pred 0, label 0 ✓
  logits.at(1, 1) = 1.0f;  // pred 1, label 0 ✗
  logits.at(2, 1) = 1.0f;  // pred 1, label 1 ✓
  const std::vector<std::int32_t> labels{0, 0, 1};
  EXPECT_NEAR(accuracy(logits, labels), 2.0 / 3.0, 1e-9);
}

TEST(Loss, RejectsBatchMismatch) {
  const Tensor logits({2, 3});
  const std::vector<std::int32_t> labels{0};
  EXPECT_THROW(softmax_cross_entropy(logits, labels), Error);
  EXPECT_THROW(accuracy(logits, labels), Error);
}

}  // namespace
}  // namespace fedclust::nn
