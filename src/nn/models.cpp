#include "nn/models.hpp"

#include <algorithm>

#include "nn/layers.hpp"

namespace fedclust::nn {

Model lenet5(const ImageSpec& spec) {
  FEDCLUST_REQUIRE(spec.height == spec.width,
                   "lenet5 expects square inputs, got " << spec.height << "x"
                                                        << spec.width);
  FEDCLUST_REQUIRE(spec.height == 28 || spec.height == 32,
                   "lenet5 supports 28x28 or 32x32 inputs");
  // Pad 28x28 inputs so conv1 sees an effective 32x32 field, keeping the
  // classic 28 -> 14 -> 10 -> 5 spatial ladder for both input sizes.
  const std::size_t pad1 = spec.height == 28 ? 2 : 0;

  Model m;
  m.emplace<Conv2d>(spec.channels, 6, 5, pad1);
  m.emplace<ReLU>();
  m.emplace<MaxPool2d>(2);
  m.emplace<Conv2d>(6, 16, 5);
  m.emplace<ReLU>();
  m.emplace<MaxPool2d>(2);
  m.emplace<Flatten>();
  m.emplace<Linear>(16 * 5 * 5, 120);
  m.emplace<ReLU>();
  m.emplace<Linear>(120, 84);
  m.emplace<ReLU>();
  m.emplace<Linear>(84, spec.classes);
  return m;
}

Model vgg_mini(const ImageSpec& spec) {
  FEDCLUST_REQUIRE(spec.height % 8 == 0 && spec.width % 8 == 0,
                   "vgg_mini needs dimensions divisible by 8");
  Model m;
  m.emplace<Conv2d>(spec.channels, 16, 3, 1);
  m.emplace<ReLU>();
  m.emplace<Conv2d>(16, 16, 3, 1);
  m.emplace<ReLU>();
  m.emplace<MaxPool2d>(2);
  m.emplace<Conv2d>(16, 32, 3, 1);
  m.emplace<ReLU>();
  m.emplace<MaxPool2d>(2);
  m.emplace<Conv2d>(32, 64, 3, 1);
  m.emplace<ReLU>();
  m.emplace<MaxPool2d>(2);
  m.emplace<Flatten>();
  m.emplace<Linear>(64 * (spec.height / 8) * (spec.width / 8), 128);
  m.emplace<ReLU>();
  m.emplace<Linear>(128, spec.classes);
  return m;
}

Model lenet5_bn(const ImageSpec& spec) {
  FEDCLUST_REQUIRE(spec.height == spec.width &&
                       (spec.height == 28 || spec.height == 32),
                   "lenet5_bn supports 28x28 or 32x32 square inputs");
  const std::size_t pad1 = spec.height == 28 ? 2 : 0;

  Model m;
  m.emplace<Conv2d>(spec.channels, 6, 5, pad1);
  m.emplace<BatchNorm2d>(6);
  m.emplace<ReLU>();
  m.emplace<MaxPool2d>(2);
  m.emplace<Conv2d>(6, 16, 5);
  m.emplace<BatchNorm2d>(16);
  m.emplace<ReLU>();
  m.emplace<MaxPool2d>(2);
  m.emplace<Flatten>();
  m.emplace<Linear>(16 * 5 * 5, 120);
  m.emplace<ReLU>();
  m.emplace<Linear>(120, 84);
  m.emplace<ReLU>();
  m.emplace<Linear>(84, spec.classes);
  return m;
}

Model mlp(const ImageSpec& spec, std::size_t hidden) {
  Model m;
  m.emplace<Flatten>();
  m.emplace<Linear>(spec.channels * spec.height * spec.width, hidden);
  m.emplace<ReLU>();
  m.emplace<Linear>(hidden, spec.classes);
  return m;
}

std::string final_layer_weight_name(const Model& model) {
  // The last layer that owns a "weight" parameter is the classifier.
  const auto slices = model.slices();
  const auto it =
      std::find_if(slices.rbegin(), slices.rend(), [](const ParamSlice& s) {
        return s.name.ends_with(".weight");
      });
  FEDCLUST_CHECK(it != slices.rend(), "model has no weight parameters");
  return it->name;
}

}  // namespace fedclust::nn
