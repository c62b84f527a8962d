#include "data/synthetic.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace fedclust::data {
namespace detail {

[[gnu::noinline]] double wave_reference(double fu, double fv, double phase,
                                        double amp, std::size_t x,
                                        std::size_t y, std::size_t w,
                                        std::size_t h) {
  return amp * std::cos(2.0 * M_PI *
                            (fu * static_cast<double>(x) / static_cast<double>(w) +
                             fv * static_cast<double>(y) / static_cast<double>(h)) +
                        phase);
}

SeparableWave::SeparableWave(double fu, double fv, double phase, double amp,
                             std::size_t w, std::size_t h)
    : fu_(fu), fv_(fv), phase_(phase), amp_(amp), w_(w), h_(h),
      col_cos_(w), col_sin_(w), row_cos_(h), row_sin_(h) {
  for (std::size_t x = 0; x < w; ++x) {
    const double a =
        2.0 * M_PI * (fu * static_cast<double>(x) / static_cast<double>(w)) +
        phase;
    col_cos_[x] = amp * std::cos(a);
    col_sin_[x] = amp * std::sin(a);
  }
  for (std::size_t y = 0; y < h; ++y) {
    const double b =
        2.0 * M_PI * (fv * static_cast<double>(y) / static_cast<double>(h));
    row_cos_[y] = std::cos(b);
    row_sin_[y] = std::sin(b);
  }
}

void fill_smooth_field(Tensor& t, const ImageSpec& img, std::size_t waves,
                       Rng& rng) {
  const std::size_t h = img.height, w = img.width;
  for (std::size_t c = 0; c < img.channels; ++c) {
    float* plane = t.data() + c * h * w;
    std::fill_n(plane, h * w, 0.0f);
    for (std::size_t k = 0; k < waves; ++k) {
      // Low spatial frequencies only — keeps the field smooth so that
      // convolutions with small kernels can pick the structure up.
      const double fu = rng.uniform(0.5, 3.5);
      const double fv = rng.uniform(0.5, 3.5);
      const double phase = rng.uniform(0.0, 2.0 * M_PI);
      const double amp = rng.uniform(0.5, 1.0);
      const SeparableWave wave(fu, fv, phase, amp, w, h);
      for (std::size_t y = 0; y < h; ++y) {
        for (std::size_t x = 0; x < w; ++x) {
          plane[y * w + x] += wave.pixel(x, y);
        }
      }
    }
    // Normalize the channel to zero mean, unit variance.
    double mean = 0.0;
    for (std::size_t i = 0; i < h * w; ++i) mean += plane[i];
    mean /= static_cast<double>(h * w);
    double var = 0.0;
    for (std::size_t i = 0; i < h * w; ++i) {
      plane[i] -= static_cast<float>(mean);
      var += static_cast<double>(plane[i]) * plane[i];
    }
    var /= static_cast<double>(h * w);
    const float inv = var > 0.0 ? static_cast<float>(1.0 / std::sqrt(var)) : 1.0f;
    for (std::size_t i = 0; i < h * w; ++i) plane[i] *= inv;
  }
}

}  // namespace detail

std::string to_string(SyntheticKind kind) {
  switch (kind) {
    case SyntheticKind::kCifar10:
      return "cifar10";
    case SyntheticKind::kFmnist:
      return "fmnist";
    case SyntheticKind::kSvhn:
      return "svhn";
  }
  FEDCLUST_FAIL("unknown SyntheticKind");
}

SyntheticKind synthetic_kind_from_string(const std::string& name) {
  if (name == "cifar10") return SyntheticKind::kCifar10;
  if (name == "fmnist") return SyntheticKind::kFmnist;
  if (name == "svhn") return SyntheticKind::kSvhn;
  FEDCLUST_FAIL("unknown dataset '" << name << "' (cifar10|fmnist|svhn)");
}

SyntheticSpec SyntheticSpec::for_kind(SyntheticKind kind) {
  SyntheticSpec s;
  switch (kind) {
    case SyntheticKind::kFmnist:
      // Easiest of the three, but classes still share a large common
      // component: 10-way discrimination needs real capacity while a
      // 2-4-way (per-cluster) problem stays easy — the regime in which
      // the paper's Dir(0.1) results live.
      s.image = {1, 28, 28, 10};
      s.class_correlation = 0.35;
      s.max_shift = 2;
      s.distractor = 0.5;
      s.noise = 0.35;
      s.modes = 2;
      break;
    case SyntheticKind::kSvhn:
      // Middle: color, strongly correlated classes, more clutter.
      s.image = {3, 32, 32, 10};
      s.class_correlation = 0.60;
      s.max_shift = 3;
      s.distractor = 0.8;
      s.noise = 0.5;
      s.modes = 3;
      break;
    case SyntheticKind::kCifar10:
      // Hardest: near-degenerate class prototypes, heavy clutter/noise.
      s.image = {3, 32, 32, 10};
      s.class_correlation = 0.70;
      s.max_shift = 4;
      s.distractor = 0.9;
      s.noise = 0.55;
      s.modes = 4;
      break;
  }
  return s;
}

SyntheticGenerator::SyntheticGenerator(SyntheticKind kind, std::uint64_t seed)
    : SyntheticGenerator(SyntheticSpec::for_kind(kind), seed) {}

SyntheticGenerator::SyntheticGenerator(SyntheticSpec spec, std::uint64_t seed)
    : spec_(spec) {
  FEDCLUST_REQUIRE(spec_.image.classes > 0, "need at least one class");
  build_prototypes(seed);
}

void SyntheticGenerator::build_prototypes(std::uint64_t seed) {
  Rng proto_rng = Rng(seed).split(0xbeef);

  // Shared component: the part of every prototype that carries no class
  // information; a large rho makes classes overlap.
  Tensor shared({spec_.image.channels, spec_.image.height, spec_.image.width});
  detail::fill_smooth_field(shared, spec_.image, spec_.waves, proto_rng);

  const double rho = spec_.class_correlation;
  const float w_shared = static_cast<float>(std::sqrt(rho));
  const float w_own = static_cast<float>(std::sqrt(1.0 - rho));

  prototypes_.clear();
  prototypes_.reserve(spec_.image.classes * spec_.modes);
  for (std::size_t c = 0; c < spec_.image.classes; ++c) {
    for (std::size_t m = 0; m < spec_.modes; ++m) {
      Tensor own(
          {spec_.image.channels, spec_.image.height, spec_.image.width});
      detail::fill_smooth_field(own, spec_.image, spec_.waves, proto_rng);
      own *= w_own;
      own.axpy(w_shared, shared);
      prototypes_.push_back(std::move(own));
    }
  }
}

const Tensor& SyntheticGenerator::prototype(std::size_t c,
                                            std::size_t m) const {
  FEDCLUST_REQUIRE(c < spec_.image.classes, "class index out of range");
  FEDCLUST_REQUIRE(m < spec_.modes, "mode index out of range");
  return prototypes_[c * spec_.modes + m];
}

Tensor SyntheticGenerator::sample(std::int32_t label, Rng& rng) const {
  FEDCLUST_REQUIRE(
      label >= 0 && static_cast<std::size_t>(label) < spec_.image.classes,
      "label out of range");
  const ImageSpec& img = spec_.image;
  const std::size_t h = img.height, w = img.width;
  // Pick one of the class's appearance modes uniformly.
  const std::size_t mode = spec_.modes > 1 ? rng.uniform_int(spec_.modes) : 0;
  const Tensor& proto =
      prototypes_[static_cast<std::size_t>(label) * spec_.modes + mode];

  Tensor out({img.channels, h, w});

  // Circularly shifted prototype: shift is the dominant intra-class
  // variation, forcing the model to learn translation-tolerant features.
  const std::size_t span = 2 * spec_.max_shift + 1;
  const std::ptrdiff_t dy = static_cast<std::ptrdiff_t>(rng.uniform_int(span)) -
                            static_cast<std::ptrdiff_t>(spec_.max_shift);
  const std::ptrdiff_t dx = static_cast<std::ptrdiff_t>(rng.uniform_int(span)) -
                            static_cast<std::ptrdiff_t>(spec_.max_shift);
  for (std::size_t c = 0; c < img.channels; ++c) {
    const float* src = proto.data() + c * h * w;
    float* dst = out.data() + c * h * w;
    for (std::size_t y = 0; y < h; ++y) {
      const std::size_t sy =
          static_cast<std::size_t>((static_cast<std::ptrdiff_t>(y) - dy +
                                    static_cast<std::ptrdiff_t>(h)) %
                                   static_cast<std::ptrdiff_t>(h));
      for (std::size_t x = 0; x < w; ++x) {
        const std::size_t sx =
            static_cast<std::size_t>((static_cast<std::ptrdiff_t>(x) - dx +
                                      static_cast<std::ptrdiff_t>(w)) %
                                     static_cast<std::ptrdiff_t>(w));
        dst[y * w + x] = src[sy * w + sx];
      }
    }
  }

  // Fresh smooth distractor field per sample (class-independent clutter).
  if (spec_.distractor > 0.0) {
    Tensor clutter({img.channels, h, w});
    detail::fill_smooth_field(clutter, img, spec_.waves, rng);
    out.axpy(static_cast<float>(spec_.distractor), clutter);
  }

  // White pixel noise.
  if (spec_.noise > 0.0) {
    const float g = static_cast<float>(spec_.noise);
    for (auto& v : out.flat()) {
      v += g * static_cast<float>(rng.normal());
    }
  }

  // Clip to a bounded range, mirroring normalized real images.
  for (auto& v : out.flat()) v = std::clamp(v, -3.0f, 3.0f);
  return out;
}

Dataset SyntheticGenerator::generate(std::size_t n, Rng& rng) const {
  std::vector<std::size_t> counts(spec_.image.classes, n / spec_.image.classes);
  for (std::size_t i = 0; i < n % spec_.image.classes; ++i) ++counts[i];
  return generate_per_class(counts, rng);
}

Dataset SyntheticGenerator::generate_per_class(
    const std::vector<std::size_t>& counts, Rng& rng) const {
  FEDCLUST_REQUIRE(counts.size() == spec_.image.classes,
                   "counts must have one entry per class");
  // Interleave classes (round-robin) so unshuffled prefixes are balanced.
  Dataset ds(spec_.image);
  ds.reserve(std::accumulate(counts.begin(), counts.end(), std::size_t{0}));
  std::vector<std::size_t> remaining = counts;
  bool any = true;
  while (any) {
    any = false;
    for (std::size_t c = 0; c < remaining.size(); ++c) {
      if (remaining[c] == 0) continue;
      --remaining[c];
      any = true;
      ds.add(sample(static_cast<std::int32_t>(c), rng),
             static_cast<std::int32_t>(c));
    }
  }
  return ds;
}

std::pair<Dataset, Dataset> make_synthetic_pool(SyntheticKind kind,
                                                std::size_t train_samples,
                                                std::size_t test_samples,
                                                std::uint64_t seed) {
  const SyntheticGenerator gen(kind, seed);
  Rng train_rng = Rng(seed).split(1);
  Rng test_rng = Rng(seed).split(2);
  return {gen.generate(train_samples, train_rng),
          gen.generate(test_samples, test_rng)};
}

}  // namespace fedclust::data
