// Tests for the dataset container, batch iterator, and the synthetic
// generators that stand in for CIFAR-10 / FMNIST / SVHN.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>

#include "data/dataset.hpp"
#include "data/synthetic.hpp"

namespace fedclust::data {
namespace {

Dataset tiny_dataset(std::size_t per_class = 4) {
  const ImageSpec spec{1, 4, 4, 3};
  Dataset ds(spec);
  for (std::size_t c = 0; c < spec.classes; ++c) {
    for (std::size_t i = 0; i < per_class; ++i) {
      Tensor img({1, 4, 4});
      img.fill(static_cast<float>(c));
      ds.add(img, static_cast<std::int32_t>(c));
    }
  }
  return ds;
}

TEST(Dataset, AddAndAccess) {
  Dataset ds = tiny_dataset();
  EXPECT_EQ(ds.size(), 12u);
  EXPECT_EQ(ds.label(5), 1);
  const Tensor img = ds.image(8);
  EXPECT_EQ(img.shape(), (Shape{1, 4, 4}));
  EXPECT_FLOAT_EQ(img[0], 2.0f);
}

TEST(Dataset, AddValidatesShapeAndLabel) {
  Dataset ds({1, 4, 4, 3});
  EXPECT_THROW(ds.add(Tensor({1, 3, 3}), 0), Error);
  EXPECT_THROW(ds.add(Tensor({1, 4, 4}), 3), Error);
  EXPECT_THROW(ds.add(Tensor({1, 4, 4}), -1), Error);
}

TEST(Dataset, ReserveKeepsContent) {
  Dataset ds = tiny_dataset();
  const Batch before = ds.all();
  ds.reserve(100);
  EXPECT_EQ(ds.size(), 12u);
  const Batch after = ds.all();
  EXPECT_EQ(after.labels, before.labels);
  EXPECT_TRUE(std::equal(before.images.flat().begin(),
                         before.images.flat().end(),
                         after.images.flat().begin()));
  // Reserving less than the current size never drops samples.
  ds.reserve(0);
  Tensor img({1, 4, 4});
  img.fill(7.0f);
  ds.add(img, 2);
  EXPECT_EQ(ds.size(), 13u);
  EXPECT_EQ(ds.label(11), 2);
  EXPECT_FLOAT_EQ(ds.image(11)[0], 2.0f);
  EXPECT_FLOAT_EQ(ds.image(12)[0], 7.0f);
}

TEST(Dataset, GatherBuildsBatch) {
  Dataset ds = tiny_dataset();
  const std::vector<std::size_t> idx{0, 4, 8};
  const Batch b = ds.gather(idx);
  EXPECT_EQ(b.size(), 3u);
  EXPECT_EQ(b.images.shape(), (Shape{3, 1, 4, 4}));
  EXPECT_EQ(b.labels, (std::vector<std::int32_t>{0, 1, 2}));
  EXPECT_FLOAT_EQ(b.images.at(1, 0, 0, 0), 1.0f);
}

TEST(Dataset, GatherRejectsOutOfRange) {
  Dataset ds = tiny_dataset();
  const std::vector<std::size_t> idx{99};
  EXPECT_THROW(ds.gather(idx), Error);
}

TEST(Dataset, LabelHistogram) {
  Dataset ds = tiny_dataset(5);
  EXPECT_EQ(ds.label_histogram(), (std::vector<std::size_t>{5, 5, 5}));
}

TEST(Dataset, SubsetPreservesContent) {
  Dataset ds = tiny_dataset();
  const std::vector<std::size_t> idx{1, 10};
  const Dataset sub = ds.subset(idx);
  EXPECT_EQ(sub.size(), 2u);
  EXPECT_EQ(sub.label(0), 0);
  EXPECT_EQ(sub.label(1), 2);
  EXPECT_FLOAT_EQ(sub.image(1)[0], 2.0f);
}

TEST(Dataset, StratifiedSplitKeepsClassRatios) {
  Dataset ds = tiny_dataset(10);  // 10 per class
  Rng rng(1);
  const auto [train, test] = ds.stratified_split(0.3, rng);
  EXPECT_EQ(train.size() + test.size(), ds.size());
  EXPECT_EQ(test.label_histogram(), (std::vector<std::size_t>{3, 3, 3}));
  EXPECT_EQ(train.label_histogram(), (std::vector<std::size_t>{7, 7, 7}));
}

TEST(Dataset, StratifiedSplitLeavesTrainingSamples) {
  // Even with an extreme fraction, every represented class keeps at least
  // one training sample.
  Dataset ds = tiny_dataset(2);
  Rng rng(2);
  const auto [train, test] = ds.stratified_split(0.9, rng);
  for (std::size_t c : train.label_histogram()) EXPECT_GE(c, 1u);
}

TEST(BatchIterator, CoversEpochExactlyOnce) {
  Dataset ds = tiny_dataset(4);  // 12 samples
  BatchIterator it(ds, 5, Rng(3));
  EXPECT_EQ(it.batches_per_epoch(), 3u);
  std::multiset<float> seen;
  std::size_t total = 0;
  for (std::size_t b = 0; b < it.batches_per_epoch(); ++b) {
    const Batch batch = it.next();
    total += batch.size();
    for (std::size_t i = 0; i < batch.size(); ++i) {
      seen.insert(batch.images[i * 16]);
    }
  }
  EXPECT_EQ(total, 12u);
  // Every class value appears exactly 4 times across the epoch.
  for (float c : {0.0f, 1.0f, 2.0f}) {
    EXPECT_EQ(seen.count(c), 4u);
  }
}

TEST(BatchIterator, ReshufflesBetweenEpochs) {
  Dataset ds = tiny_dataset(20);
  BatchIterator it(ds, 60, Rng(4));  // one batch per epoch
  const Batch e1 = it.next();
  const Batch e2 = it.next();
  EXPECT_NE(e1.labels, e2.labels);  // same multiset, different order
}

TEST(BatchIterator, DeterministicGivenSeed) {
  Dataset ds = tiny_dataset(4);
  BatchIterator a(ds, 4, Rng(5));
  BatchIterator b(ds, 4, Rng(5));
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(a.next().labels, b.next().labels);
  }
}

// -- synthetic generators -----------------------------------------------------

TEST(Synthetic, KindNamesRoundTrip) {
  for (auto kind : {SyntheticKind::kCifar10, SyntheticKind::kFmnist,
                    SyntheticKind::kSvhn}) {
    EXPECT_EQ(synthetic_kind_from_string(to_string(kind)), kind);
  }
  EXPECT_THROW(synthetic_kind_from_string("mnist"), Error);
}

TEST(Synthetic, GeometryMatchesEmulatedDatasets) {
  EXPECT_EQ(SyntheticSpec::for_kind(SyntheticKind::kFmnist).image.channels,
            1u);
  EXPECT_EQ(SyntheticSpec::for_kind(SyntheticKind::kFmnist).image.height, 28u);
  EXPECT_EQ(SyntheticSpec::for_kind(SyntheticKind::kCifar10).image.channels,
            3u);
  EXPECT_EQ(SyntheticSpec::for_kind(SyntheticKind::kSvhn).image.height, 32u);
}

TEST(Synthetic, DifficultyOrderingViaCorrelation) {
  // The paper's accuracy ordering (FMNIST > SVHN > CIFAR) is realized by
  // increasing class correlation / clutter.
  const auto f = SyntheticSpec::for_kind(SyntheticKind::kFmnist);
  const auto s = SyntheticSpec::for_kind(SyntheticKind::kSvhn);
  const auto c = SyntheticSpec::for_kind(SyntheticKind::kCifar10);
  EXPECT_LT(f.class_correlation, s.class_correlation);
  EXPECT_LT(s.class_correlation, c.class_correlation);
  EXPECT_LT(f.noise, s.noise);
  EXPECT_LT(s.noise, c.noise);
}

TEST(Synthetic, DeterministicPrototypes) {
  const SyntheticGenerator a(SyntheticKind::kFmnist, 7);
  const SyntheticGenerator b(SyntheticKind::kFmnist, 7);
  for (std::size_t c = 0; c < 10; ++c) {
    for (std::size_t i = 0; i < a.prototype(c).numel(); ++i) {
      ASSERT_FLOAT_EQ(a.prototype(c)[i], b.prototype(c)[i]);
    }
  }
}

TEST(Synthetic, DifferentSeedsDifferentPrototypes) {
  const SyntheticGenerator a(SyntheticKind::kFmnist, 7);
  const SyntheticGenerator b(SyntheticKind::kFmnist, 8);
  EXPECT_GT(euclidean_distance(a.prototype(0), b.prototype(0)), 1.0f);
}

TEST(Synthetic, SamplesClusterAroundOwnPrototype) {
  const SyntheticGenerator gen(SyntheticKind::kFmnist, 9);
  const std::size_t modes = gen.spec().modes;
  Rng rng(10);
  // A class-0 sample should match one of class 0's appearance modes
  // better than any of class 5's, on average.
  auto best_mode_sim = [&](const Tensor& x, std::size_t cls) {
    double best = -1.0;
    for (std::size_t m = 0; m < modes; ++m) {
      best = std::max(best,
                      static_cast<double>(cosine_similarity(x, gen.prototype(cls, m))));
    }
    return best;
  };
  double own = 0.0, other = 0.0;
  for (int rep = 0; rep < 20; ++rep) {
    const Tensor x = gen.sample(0, rng);
    own += best_mode_sim(x, 0);
    other += best_mode_sim(x, 5);
  }
  EXPECT_GT(own / 20.0, other / 20.0 + 0.1);
}

TEST(Synthetic, ModesAreDistinctAppearances) {
  const SyntheticGenerator gen(SyntheticKind::kCifar10, 9);
  ASSERT_GT(gen.spec().modes, 1u);
  EXPECT_GT(euclidean_distance(gen.prototype(0, 0), gen.prototype(0, 1)),
            1.0f);
}

TEST(Synthetic, GenerateBalancedLabels) {
  const SyntheticGenerator gen(SyntheticKind::kSvhn, 11);
  Rng rng(12);
  const Dataset ds = gen.generate(100, rng);
  EXPECT_EQ(ds.size(), 100u);
  for (std::size_t c : ds.label_histogram()) EXPECT_EQ(c, 10u);
}

TEST(Synthetic, GeneratePerClassCounts) {
  const SyntheticGenerator gen(SyntheticKind::kFmnist, 13);
  Rng rng(14);
  std::vector<std::size_t> counts(10, 0);
  counts[2] = 5;
  counts[7] = 3;
  const Dataset ds = gen.generate_per_class(counts, rng);
  EXPECT_EQ(ds.size(), 8u);
  EXPECT_EQ(ds.label_histogram()[2], 5u);
  EXPECT_EQ(ds.label_histogram()[7], 3u);
}

TEST(Synthetic, PixelsBounded) {
  const SyntheticGenerator gen(SyntheticKind::kCifar10, 15);
  Rng rng(16);
  const Dataset ds = gen.generate(30, rng);
  for (std::size_t i = 0; i < ds.size(); ++i) {
    const Tensor img = ds.image(i);
    EXPECT_GE(img.min(), -3.0f);
    EXPECT_LE(img.max(), 3.0f);
  }
}

TEST(Synthetic, PoolSplitsAreDisjointStreams) {
  const auto [train, test] =
      make_synthetic_pool(SyntheticKind::kFmnist, 50, 20, 17);
  EXPECT_EQ(train.size(), 50u);
  EXPECT_EQ(test.size(), 20u);
  // Not byte-identical data (different RNG streams).
  EXPECT_GT(euclidean_distance(train.image(0), test.image(0)), 1e-3f);
}

// -- separable smooth fields ------------------------------------------------

// The generator's field before the separable waves: every pixel of every
// wave from wave_reference, with the same RNG draws, accumulation order
// and normalization as fill_smooth_field.
Tensor reference_field(const ImageSpec& img, std::size_t waves, Rng& rng) {
  const std::size_t h = img.height, w = img.width;
  Tensor t({img.channels, h, w});
  for (std::size_t c = 0; c < img.channels; ++c) {
    float* plane = t.data() + c * h * w;
    for (std::size_t k = 0; k < waves; ++k) {
      const double fu = rng.uniform(0.5, 3.5);
      const double fv = rng.uniform(0.5, 3.5);
      const double phase = rng.uniform(0.0, 2.0 * M_PI);
      const double amp = rng.uniform(0.5, 1.0);
      for (std::size_t y = 0; y < h; ++y) {
        for (std::size_t x = 0; x < w; ++x) {
          plane[y * w + x] += static_cast<float>(
              detail::wave_reference(fu, fv, phase, amp, x, y, w, h));
        }
      }
    }
    double mean = 0.0;
    for (std::size_t i = 0; i < h * w; ++i) mean += plane[i];
    mean /= static_cast<double>(h * w);
    double var = 0.0;
    for (std::size_t i = 0; i < h * w; ++i) {
      plane[i] -= static_cast<float>(mean);
      var += static_cast<double>(plane[i]) * plane[i];
    }
    var /= static_cast<double>(h * w);
    const float inv =
        var > 0.0 ? static_cast<float>(1.0 / std::sqrt(var)) : 1.0f;
    for (std::size_t i = 0; i < h * w; ++i) plane[i] *= inv;
  }
  return t;
}

TEST(SmoothField, MatchesPerPixelReferenceBitwise) {
  const ImageSpec geometries[] = {
      {1, 28, 28, 10}, {3, 32, 32, 10}, {1, 8, 8, 4}};
  for (const ImageSpec& img : geometries) {
    for (std::uint64_t seed = 0; seed < 200; ++seed) {
      Rng fast_rng(seed), ref_rng(seed);
      Tensor fast({img.channels, img.height, img.width});
      detail::fill_smooth_field(fast, img, 6, fast_rng);
      const Tensor ref = reference_field(img, 6, ref_rng);
      ASSERT_EQ(std::memcmp(fast.data(), ref.data(),
                            ref.numel() * sizeof(float)),
                0)
          << img.channels << "x" << img.height << "x" << img.width
          << " seed " << seed;
      // Both consumed the same draws, so the streams stay in step.
      ASSERT_EQ(fast_rng(), ref_rng());
    }
  }
}

TEST(SmoothField, SeparableGapWithinBound) {
  double max_gap = 0.0;
  std::size_t pixels = 0, fallbacks = 0;
  const auto sweep = [&](double fu, double fv, double phase, double amp,
                         std::size_t w, std::size_t h) {
    const detail::SeparableWave wave(fu, fv, phase, amp, w, h);
    for (std::size_t y = 0; y < h; ++y) {
      for (std::size_t x = 0; x < w; ++x) {
        const double v = wave.approx(x, y);
        const double ref =
            detail::wave_reference(fu, fv, phase, amp, x, y, w, h);
        max_gap = std::max(max_gap, std::abs(v - ref));
        fallbacks += static_cast<float>(v - detail::kWaveErr) !=
                     static_cast<float>(v + detail::kWaveErr);
        ++pixels;
      }
    }
  };
  // The extreme corner: largest frequencies and phase, so the largest
  // angle, at the last pixel.
  const double top_phase = std::nextafter(2.0 * M_PI, 0.0);
  for (std::size_t side : {8u, 28u, 32u}) {
    sweep(3.5, 3.5, top_phase, 1.0, side, side);
  }
  Rng rng(2024);
  while (pixels < 10'000'000) {
    const std::size_t side = rng.uniform_int(2) == 0 ? 28 : 32;
    sweep(rng.uniform(0.5, 3.5), rng.uniform(0.5, 3.5),
          rng.uniform(0.0, 2.0 * M_PI), rng.uniform(0.5, 1.0), side, side);
  }
  EXPECT_LE(max_gap, detail::kWaveErr / 64);
  EXPECT_GT(fallbacks, 0u);
  EXPECT_LT(fallbacks, pixels / 100);  // the fast path is the common case
}

}  // namespace
}  // namespace fedclust::data
