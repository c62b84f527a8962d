// SIMD kernel-table tests: dispatch state, 64-byte buffer alignment,
// SIMD-vs-scalar equivalence on randomized shapes (including remainder
// lanes), and the determinism invariants the vectorized kernels promise
// (bit-identical results across repeat runs, thread splits, and
// kChunkAlign-aligned chunkings within one build).
#include "tensor/kernels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "cluster/distance.hpp"
#include "fl/federation.hpp"
#include "linalg/matrix.hpp"
#include "tensor/aligned.hpp"
#include "tensor/ops.hpp"
#include "tensor/scratch.hpp"
#include "tensor/tensor.hpp"
#include "utils/rng.hpp"
#include "utils/thread_pool.hpp"

namespace fedclust {
namespace {

std::vector<float> random_vec(std::size_t n, std::uint64_t seed,
                              float scale = 1.0f) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.uniform(-scale, scale));
  return v;
}

// Relative error with an absolute floor so near-zero references don't
// inflate the ratio.
double rel_err(double a, double b) {
  const double denom = std::max({1.0, std::abs(a), std::abs(b)});
  return std::abs(a - b) / denom;
}

bool ptr_aligned(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p) % kBufferAlignment == 0;
}

// -- dispatch state ---------------------------------------------------------

TEST(SimdDispatch, CompiledFlagMatchesTablePresence) {
  EXPECT_EQ(ops::simd_compiled(), ops::simd_kernels() != nullptr);
}

TEST(SimdDispatch, SetSimdEnabledSwitchesTables) {
  ops::set_simd_enabled(false);
  EXPECT_FALSE(ops::simd_active());
  EXPECT_STREQ(ops::kernels().name, "scalar");
  ops::set_simd_enabled(true);
  if (ops::simd_active()) {
    EXPECT_STREQ(ops::kernels().name, ops::simd_kernels()->name);
  } else {
    // No SIMD table compiled in, or the host fails the runtime ISA
    // check: enabling must safely stay on the scalar table.
    EXPECT_STREQ(ops::kernels().name, "scalar");
  }
}

TEST(SimdDispatch, AllKernelPointersAreNonNull) {
  const auto check = [](const ops::KernelTable& t) {
    EXPECT_NE(t.name, nullptr);
    EXPECT_NE(t.gemm_nn_rows, nullptr);
    EXPECT_NE(t.gemm_tn_rows, nullptr);
    EXPECT_NE(t.gemm_nt_rows, nullptr);
    EXPECT_NE(t.axpy, nullptr);
    EXPECT_NE(t.scale, nullptr);
    EXPECT_NE(t.add, nullptr);
    EXPECT_NE(t.sub, nullptr);
    EXPECT_NE(t.mul, nullptr);
    EXPECT_NE(t.scale_shift, nullptr);
    EXPECT_NE(t.sub_mul, nullptr);
    EXPECT_NE(t.relu_forward, nullptr);
    EXPECT_NE(t.relu_backward, nullptr);
    EXPECT_NE(t.sum, nullptr);
    EXPECT_NE(t.dot, nullptr);
    EXPECT_NE(t.sqnorm, nullptr);
    EXPECT_NE(t.sqdist, nullptr);
    EXPECT_NE(t.sqdev, nullptr);
    EXPECT_NE(t.max, nullptr);
    EXPECT_NE(t.weighted_accumulate_partial, nullptr);
    EXPECT_NE(t.bn_backward_dx, nullptr);
  };
  check(ops::scalar_kernels());
  if (const ops::KernelTable* simd = ops::simd_kernels()) check(*simd);
}

// -- alignment (satellite: Tensor/ScratchArena storage on 64 bytes) ---------

static_assert(kBufferAlignment == 64, "SIMD kernels assume 64-byte buffers");
static_assert(ops::kChunkAlign % (kBufferAlignment / sizeof(float)) == 0,
              "chunk cuts must land on cache-line boundaries");

TEST(Alignment, TensorBuffersStartOnCacheLines) {
  for (const std::size_t n : {1u, 3u, 7u, 8u, 63u, 64u, 65u, 1000u}) {
    const Tensor t({n});
    EXPECT_TRUE(ptr_aligned(t.data())) << "numel=" << n;
  }
  Rng rng(7);
  const Tensor r = Tensor::randn({5, 17}, rng);
  EXPECT_TRUE(ptr_aligned(r.data()));
}

TEST(Alignment, AdoptingConstructorReallocatesAligned) {
  // The std::vector<float> overload must copy into aligned storage even
  // though the source buffer has only natural alignment.
  std::vector<float> raw(37, 1.5f);
  const Tensor t({37}, raw);
  EXPECT_TRUE(ptr_aligned(t.data()));
  for (std::size_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t.data()[i], 1.5f);
}

TEST(Alignment, ScratchArenaSlotsStartOnCacheLines) {
  ScratchArena arena;
  for (std::size_t key = 0; key < 4; ++key) {
    Tensor& slot = arena.acquire(key, {3 + key, 17});
    EXPECT_TRUE(ptr_aligned(slot.data())) << "slot=" << key;
  }
  // Growth keeps the guarantee.
  Tensor& grown = arena.acquire(0, {129, 65});
  EXPECT_TRUE(ptr_aligned(grown.data()));
}

TEST(Alignment, AlignedFloatVectorIsAligned) {
  const AlignedFloatVector v(123, 0.25f);
  EXPECT_TRUE(ptr_aligned(v.data()));
}

// -- SIMD vs scalar equivalence --------------------------------------------
//
// The two tables use different (but individually fixed) accumulation
// orders, so equivalence is tolerance-based, never bit-exact. Each case
// skips when no SIMD table is active so the scalar-only CI leg still
// runs the file.

class SimdScalarEquivalence : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!ops::simd_active()) {
      GTEST_SKIP() << "no active SIMD kernel table in this build/host";
    }
    simd_ = ops::simd_kernels();
    ASSERT_NE(simd_, nullptr);
  }
  void TearDown() override { ops::set_simd_enabled(true); }

  const ops::KernelTable& scalar_ = ops::scalar_kernels();
  const ops::KernelTable* simd_ = nullptr;
};

// Shapes chosen to hit every remainder path: sub-vector sizes, exact
// vector multiples, microkernel-tile remainders (kMR=6, kNR*W=16), and
// odd primes.
struct GemmShape {
  std::size_t m, k, n;
};
const GemmShape kGemmShapes[] = {{1, 1, 1},    {2, 3, 5},    {6, 8, 16},
                                 {7, 9, 17},   {13, 31, 19}, {24, 16, 32},
                                 {33, 47, 29}, {64, 40, 65}};

TEST_F(SimdScalarEquivalence, GemmNN) {
  for (const GemmShape& s : kGemmShapes) {
    const auto a = random_vec(s.m * s.k, 100 + s.m);
    const auto b = random_vec(s.k * s.n, 200 + s.n);
    std::vector<float> cs(s.m * s.n), cv(s.m * s.n);
    scalar_.gemm_nn_rows(a.data(), b.data(), cs.data(), 0, s.m, s.k, s.n);
    simd_->gemm_nn_rows(a.data(), b.data(), cv.data(), 0, s.m, s.k, s.n);
    for (std::size_t i = 0; i < cs.size(); ++i) {
      EXPECT_LT(rel_err(cs[i], cv[i]), 1e-5)
          << "m=" << s.m << " k=" << s.k << " n=" << s.n << " i=" << i;
    }
  }
}

TEST_F(SimdScalarEquivalence, GemmTN) {
  for (const GemmShape& s : kGemmShapes) {
    // A stored k-major: (k × m).
    const auto a = random_vec(s.k * s.m, 300 + s.m);
    const auto b = random_vec(s.k * s.n, 400 + s.n);
    std::vector<float> cs(s.m * s.n), cv(s.m * s.n);
    scalar_.gemm_tn_rows(a.data(), b.data(), cs.data(), 0, s.m, s.k, s.m,
                         s.n);
    simd_->gemm_tn_rows(a.data(), b.data(), cv.data(), 0, s.m, s.k, s.m,
                        s.n);
    for (std::size_t i = 0; i < cs.size(); ++i) {
      EXPECT_LT(rel_err(cs[i], cv[i]), 1e-5)
          << "m=" << s.m << " k=" << s.k << " n=" << s.n << " i=" << i;
    }
  }
}

TEST_F(SimdScalarEquivalence, GemmNT) {
  for (const GemmShape& s : kGemmShapes) {
    const auto a = random_vec(s.m * s.k, 500 + s.m);
    const auto b = random_vec(s.n * s.k, 600 + s.n);  // B stored n × k
    std::vector<float> cs(s.m * s.n), cv(s.m * s.n);
    scalar_.gemm_nt_rows(a.data(), b.data(), cs.data(), 0, s.m, s.k, s.n);
    simd_->gemm_nt_rows(a.data(), b.data(), cv.data(), 0, s.m, s.k, s.n);
    for (std::size_t i = 0; i < cs.size(); ++i) {
      EXPECT_LT(rel_err(cs[i], cv[i]), 1e-5)
          << "m=" << s.m << " k=" << s.k << " n=" << s.n << " i=" << i;
    }
  }
}

const std::size_t kVecSizes[] = {1, 5, 8, 15, 16, 17, 64, 255, 1001};

TEST_F(SimdScalarEquivalence, Elementwise) {
  for (const std::size_t n : kVecSizes) {
    const auto x = random_vec(n, 10 + n);
    const auto y0 = random_vec(n, 20 + n);

    // axpy and scale_shift have an a·x+b shape: the SIMD table fuses the
    // multiply-add while the scalar build may round the product first, so
    // cancellation can make the (tiny) difference large in ULP terms —
    // compare those two with an absolute tolerance. Every other
    // elementwise op maps to the same per-element operations and must
    // match bit-for-bit.
    auto ys = y0, yv = y0;
    scalar_.axpy(0.75f, x.data(), ys.data(), n);
    simd_->axpy(0.75f, x.data(), yv.data(), n);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(ys[i], yv[i], 1e-6);

    ys = y0, yv = y0;
    scalar_.scale(-1.25f, ys.data(), n);
    simd_->scale(-1.25f, yv.data(), n);
    for (std::size_t i = 0; i < n; ++i) EXPECT_FLOAT_EQ(ys[i], yv[i]);

    ys = y0, yv = y0;
    scalar_.add(x.data(), ys.data(), n);
    simd_->add(x.data(), yv.data(), n);
    for (std::size_t i = 0; i < n; ++i) EXPECT_FLOAT_EQ(ys[i], yv[i]);

    ys = y0, yv = y0;
    scalar_.sub(x.data(), ys.data(), n);
    simd_->sub(x.data(), yv.data(), n);
    for (std::size_t i = 0; i < n; ++i) EXPECT_FLOAT_EQ(ys[i], yv[i]);

    ys = y0, yv = y0;
    scalar_.mul(x.data(), ys.data(), n);
    simd_->mul(x.data(), yv.data(), n);
    for (std::size_t i = 0; i < n; ++i) EXPECT_FLOAT_EQ(ys[i], yv[i]);

    std::vector<float> os(n), ov(n);
    scalar_.scale_shift(x.data(), os.data(), 1.5f, -0.25f, n);
    simd_->scale_shift(x.data(), ov.data(), 1.5f, -0.25f, n);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(os[i], ov[i], 1e-6);

    scalar_.sub_mul(x.data(), os.data(), 0.125f, 2.0f, n);
    simd_->sub_mul(x.data(), ov.data(), 0.125f, 2.0f, n);
    for (std::size_t i = 0; i < n; ++i) EXPECT_FLOAT_EQ(os[i], ov[i]);
  }
}

TEST_F(SimdScalarEquivalence, ScaleShiftInPlaceAliasing) {
  // BatchNorm's eval path calls scale_shift with x == y; both tables
  // must tolerate full aliasing.
  for (const std::size_t n : kVecSizes) {
    const auto x = random_vec(n, 30 + n);
    auto in_place_s = x, in_place_v = x;
    std::vector<float> out_of_place(n);
    scalar_.scale_shift(x.data(), out_of_place.data(), 2.5f, 1.0f, n);
    scalar_.scale_shift(in_place_s.data(), in_place_s.data(), 2.5f, 1.0f, n);
    simd_->scale_shift(in_place_v.data(), in_place_v.data(), 2.5f, 1.0f, n);
    for (std::size_t i = 0; i < n; ++i) {
      // Within one table, aliasing must not change the result at all;
      // across tables, FMA contraction allows low-order-bit drift.
      EXPECT_EQ(in_place_s[i], out_of_place[i]);
      EXPECT_NEAR(in_place_v[i], out_of_place[i], 1e-6);
    }
  }
}

TEST_F(SimdScalarEquivalence, ReluForwardAndBackward) {
  for (const std::size_t n : kVecSizes) {
    auto x = random_vec(n, 40 + n);
    if (n > 2) x[n / 2] = 0.0f;  // the boundary case must zero, not pass
    std::vector<float> ys(n), yv(n);
    scalar_.relu_forward(x.data(), ys.data(), n);
    simd_->relu_forward(x.data(), yv.data(), n);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(ys[i], yv[i]);

    // A NaN input passes its gradient in vector lanes and the tail alike.
    x[0] = std::numeric_limits<float>::quiet_NaN();
    x[n - 1] = std::numeric_limits<float>::quiet_NaN();
    const auto g0 = random_vec(n, 50 + n);
    auto gs = g0, gv = g0;
    scalar_.relu_backward(x.data(), gs.data(), n);
    simd_->relu_backward(x.data(), gv.data(), n);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(gs[i], gv[i]);
    EXPECT_EQ(gv[0], g0[0]);
    EXPECT_EQ(gv[n - 1], g0[n - 1]);
  }
}

TEST_F(SimdScalarEquivalence, Reductions) {
  for (const std::size_t n : kVecSizes) {
    const auto a = random_vec(n, 60 + n);
    const auto b = random_vec(n, 70 + n);
    EXPECT_LT(rel_err(scalar_.sum(a.data(), n), simd_->sum(a.data(), n)),
              1e-12);
    EXPECT_LT(rel_err(scalar_.dot(a.data(), b.data(), n),
                      simd_->dot(a.data(), b.data(), n)),
              1e-12);
    EXPECT_LT(
        rel_err(scalar_.sqnorm(a.data(), n), simd_->sqnorm(a.data(), n)),
        1e-12);
    EXPECT_LT(rel_err(scalar_.sqdist(a.data(), b.data(), n),
                      simd_->sqdist(a.data(), b.data(), n)),
              1e-12);
    const double mean = scalar_.sum(a.data(), n) / static_cast<double>(n);
    EXPECT_LT(rel_err(scalar_.sqdev(a.data(), mean, n),
                      simd_->sqdev(a.data(), mean, n)),
              1e-12);
    // max selects, it does not accumulate: bit-exact across tables.
    EXPECT_EQ(scalar_.max(a.data(), n), simd_->max(a.data(), n));
  }
}

TEST_F(SimdScalarEquivalence, SqnormIsExactlyDotWithSelf) {
  // The Gram-matrix distance trick (‖a‖² + ‖b‖² − 2a·b) cancels to an
  // exact zero for duplicate rows only if sqnorm and dot share one
  // accumulation path. Pin that bitwise, per table.
  for (const std::size_t n : kVecSizes) {
    const auto a = random_vec(n, 80 + n);
    EXPECT_EQ(scalar_.sqnorm(a.data(), n),
              scalar_.dot(a.data(), a.data(), n));
    EXPECT_EQ(simd_->sqnorm(a.data(), n), simd_->dot(a.data(), a.data(), n));
  }
}

TEST_F(SimdScalarEquivalence, WeightedAccumulateAndBnBackward) {
  for (const std::size_t n : kVecSizes) {
    const auto u0 = random_vec(n, 90 + n);
    const auto u1 = random_vec(n, 91 + n);
    const auto u2 = random_vec(n, 92 + n);
    const float* srcs[] = {u0.data(), u1.data(), u2.data()};
    const double coeff[] = {0.5, 0.3, 0.2};
    // The flat mean: one call into a zeroed accumulator, cast to float.
    std::vector<double> as(n, 0.0), av(n, 0.0);
    scalar_.weighted_accumulate_partial(srcs, coeff, 3, as.data(), 0, n);
    simd_->weighted_accumulate_partial(srcs, coeff, 3, av.data(), 0, n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_FLOAT_EQ(static_cast<float>(as[i]), static_cast<float>(av[i]));
    }

    std::vector<float> os(n), ov(n);
    scalar_.bn_backward_dx(u0.data(), u1.data(), os.data(), 1.75, 0.03,
                           -0.02, n);
    simd_->bn_backward_dx(u0.data(), u1.data(), ov.data(), 1.75, 0.03,
                          -0.02, n);
    for (std::size_t i = 0; i < n; ++i) EXPECT_FLOAT_EQ(os[i], ov[i]);
  }
}

// -- determinism within a build --------------------------------------------

TEST_F(SimdScalarEquivalence, RepeatRunsAreBitIdentical) {
  const std::size_t m = 47, k = 33, n = 29;
  const auto a = random_vec(m * k, 1);
  const auto b = random_vec(k * n, 2);
  std::vector<float> c1(m * n), c2(m * n);
  simd_->gemm_nn_rows(a.data(), b.data(), c1.data(), 0, m, k, n);
  simd_->gemm_nn_rows(a.data(), b.data(), c2.data(), 0, m, k, n);
  ASSERT_EQ(c1, c2);
  ASSERT_EQ(simd_->dot(a.data(), a.data(), m * k),
            simd_->dot(a.data(), a.data(), m * k));
}

TEST_F(SimdScalarEquivalence, GemmRowSplitsAreBitIdentical) {
  // Row tiles are independent: any [i0, i1) partition must reproduce the
  // full-range result exactly — the invariant that makes threaded GEMM
  // bit-identical to serial.
  const std::size_t m = 23, k = 41, n = 37;
  const auto a = random_vec(m * k, 3);
  const auto b = random_vec(k * n, 4);
  std::vector<float> whole(m * n);
  simd_->gemm_nn_rows(a.data(), b.data(), whole.data(), 0, m, k, n);
  for (const std::size_t cut : {1u, 6u, 7u, 16u, 22u}) {
    std::vector<float> split(m * n);
    simd_->gemm_nn_rows(a.data(), b.data(), split.data(), 0, cut, k, n);
    simd_->gemm_nn_rows(a.data(), b.data(), split.data(), cut, m, k, n);
    ASSERT_EQ(whole, split) << "cut=" << cut;
  }
}

TEST_F(SimdScalarEquivalence, WeightedAccumulateChunkingIsBitIdentical) {
  // Cutting the range on kChunkAlign boundaries must not change a single
  // bit — the property weighted_average relies on across pool sizes.
  const std::size_t dim = 10 * ops::kChunkAlign + 17;
  const auto u0 = random_vec(dim, 5);
  const auto u1 = random_vec(dim, 6);
  const float* srcs[] = {u0.data(), u1.data()};
  const double coeff[] = {0.6, 0.4};
  std::vector<double> whole(dim, 0.0);
  simd_->weighted_accumulate_partial(srcs, coeff, 2, whole.data(), 0, dim);
  for (const std::size_t chunks : {2u, 3u, 7u}) {
    std::vector<double> split(dim, 0.0);
    std::size_t step = (dim / chunks + ops::kChunkAlign - 1) /
                       ops::kChunkAlign * ops::kChunkAlign;
    for (std::size_t begin = 0; begin < dim; begin += step) {
      const std::size_t end = std::min(dim, begin + step);
      simd_->weighted_accumulate_partial(srcs, coeff, 2, split.data(), begin,
                                         end);
    }
    ASSERT_EQ(whole, split) << "chunks=" << chunks;
  }
}

// -- call-site level: dispatched operations agree across tables -------------

class SimdToggle : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!ops::simd_active()) {
      GTEST_SKIP() << "no active SIMD kernel table in this build/host";
    }
  }
  void TearDown() override { ops::set_simd_enabled(true); }
};

TEST_F(SimdToggle, MatmulMatchesScalarPath) {
  Rng rng(11);
  const Tensor a = Tensor::randn({47, 33}, rng);
  const Tensor b = Tensor::randn({33, 29}, rng);
  Tensor simd_c, scalar_c;
  ops::matmul(a, b, simd_c);
  ops::set_simd_enabled(false);
  ops::matmul(a, b, scalar_c);
  ASSERT_EQ(simd_c.shape(), scalar_c.shape());
  for (std::size_t i = 0; i < simd_c.numel(); ++i) {
    EXPECT_LT(rel_err(scalar_c.data()[i], simd_c.data()[i]), 1e-5);
  }
}

TEST_F(SimdToggle, PairwiseEuclideanMatchesScalarPath) {
  std::vector<std::vector<float>> vectors;
  for (std::size_t i = 0; i < 6; ++i) {
    vectors.push_back(random_vec(37, 120 + i));  // 37: remainder lanes
  }
  vectors.push_back(vectors[2]);  // exact duplicate row
  const Matrix simd_d = cluster::pairwise_euclidean(vectors);
  ops::set_simd_enabled(false);
  const Matrix scalar_d = cluster::pairwise_euclidean(vectors);

  const std::size_t last = vectors.size() - 1;
  EXPECT_DOUBLE_EQ(simd_d(2, last), 0.0);  // Gram trick cancels exactly
  EXPECT_TRUE(is_symmetric(simd_d));
  for (std::size_t i = 0; i < vectors.size(); ++i) {
    EXPECT_DOUBLE_EQ(simd_d(i, i), 0.0);
    for (std::size_t j = 0; j < vectors.size(); ++j) {
      EXPECT_LT(rel_err(scalar_d(i, j), simd_d(i, j)), 1e-6);
    }
  }
}

TEST_F(SimdToggle, WeightedAverageMatchesScalarPath) {
  // Large enough to trip the threaded chunked path (kMinParallelDim).
  const std::size_t dim = (1u << 15) + 2 * ops::kChunkAlign + 11;
  std::vector<fl::ClientUpdate> updates;
  for (std::size_t u = 0; u < 3; ++u) {
    updates.push_back(
        fl::ClientUpdate{u, random_vec(dim, 130 + u), 10 + 7 * u, 0.0f});
  }

  const std::vector<float> serial = fl::weighted_average(updates, nullptr);
  ThreadPool pool2(2), pool5(5);
  // Within one build, the pool size must not flip a single bit.
  ASSERT_EQ(serial, fl::weighted_average(updates, &pool2));
  ASSERT_EQ(serial, fl::weighted_average(updates, &pool5));

  ops::set_simd_enabled(false);
  const std::vector<float> scalar_serial =
      fl::weighted_average(updates, nullptr);
  ASSERT_EQ(scalar_serial, fl::weighted_average(updates, &pool5));
  for (std::size_t i = 0; i < dim; ++i) {
    EXPECT_FLOAT_EQ(scalar_serial[i], serial[i]);
  }
}

}  // namespace
}  // namespace fedclust
