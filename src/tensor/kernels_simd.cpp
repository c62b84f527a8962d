// SIMD kernel table: generic bodies over tensor/simd.hpp, compiled in
// this dedicated TU with the ISA flags the build selected (e.g. -mavx2
// -mfma on x86_64; NEON is baseline on aarch64). Only kernels.hpp and
// simd.hpp are included so no inline function from a standard header
// gets compiled with the wider ISA and leaks into scalar TUs at link.
//
// Determinism: every output element is accumulated in an order fixed by
// (element index, problem size) alone. The GEMM cores keep one register
// accumulator per (row, column-vector) pair with a sequential k loop, so
// the i0/i1 thread split never changes any element's summation order;
// column grouping into vectors depends only on n. Reduction lane
// membership depends only on the element index (callers chunk on
// kChunkAlign boundaries), so thread count cannot change results.
#include <cstddef>

#include "tensor/kernels.hpp"
#include "tensor/simd.hpp"

#if defined(__GNUC__) || defined(__clang__)
#define FEDCLUST_RESTRICT __restrict__
#else
#define FEDCLUST_RESTRICT
#endif

namespace fedclust::ops {
namespace {

namespace s = fedclust::simd;
constexpr std::size_t W = s::kWidth;

constexpr std::size_t kKC = 256;  ///< k-panel: B rows reused per register tile
constexpr std::size_t kNC = 512;  ///< j-panel: B row segment kept in L1
constexpr std::size_t kMR = 6;    ///< register tile height (rows of C)
// Tile width is kNR * W columns: kMR*kNR accumulators + kNR B vectors +
// one broadcast fit the 16 architectural vector registers of AVX2.
constexpr std::size_t kNR = 2;

inline std::size_t round_down(std::size_t x, std::size_t m) {
  return x - x % m;
}

inline void zero_fill(float* p, std::size_t n) {
  const s::f32x z = s::zero();
  std::size_t i = 0;
  for (; i + W <= n; i += W) s::store(p + i, z);
  for (; i < n; ++i) p[i] = 0.0f;
}

/// Accumulates C[i..i+ROWS) x [jc,jend) over k-panel [kc,kend) and adds
/// the register results into C. ALoad abstracts the A element access so
/// NN (row-major A) and TN (k-major A) share one body.
template <std::size_t ROWS, class ALoad>
inline void gemm_tile(ALoad aload, const float* FEDCLUST_RESTRICT pb,
                      float* FEDCLUST_RESTRICT pc, std::size_t i,
                      std::size_t kc, std::size_t kend, std::size_t jc,
                      std::size_t jend, std::size_t n) {
  std::size_t j = jc;
  for (; j + kNR * W <= jend; j += kNR * W) {
    s::f32x acc[ROWS][kNR];
    for (std::size_t r = 0; r < ROWS; ++r)
      for (std::size_t v = 0; v < kNR; ++v) acc[r][v] = s::zero();
    for (std::size_t kk = kc; kk < kend; ++kk) {
      const float* FEDCLUST_RESTRICT brow = pb + kk * n + j;
      const s::f32x b0 = s::load(brow);
      const s::f32x b1 = s::load(brow + W);
      for (std::size_t r = 0; r < ROWS; ++r) {
        const s::f32x ar = s::set1(aload(i + r, kk));
        acc[r][0] = s::fmadd(ar, b0, acc[r][0]);
        acc[r][1] = s::fmadd(ar, b1, acc[r][1]);
      }
    }
    for (std::size_t r = 0; r < ROWS; ++r) {
      float* FEDCLUST_RESTRICT crow = pc + (i + r) * n + j;
      s::store(crow, s::add(s::load(crow), acc[r][0]));
      s::store(crow + W, s::add(s::load(crow + W), acc[r][1]));
    }
  }
  for (; j + W <= jend; j += W) {
    s::f32x acc[ROWS];
    for (std::size_t r = 0; r < ROWS; ++r) acc[r] = s::zero();
    for (std::size_t kk = kc; kk < kend; ++kk) {
      const s::f32x b0 = s::load(pb + kk * n + j);
      for (std::size_t r = 0; r < ROWS; ++r) {
        acc[r] = s::fmadd(s::set1(aload(i + r, kk)), b0, acc[r]);
      }
    }
    for (std::size_t r = 0; r < ROWS; ++r) {
      float* FEDCLUST_RESTRICT crow = pc + (i + r) * n + j;
      s::store(crow, s::add(s::load(crow), acc[r]));
    }
  }
  for (; j < jend; ++j) {
    float acc[ROWS];
    for (std::size_t r = 0; r < ROWS; ++r) acc[r] = 0.0f;
    for (std::size_t kk = kc; kk < kend; ++kk) {
      const float b0 = pb[kk * n + j];
      for (std::size_t r = 0; r < ROWS; ++r) acc[r] += aload(i + r, kk) * b0;
    }
    for (std::size_t r = 0; r < ROWS; ++r) pc[(i + r) * n + j] += acc[r];
  }
}

/// Shared NN/TN driver: panel loops + row tiling. Row-tile grouping may
/// differ with i0, but each row's accumulators are independent, so the
/// per-element order is unchanged — the threaded path stays bit-identical
/// to serial.
template <class ALoad>
inline void gemm_rows(ALoad aload, const float* FEDCLUST_RESTRICT pb,
                      float* FEDCLUST_RESTRICT pc, std::size_t i0,
                      std::size_t i1, std::size_t k, std::size_t n) {
  zero_fill(pc + i0 * n, (i1 - i0) * n);
  for (std::size_t kc = 0; kc < k; kc += kKC) {
    const std::size_t kend = kc + kKC < k ? kc + kKC : k;
    for (std::size_t jc = 0; jc < n; jc += kNC) {
      const std::size_t jend = jc + kNC < n ? jc + kNC : n;
      std::size_t i = i0;
      for (; i + kMR <= i1; i += kMR)
        gemm_tile<kMR>(aload, pb, pc, i, kc, kend, jc, jend, n);
      for (; i < i1; ++i)
        gemm_tile<1>(aload, pb, pc, i, kc, kend, jc, jend, n);
    }
  }
}

void gemm_nn_rows(const float* FEDCLUST_RESTRICT pa,
                  const float* FEDCLUST_RESTRICT pb, float* FEDCLUST_RESTRICT pc,
                  std::size_t i0, std::size_t i1, std::size_t k,
                  std::size_t n) {
  gemm_rows([pa, k](std::size_t i, std::size_t kk) { return pa[i * k + kk]; },
            pb, pc, i0, i1, k, n);
}

void gemm_tn_rows(const float* FEDCLUST_RESTRICT pa,
                  const float* FEDCLUST_RESTRICT pb, float* FEDCLUST_RESTRICT pc,
                  std::size_t i0, std::size_t i1, std::size_t k, std::size_t m,
                  std::size_t n) {
  gemm_rows([pa, m](std::size_t i, std::size_t kk) { return pa[kk * m + i]; },
            pb, pc, i0, i1, k, n);
}

/// Two-accumulator FMA dot with a fixed pairwise horizontal sum, then a
/// sequential scalar tail — the sole reduction used by the NT core.
inline float sdot(const float* FEDCLUST_RESTRICT a,
                  const float* FEDCLUST_RESTRICT b, std::size_t k) {
  s::f32x acc0 = s::zero();
  s::f32x acc1 = s::zero();
  std::size_t kk = 0;
  for (; kk + 2 * W <= k; kk += 2 * W) {
    acc0 = s::fmadd(s::load(a + kk), s::load(b + kk), acc0);
    acc1 = s::fmadd(s::load(a + kk + W), s::load(b + kk + W), acc1);
  }
  if (kk + W <= k) {
    acc0 = s::fmadd(s::load(a + kk), s::load(b + kk), acc0);
    kk += W;
  }
  float sum = s::hsum(s::add(acc0, acc1));
  for (; kk < k; ++kk) sum += a[kk] * b[kk];
  return sum;
}

void gemm_nt_rows(const float* FEDCLUST_RESTRICT pa,
                  const float* FEDCLUST_RESTRICT pb, float* FEDCLUST_RESTRICT pc,
                  std::size_t i0, std::size_t i1, std::size_t k,
                  std::size_t n) {
  constexpr std::size_t kIB = 6;  // A rows per block: 6·k floats stay in L1
  for (std::size_t ib = i0; ib < i1; ib += kIB) {
    const std::size_t iend = ib + kIB < i1 ? ib + kIB : i1;
    for (std::size_t j = 0; j < n; ++j) {
      const float* FEDCLUST_RESTRICT brow = pb + j * k;
      for (std::size_t i = ib; i < iend; ++i) {
        pc[i * n + j] = sdot(pa + i * k, brow, k);
      }
    }
  }
}

// -- elementwise -------------------------------------------------------------

void axpy(float alpha, const float* FEDCLUST_RESTRICT x,
          float* FEDCLUST_RESTRICT y, std::size_t n) {
  const s::f32x av = s::set1(alpha);
  std::size_t i = 0;
  for (; i + W <= n; i += W) {
    s::store(y + i, s::fmadd(av, s::load(x + i), s::load(y + i)));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

void scale(float sc, float* x, std::size_t n) {
  const s::f32x sv = s::set1(sc);
  std::size_t i = 0;
  for (; i + W <= n; i += W) s::store(x + i, s::mul(s::load(x + i), sv));
  for (; i < n; ++i) x[i] *= sc;
}

void add(const float* FEDCLUST_RESTRICT x, float* FEDCLUST_RESTRICT y,
         std::size_t n) {
  std::size_t i = 0;
  for (; i + W <= n; i += W) {
    s::store(y + i, s::add(s::load(y + i), s::load(x + i)));
  }
  for (; i < n; ++i) y[i] += x[i];
}

void sub(const float* FEDCLUST_RESTRICT x, float* FEDCLUST_RESTRICT y,
         std::size_t n) {
  std::size_t i = 0;
  for (; i + W <= n; i += W) {
    s::store(y + i, s::sub(s::load(y + i), s::load(x + i)));
  }
  for (; i < n; ++i) y[i] -= x[i];
}

void mul(const float* FEDCLUST_RESTRICT x, float* FEDCLUST_RESTRICT y,
         std::size_t n) {
  std::size_t i = 0;
  for (; i + W <= n; i += W) {
    s::store(y + i, s::mul(s::load(y + i), s::load(x + i)));
  }
  for (; i < n; ++i) y[i] *= x[i];
}

// No restrict: BatchNorm's eval path calls this in place (x == y); each
// vector is fully loaded before its store.
void scale_shift(const float* x, float* y, float a, float b, std::size_t n) {
  const s::f32x av = s::set1(a);
  const s::f32x bv = s::set1(b);
  std::size_t i = 0;
  for (; i + W <= n; i += W) s::store(y + i, s::fmadd(av, s::load(x + i), bv));
  for (; i < n; ++i) y[i] = a * x[i] + b;
}

void sub_mul(const float* FEDCLUST_RESTRICT x, float* FEDCLUST_RESTRICT y,
             float mean, float inv, std::size_t n) {
  const s::f32x mv = s::set1(mean);
  const s::f32x iv = s::set1(inv);
  std::size_t i = 0;
  for (; i + W <= n; i += W) {
    s::store(y + i, s::mul(s::sub(s::load(x + i), mv), iv));
  }
  for (; i < n; ++i) y[i] = (x[i] - mean) * inv;
}

void relu_forward(const float* FEDCLUST_RESTRICT x, float* FEDCLUST_RESTRICT y,
                  std::size_t n) {
  const s::f32x z = s::zero();
  std::size_t i = 0;
  for (; i + W <= n; i += W) s::store(y + i, s::max(s::load(x + i), z));
  for (; i < n; ++i) y[i] = x[i] > 0.0f ? x[i] : 0.0f;
}

void relu_backward(const float* FEDCLUST_RESTRICT x, float* FEDCLUST_RESTRICT g,
                   std::size_t n) {
  std::size_t i = 0;
  for (; i + W <= n; i += W) {
    s::store(g + i, s::zero_where_nonpos(s::load(x + i), s::load(g + i)));
  }
  for (; i < n; ++i) {
    if (x[i] <= 0.0f) g[i] = 0.0f;
  }
}

// -- reductions --------------------------------------------------------------
// All reductions widen f32 lanes to double accumulators (matching the
// scalar table's double accumulation), reduce the vector accumulators in
// a fixed order, then fold the scalar tail sequentially.

double sum(const float* x, std::size_t n) {
  s::f64x a0 = s::dzero();
  s::f64x a1 = s::dzero();
  std::size_t i = 0;
  for (; i + W <= n; i += W) {
    s::f64x lo, hi;
    s::widen(s::load(x + i), lo, hi);
    a0 = s::dadd(a0, lo);
    a1 = s::dadd(a1, hi);
  }
  double acc = s::dhsum(s::dadd(a0, a1));
  for (; i < n; ++i) acc += x[i];
  return acc;
}

double dot(const float* FEDCLUST_RESTRICT a, const float* FEDCLUST_RESTRICT b,
           std::size_t n) {
  s::f64x a0 = s::dzero();
  s::f64x a1 = s::dzero();
  std::size_t i = 0;
  for (; i + W <= n; i += W) {
    s::f64x alo, ahi, blo, bhi;
    s::widen(s::load(a + i), alo, ahi);
    s::widen(s::load(b + i), blo, bhi);
    a0 = s::dfmadd(alo, blo, a0);
    a1 = s::dfmadd(ahi, bhi, a1);
  }
  double acc = s::dhsum(s::dadd(a0, a1));
  for (; i < n; ++i) acc += static_cast<double>(a[i]) * b[i];
  return acc;
}

// sqnorm(x) must be bitwise dot(x, x): cluster/distance.cpp relies on
// ‖a‖² + ‖b‖² − 2a·b cancelling exactly for duplicate rows.
double sqnorm(const float* x, std::size_t n) { return dot(x, x, n); }

double sqdist(const float* FEDCLUST_RESTRICT a,
              const float* FEDCLUST_RESTRICT b, std::size_t n) {
  s::f64x a0 = s::dzero();
  s::f64x a1 = s::dzero();
  std::size_t i = 0;
  for (; i + W <= n; i += W) {
    s::f64x alo, ahi, blo, bhi;
    s::widen(s::load(a + i), alo, ahi);
    s::widen(s::load(b + i), blo, bhi);
    const s::f64x dlo = s::dsub(alo, blo);
    const s::f64x dhi = s::dsub(ahi, bhi);
    a0 = s::dfmadd(dlo, dlo, a0);
    a1 = s::dfmadd(dhi, dhi, a1);
  }
  double acc = s::dhsum(s::dadd(a0, a1));
  for (; i < n; ++i) {
    const double d = static_cast<double>(a[i]) - b[i];
    acc += d * d;
  }
  return acc;
}

double sqdev(const float* x, double mean, std::size_t n) {
  const s::f64x mv = s::dset1(mean);
  s::f64x a0 = s::dzero();
  s::f64x a1 = s::dzero();
  std::size_t i = 0;
  for (; i + W <= n; i += W) {
    s::f64x lo, hi;
    s::widen(s::load(x + i), lo, hi);
    const s::f64x dlo = s::dsub(lo, mv);
    // hi lanes are zero on 4-wide targets; subtracting the mean there
    // would pollute the unused accumulator, so mask via widen contract:
    // on those targets a1 must only ever see zeros.
    const s::f64x dhi =
        W == 8 ? s::dsub(hi, mv) : s::dzero();
    a0 = s::dfmadd(dlo, dlo, a0);
    a1 = s::dfmadd(dhi, dhi, a1);
  }
  double acc = s::dhsum(s::dadd(a0, a1));
  for (; i < n; ++i) {
    const double d = x[i] - mean;
    acc += d * d;
  }
  return acc;
}

float max_val(const float* x, std::size_t n) {
  if (n < W) {
    float m = x[0];
    for (std::size_t i = 1; i < n; ++i) {
      if (x[i] > m) m = x[i];
    }
    return m;
  }
  s::f32x acc = s::load(x);
  std::size_t i = W;
  for (; i + W <= n; i += W) acc = s::max(acc, s::load(x + i));
  float m = s::hmax(acc);
  for (; i < n; ++i) {
    if (x[i] > m) m = x[i];
  }
  return m;
}

// -- fused -------------------------------------------------------------------

void weighted_accumulate_partial(const float* const* srcs, const double* coeff,
                                 std::size_t num, double* acc,
                                 std::size_t begin, std::size_t end) {
  // begin is a kChunkAlign multiple (except the sole chunk of a short
  // range starting at 0), so vector blocks sit at the same absolute
  // offsets no matter how the caller chunked [0, dim) — lane membership,
  // and hence bit patterns, are invariant to thread count. The
  // accumulators start from (and return to) the caller's double buffer
  // via dload2/dstore2 — a value-preserving round-trip — so chained
  // slot-order batches reproduce one call over all sources bit-for-bit.
  std::size_t i = begin;
  for (; i + W <= end; i += W) {
    s::f64x a0, a1;
    s::dload2(acc + i, a0, a1);
    for (std::size_t u = 0; u < num; ++u) {
      const s::f64x cv = s::dset1(coeff[u]);
      s::f64x lo, hi;
      s::widen(s::load(srcs[u] + i), lo, hi);
      a0 = s::dfmadd(cv, lo, a0);
      a1 = s::dfmadd(cv, hi, a1);
    }
    s::dstore2(acc + i, a0, a1);
  }
  for (; i < end; ++i) {
    double a = acc[i];
    for (std::size_t u = 0; u < num; ++u) {
      a += coeff[u] * static_cast<double>(srcs[u][i]);
    }
    acc[i] = a;
  }
}

void bn_backward_dx(const float* FEDCLUST_RESTRICT dy,
                    const float* FEDCLUST_RESTRICT xh,
                    float* FEDCLUST_RESTRICT dx, double scale, double mean_dy,
                    double mean_dy_xhat, std::size_t n) {
  const s::f64x sv = s::dset1(scale);
  const s::f64x mdv = s::dset1(mean_dy);
  const s::f64x mxv = s::dset1(mean_dy_xhat);
  std::size_t i = 0;
  for (; i + W <= n; i += W) {
    s::f64x dlo, dhi, xlo, xhi;
    s::widen(s::load(dy + i), dlo, dhi);
    s::widen(s::load(xh + i), xlo, xhi);
    const s::f64x tlo = s::dmul(sv, s::dsub(s::dsub(dlo, mdv), s::dmul(xlo, mxv)));
    const s::f64x thi = s::dmul(sv, s::dsub(s::dsub(dhi, mdv), s::dmul(xhi, mxv)));
    s::store(dx + i, s::narrow(tlo, thi));
  }
  for (; i < n; ++i) {
    dx[i] = static_cast<float>(scale * (dy[i] - mean_dy - xh[i] * mean_dy_xhat));
  }
}

// -- update-compression codecs -----------------------------------------------

void quantize_i8(const float* x, signed char* q, float inv_scale, int qmax,
                 std::size_t n) {
  const float flo = static_cast<float>(-qmax);
  const float fhi = static_cast<float>(qmax);
  const s::f32x inv = s::set1(inv_scale);
  const s::f32x lo = s::set1(flo);
  const s::f32x hi = s::set1(fhi);
  std::size_t i = 0;
  for (; i + W <= n; i += W) {
    const s::f32x t =
        s::clamp(s::round_nearest(s::mul(s::load(x + i), inv)), lo, hi);
    s::store_i8(q + i, t);
  }
  for (; i < n; ++i) {
    // Same op sequence as the lanes: mul → round-to-nearest-even → clamp
    // with NaN resolving to lo (comparison false ⇒ lo branch).
    const float r = __builtin_nearbyintf(x[i] * inv_scale);
    float t = r > flo ? r : flo;
    t = t < fhi ? t : fhi;
    q[i] = static_cast<signed char>(static_cast<int>(t));
  }
}

void dequantize_i8(const signed char* q, float* x, float scale, std::size_t n) {
  const s::f32x sv = s::set1(scale);
  std::size_t i = 0;
  for (; i + W <= n; i += W) {
    s::store(x + i, s::mul(s::load_i8(q + i), sv));
  }
  for (; i < n; ++i) {
    x[i] = static_cast<float>(q[i]) * scale;
  }
}

float absmax(const float* x, std::size_t n) {
  std::size_t i = 0;
  float m = 0.0f;
  if (n >= W) {
    s::f32x mv = s::abs(s::load(x));
    for (i = W; i + W <= n; i += W) {
      mv = s::max(mv, s::abs(s::load(x + i)));
    }
    m = s::hmax(mv);
    if (m < 0.0f) m = 0.0f;  // all-negative-zero lanes
  }
  for (; i < n; ++i) {
    const float a = __builtin_fabsf(x[i]);
    if (a > m) m = a;
  }
  return m;
}

}  // namespace

// Consumed by kernels_dispatch.cpp (declared extern there; no header so
// scalar-only builds simply omit this TU).
const KernelTable& simd_kernel_table() {
  static const KernelTable table = {
      s::isa_name(),   gemm_nn_rows, gemm_tn_rows, gemm_nt_rows,
      axpy,            scale,        add,          sub,
      mul,             scale_shift,  sub_mul,      relu_forward,
      relu_backward,   sum,          dot,          sqnorm,
      sqdist,          sqdev,        max_val,      weighted_accumulate_partial,
      bn_backward_dx,
      quantize_i8,     dequantize_i8, absmax,
  };
  return table;
}

bool simd_kernel_table_supported() { return s::runtime_supported(); }

}  // namespace fedclust::ops
