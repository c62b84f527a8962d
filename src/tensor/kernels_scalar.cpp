// Scalar kernel table: hand-written loops compiled with the project's
// baseline flags. These are the pre-SIMD implementations, kept
// semantically identical so a scalar build reproduces the seed numerics:
// the GEMM cores accumulate each C element in the same (i, j)-determined
// order regardless of blocking or threading, and every reduction
// accumulates in double exactly like the original tensor.cpp loops.
#include <algorithm>
#include <cstddef>

#include "tensor/kernels.hpp"

#if defined(__GNUC__) || defined(__clang__)
#define FEDCLUST_RESTRICT __restrict__
#else
#define FEDCLUST_RESTRICT
#endif

namespace fedclust::ops {
namespace {

// Blocking parameters (floats): a KC×NC panel of B (256×512 = 512 KiB at
// the defaults below, typically trimmed by the edge cases to the L2-
// resident working set) is reused across an IR-row register tile of A,
// and the 8-wide inner loops are written so the compiler can vectorize
// them without reassociating float math.
constexpr std::size_t kKC = 256;  ///< k-panel size (rows of B per block)
constexpr std::size_t kNC = 512;  ///< j-panel size (B row segment in L1)
constexpr std::size_t kIR = 4;    ///< register tile height (rows of C)

void gemm_nn_rows(const float* FEDCLUST_RESTRICT pa,
                  const float* FEDCLUST_RESTRICT pb, float* FEDCLUST_RESTRICT pc,
                  std::size_t i0, std::size_t i1, std::size_t k,
                  std::size_t n) {
  std::fill(pc + i0 * n, pc + i1 * n, 0.0f);
  for (std::size_t kc = 0; kc < k; kc += kKC) {
    const std::size_t kend = std::min(k, kc + kKC);
    for (std::size_t jc = 0; jc < n; jc += kNC) {
      const std::size_t jend = std::min(n, jc + kNC);
      std::size_t i = i0;
      for (; i + kIR <= i1; i += kIR) {
        for (std::size_t kk = kc; kk < kend; ++kk) {
          const float a0 = pa[(i + 0) * k + kk];
          const float a1 = pa[(i + 1) * k + kk];
          const float a2 = pa[(i + 2) * k + kk];
          const float a3 = pa[(i + 3) * k + kk];
          const float* FEDCLUST_RESTRICT brow = pb + kk * n;
          float* FEDCLUST_RESTRICT c0 = pc + (i + 0) * n;
          float* FEDCLUST_RESTRICT c1 = pc + (i + 1) * n;
          float* FEDCLUST_RESTRICT c2 = pc + (i + 2) * n;
          float* FEDCLUST_RESTRICT c3 = pc + (i + 3) * n;
          for (std::size_t j = jc; j < jend; ++j) {
            c0[j] += a0 * brow[j];
            c1[j] += a1 * brow[j];
            c2[j] += a2 * brow[j];
            c3[j] += a3 * brow[j];
          }
        }
      }
      for (; i < i1; ++i) {
        for (std::size_t kk = kc; kk < kend; ++kk) {
          const float a0 = pa[i * k + kk];
          const float* FEDCLUST_RESTRICT brow = pb + kk * n;
          float* FEDCLUST_RESTRICT crow = pc + i * n;
          for (std::size_t j = jc; j < jend; ++j) crow[j] += a0 * brow[j];
        }
      }
    }
  }
}

void gemm_tn_rows(const float* FEDCLUST_RESTRICT pa,
                  const float* FEDCLUST_RESTRICT pb, float* FEDCLUST_RESTRICT pc,
                  std::size_t i0, std::size_t i1, std::size_t k, std::size_t m,
                  std::size_t n) {
  std::fill(pc + i0 * n, pc + i1 * n, 0.0f);
  for (std::size_t kc = 0; kc < k; kc += kKC) {
    const std::size_t kend = std::min(k, kc + kKC);
    for (std::size_t jc = 0; jc < n; jc += kNC) {
      const std::size_t jend = std::min(n, jc + kNC);
      std::size_t i = i0;
      for (; i + kIR <= i1; i += kIR) {
        for (std::size_t kk = kc; kk < kend; ++kk) {
          const float* FEDCLUST_RESTRICT acol = pa + kk * m + i;
          const float a0 = acol[0];
          const float a1 = acol[1];
          const float a2 = acol[2];
          const float a3 = acol[3];
          const float* FEDCLUST_RESTRICT brow = pb + kk * n;
          float* FEDCLUST_RESTRICT c0 = pc + (i + 0) * n;
          float* FEDCLUST_RESTRICT c1 = pc + (i + 1) * n;
          float* FEDCLUST_RESTRICT c2 = pc + (i + 2) * n;
          float* FEDCLUST_RESTRICT c3 = pc + (i + 3) * n;
          for (std::size_t j = jc; j < jend; ++j) {
            c0[j] += a0 * brow[j];
            c1[j] += a1 * brow[j];
            c2[j] += a2 * brow[j];
            c3[j] += a3 * brow[j];
          }
        }
      }
      for (; i < i1; ++i) {
        for (std::size_t kk = kc; kk < kend; ++kk) {
          const float a0 = pa[kk * m + i];
          const float* FEDCLUST_RESTRICT brow = pb + kk * n;
          float* FEDCLUST_RESTRICT crow = pc + i * n;
          for (std::size_t j = jc; j < jend; ++j) crow[j] += a0 * brow[j];
        }
      }
    }
  }
}

/// 8-accumulator dot product — the one and only reduction kernel for the
/// NT variant, so every C element is summed in the same order no matter
/// which tile or thread computed it.
inline float dot8(const float* FEDCLUST_RESTRICT a,
                  const float* FEDCLUST_RESTRICT b, std::size_t k) {
  float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
  float s4 = 0.0f, s5 = 0.0f, s6 = 0.0f, s7 = 0.0f;
  std::size_t kk = 0;
  for (; kk + 8 <= k; kk += 8) {
    s0 += a[kk + 0] * b[kk + 0];
    s1 += a[kk + 1] * b[kk + 1];
    s2 += a[kk + 2] * b[kk + 2];
    s3 += a[kk + 3] * b[kk + 3];
    s4 += a[kk + 4] * b[kk + 4];
    s5 += a[kk + 5] * b[kk + 5];
    s6 += a[kk + 6] * b[kk + 6];
    s7 += a[kk + 7] * b[kk + 7];
  }
  float tail = 0.0f;
  for (; kk < k; ++kk) tail += a[kk] * b[kk];
  return (((s0 + s4) + (s1 + s5)) + ((s2 + s6) + (s3 + s7))) + tail;
}

void gemm_nt_rows(const float* FEDCLUST_RESTRICT pa,
                  const float* FEDCLUST_RESTRICT pb, float* FEDCLUST_RESTRICT pc,
                  std::size_t i0, std::size_t i1, std::size_t k,
                  std::size_t n) {
  constexpr std::size_t kIB = 6;  // A rows per block: 6·k floats stay in L1
  for (std::size_t ib = i0; ib < i1; ib += kIB) {
    const std::size_t iend = std::min(i1, ib + kIB);
    for (std::size_t j = 0; j < n; ++j) {
      const float* FEDCLUST_RESTRICT brow = pb + j * k;
      for (std::size_t i = ib; i < iend; ++i) {
        pc[i * n + j] = dot8(pa + i * k, brow, k);
      }
    }
  }
}

// -- elementwise -------------------------------------------------------------

void axpy(float alpha, const float* FEDCLUST_RESTRICT x,
          float* FEDCLUST_RESTRICT y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void scale(float s, float* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) x[i] *= s;
}

void add(const float* FEDCLUST_RESTRICT x, float* FEDCLUST_RESTRICT y,
         std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += x[i];
}

void sub(const float* FEDCLUST_RESTRICT x, float* FEDCLUST_RESTRICT y,
         std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] -= x[i];
}

void mul(const float* FEDCLUST_RESTRICT x, float* FEDCLUST_RESTRICT y,
         std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] *= x[i];
}

// No restrict: BatchNorm's eval path calls this in place (x == y).
void scale_shift(const float* x, float* y, float a, float b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] = a * x[i] + b;
}

void sub_mul(const float* FEDCLUST_RESTRICT x, float* FEDCLUST_RESTRICT y,
             float mean, float inv, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] = (x[i] - mean) * inv;
}

void relu_forward(const float* FEDCLUST_RESTRICT x, float* FEDCLUST_RESTRICT y,
                  std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] = x[i] > 0.0f ? x[i] : 0.0f;
}

void relu_backward(const float* FEDCLUST_RESTRICT x, float* FEDCLUST_RESTRICT g,
                   std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (x[i] <= 0.0f) g[i] = 0.0f;
  }
}

// -- reductions --------------------------------------------------------------

double sum(const float* x, std::size_t n) {
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) s += x[i];
  return s;
}

double dot(const float* FEDCLUST_RESTRICT a, const float* FEDCLUST_RESTRICT b,
           std::size_t n) {
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    s += static_cast<double>(a[i]) * b[i];
  }
  return s;
}

double sqnorm(const float* x, std::size_t n) { return dot(x, x, n); }

double sqdist(const float* FEDCLUST_RESTRICT a,
              const float* FEDCLUST_RESTRICT b, std::size_t n) {
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = static_cast<double>(a[i]) - b[i];
    s += d * d;
  }
  return s;
}

double sqdev(const float* x, double mean, std::size_t n) {
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = x[i] - mean;
    s += d * d;
  }
  return s;
}

float max_val(const float* x, std::size_t n) {
  float m = x[0];
  for (std::size_t i = 1; i < n; ++i) {
    if (x[i] > m) m = x[i];
  }
  return m;
}

// -- fused -------------------------------------------------------------------

void weighted_accumulate_partial(const float* const* srcs, const double* coeff,
                                 std::size_t num, double* acc,
                                 std::size_t begin, std::size_t end) {
  // Each element continues the caller's accumulator in ascending u, so
  // chained batches reproduce a single call over all sources bit-for-bit.
  for (std::size_t i = begin; i < end; ++i) {
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
  for (std::size_t i = 0; i < n; ++i) {
    dx[i] = static_cast<float>(scale * (dy[i] - mean_dy - xh[i] * mean_dy_xhat));
  }
}

// -- update-compression codecs -----------------------------------------------

void quantize_i8(const float* FEDCLUST_RESTRICT x,
                 signed char* FEDCLUST_RESTRICT q, float inv_scale, int qmax,
                 std::size_t n) {
  const float lo = static_cast<float>(-qmax);
  const float hi = static_cast<float>(qmax);
  for (std::size_t i = 0; i < n; ++i) {
    // mul → round-to-nearest-even → clamp, with NaN taking the lo branch
    // (comparison false) — the exact lane sequence of the SIMD table, so
    // the two tables quantize bit-identically.
    const float r = __builtin_nearbyintf(x[i] * inv_scale);
    float t = r > lo ? r : lo;
    t = t < hi ? t : hi;
    q[i] = static_cast<signed char>(static_cast<int>(t));
  }
}

void dequantize_i8(const signed char* FEDCLUST_RESTRICT q,
                   float* FEDCLUST_RESTRICT x, float scale, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = static_cast<float>(q[i]) * scale;
  }
}

float absmax(const float* x, std::size_t n) {
  float m = 0.0f;
  for (std::size_t i = 0; i < n; ++i) {
    const float a = __builtin_fabsf(x[i]);
    if (a > m) m = a;
  }
  return m;
}

}  // namespace

const KernelTable& scalar_kernels() {
  static const KernelTable table = {
      "scalar",        gemm_nn_rows, gemm_tn_rows, gemm_nt_rows,
      axpy,            scale,        add,          sub,
      mul,             scale_shift,  sub_mul,      relu_forward,
      relu_backward,   sum,          dot,          sqnorm,
      sqdist,          sqdev,        max_val,      weighted_accumulate_partial,
      bn_backward_dx,
      quantize_i8,     dequantize_i8, absmax,
  };
  return table;
}

}  // namespace fedclust::ops
