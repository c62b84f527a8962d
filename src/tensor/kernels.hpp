// Runtime-dispatched CPU kernel table: the single seam between the
// numeric call sites (tensor/ops, nn, fl, cluster) and the ISA-specific
// implementations.
//
// Two tables exist:
//  * scalar_kernels() — hand-written scalar loops, compiled with the
//    project's baseline flags. Always present; semantically identical to
//    the pre-SIMD code (double accumulation in reductions, fixed
//    per-element accumulation order in the GEMM cores).
//  * simd_kernels()   — the same kernel contracts implemented over
//    tensor/simd.hpp (AVX2+FMA on x86, NEON on aarch64), compiled in a
//    dedicated translation unit with the ISA flags when the build enables
//    FEDCLUST_SIMD. nullptr when not compiled in.
//
// kernels() returns the active table: the SIMD one iff it was compiled
// in, the host supports the ISA (one-time runtime check), and it has not
// been disabled via set_simd_enabled(false) — the override equivalence
// tests and benchmarks use to compare both paths inside one binary.
//
// Determinism contract: every kernel accumulates each output element in
// an order fixed by (element index, problem size) alone — never by
// thread count or caller-side chunking, provided callers split work on
// kChunkAlign boundaries (see weighted_accumulate). Scalar and SIMD
// tables may differ in low-order bits (different but fixed orders), so
// cross-BUILD equivalence is tolerance-based while within-build runs are
// bit-identical.
#pragma once

#include <cstddef>

namespace fedclust::ops {

/// Splitting granularity (in floats) callers must use when chunking a
/// flat range across threads: a multiple of every vector width and of
/// the 64-byte cache line, so each element keeps the same vector-lane
/// membership no matter how many chunks the range is cut into.
inline constexpr std::size_t kChunkAlign = 64;

/// ISA-specialized kernel entry points. All pointers are non-null.
struct KernelTable {
  const char* name;  ///< "scalar", "avx2+fma", or "neon"

  // -- GEMM row cores (contracts match tensor/ops.cpp wrappers) -----------
  /// C[i0:i1) = A(m×k)·B(k×n); C rows are overwritten.
  void (*gemm_nn_rows)(const float* a, const float* b, float* c,
                       std::size_t i0, std::size_t i1, std::size_t k,
                       std::size_t n);
  /// C[i0:i1) = Aᵀ(k×m)·B(k×n) with A stored k-major.
  void (*gemm_tn_rows)(const float* a, const float* b, float* c,
                       std::size_t i0, std::size_t i1, std::size_t k,
                       std::size_t m, std::size_t n);
  /// C[i0:i1) = A(m×k)·Bᵀ(n×k).
  void (*gemm_nt_rows)(const float* a, const float* b, float* c,
                       std::size_t i0, std::size_t i1, std::size_t k,
                       std::size_t n);

  // -- elementwise f32 ------------------------------------------------------
  void (*axpy)(float alpha, const float* x, float* y, std::size_t n);
  void (*scale)(float s, float* x, std::size_t n);
  void (*add)(const float* x, float* y, std::size_t n);  ///< y += x
  void (*sub)(const float* x, float* y, std::size_t n);  ///< y -= x
  void (*mul)(const float* x, float* y, std::size_t n);  ///< y *= x
  /// y = a*x + b; x may alias y (in-place).
  void (*scale_shift)(const float* x, float* y, float a, float b,
                      std::size_t n);
  /// y = (x - mean) * inv  (BatchNorm normalize, subtract-then-scale order)
  void (*sub_mul)(const float* x, float* y, float mean, float inv,
                  std::size_t n);
  void (*relu_forward)(const float* x, float* y, std::size_t n);
  /// g = x <= 0 ? 0 : g (a NaN x passes g)
  void (*relu_backward)(const float* x, float* g, std::size_t n);

  // -- reductions (f32 in, f64 accumulation, fixed lane order) -------------
  double (*sum)(const float* x, std::size_t n);
  double (*dot)(const float* a, const float* b, std::size_t n);
  double (*sqnorm)(const float* x, std::size_t n);  ///< Σ x²
  double (*sqdist)(const float* a, const float* b, std::size_t n);  ///< Σ(a−b)²
  /// Σ (x − mean)², the BatchNorm variance pass.
  double (*sqdev)(const float* x, double mean, std::size_t n);
  float (*max)(const float* x, std::size_t n);  ///< n must be > 0

  // -- fused kernels --------------------------------------------------------
  /// out[i] = Σ_u coeff[u]·srcs[u][i] for i in [begin, end), accumulated
  /// in double in ascending u. Callers chunking [0, dim) across threads
  /// must cut on kChunkAlign boundaries for bit-identical results.
  void (*weighted_accumulate)(const float* const* srcs, const double* coeff,
                              std::size_t num, float* out, std::size_t begin,
                              std::size_t end);
  /// Streaming continuation of weighted_accumulate:
  /// acc[i] += Σ_u coeff[u]·srcs[u][i] for i in [begin, end), where `acc`
  /// is the caller's running double accumulator. Folding one update list
  /// through this kernel in slot-order batches and finally casting acc to
  /// float reproduces weighted_accumulate's output bit-for-bit for ANY
  /// batch/edge grouping — each element sees the identical operation
  /// sequence, only parked in memory between batches. This is what makes
  /// hierarchical (edge-tree) weighted-mean aggregation exact against the
  /// flat path. Same kChunkAlign chunking contract as
  /// weighted_accumulate.
  void (*weighted_accumulate_partial)(const float* const* srcs,
                                      const double* coeff, std::size_t num,
                                      double* acc, std::size_t begin,
                                      std::size_t end);
  /// dx[i] = scale·(dy[i] − mean_dy − xh[i]·mean_dy_xhat), double math.
  void (*bn_backward_dx)(const float* dy, const float* xh, float* dx,
                         double scale, double mean_dy, double mean_dy_xhat,
                         std::size_t n);

  // -- update-compression codecs (src/compress) ----------------------------
  /// q[i] = clamp(rint(x[i]·inv_scale), −qmax, qmax), round-to-nearest-even
  /// in every lane (the int8/int4 linear quantizer; qmax = 127 or 7).
  /// Strictly element-wise, so any kChunkAlign-aligned split is exact.
  /// Non-finite x[i] deterministically clamp to −qmax on every ISA —
  /// encoders pre-screen finiteness, this only pins the kernel contract.
  void (*quantize_i8)(const float* x, signed char* q, float inv_scale,
                      int qmax, std::size_t n);
  /// x[i] = q[i]·scale (the matching dequantizer).
  void (*dequantize_i8)(const signed char* q, float* x, float scale,
                        std::size_t n);
  /// max |x[i]| over [0, n); 0 for n == 0. Exact for finite inputs on
  /// every table (max is order-independent); callers screen non-finite
  /// values themselves before deriving quantizer scales from this.
  float (*absmax)(const float* x, std::size_t n);
};

/// The always-available scalar table.
const KernelTable& scalar_kernels();

/// The SIMD table, or nullptr when the build did not compile one in.
const KernelTable* simd_kernels();

/// The active table used by all call sites.
const KernelTable& kernels();

/// True when a SIMD table was compiled into this binary.
bool simd_compiled();

/// True when the SIMD table is compiled in, the host passes the runtime
/// ISA check, and it has not been disabled.
bool simd_active();

/// Force-enables/disables the SIMD table at runtime (tests/benchmarks
/// compare both paths in one binary). Enabling is a no-op when no SIMD
/// table is compiled in or the host lacks the ISA. Not thread-safe
/// against concurrently running kernels; flip only between operations.
void set_simd_enabled(bool enabled);

}  // namespace fedclust::ops
