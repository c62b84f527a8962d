// Portable fixed-width f32 SIMD abstraction for the kernel layer.
//
// This header adapts to the INCLUDING translation unit's target flags:
//  * x86 compiled with -mavx2 -mfma       -> 8-wide AVX2/FMA vectors
//  * aarch64 (NEON is baseline)           -> 4-wide NEON vectors
//  * anything else                        -> 4-wide scalar emulation
//
// The build compiles the kernel bodies twice: kernels_scalar.cpp with the
// project's baseline flags (hand-written scalar loops, no dependence on
// this header's vector type) and kernels_simd.cpp with the ISA flags
// above (generic bodies written against this vector type). A one-time
// runtime check (simd::runtime_supported) gates dispatch into the SIMD
// translation unit, so a binary built with AVX2 kernels still runs
// correctly on a host without AVX2 — it just stays on the scalar table.
//
// Reductions carry double-precision accumulators (f64x) because the
// repo's scalar reductions accumulate in double (tensor.cpp): client
// updates have 1e5+ elements and float accumulation drifts enough to
// perturb aggregated models. widen()/narrow() convert one f32 vector
// into lo/hi double vectors and back.
//
// Every operation here is a pure lane-wise function of its inputs: the
// accumulation ORDER of any kernel built on top is fixed by the kernel's
// loop structure alone, never by thread count — the property the
// determinism harness (src/check/determinism.hpp) asserts per build.
#pragma once

#include <cstddef>

#if defined(__AVX2__) && defined(__FMA__)
#define FEDCLUST_SIMD_AVX2 1
#include <immintrin.h>
#elif defined(__aarch64__) && defined(__ARM_NEON)
#define FEDCLUST_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace fedclust::simd {

#if defined(FEDCLUST_SIMD_AVX2)

inline constexpr std::size_t kWidth = 8;
inline constexpr bool kNative = true;

struct f32x {
  __m256 v;
};
struct f64x {
  __m256d v;
};

inline f32x load(const float* p) { return {_mm256_loadu_ps(p)}; }
inline void store(float* p, f32x a) { _mm256_storeu_ps(p, a.v); }
inline f32x set1(float x) { return {_mm256_set1_ps(x)}; }
inline f32x zero() { return {_mm256_setzero_ps()}; }
inline f32x add(f32x a, f32x b) { return {_mm256_add_ps(a.v, b.v)}; }
inline f32x sub(f32x a, f32x b) { return {_mm256_sub_ps(a.v, b.v)}; }
inline f32x mul(f32x a, f32x b) { return {_mm256_mul_ps(a.v, b.v)}; }
inline f32x max(f32x a, f32x b) { return {_mm256_max_ps(a.v, b.v)}; }
/// a*b + c in a single rounding (FMA).
inline f32x fmadd(f32x a, f32x b, f32x c) {
  return {_mm256_fmadd_ps(a.v, b.v, c.v)};
}
/// Lanes of v, zeroed where x <= 0 (NaN lanes of x keep v, as the
/// scalar kernels do).
inline f32x zero_where_nonpos(f32x x, f32x v) {
  const __m256 mask = _mm256_cmp_ps(x.v, _mm256_setzero_ps(), _CMP_LE_OQ);
  return {_mm256_andnot_ps(mask, v.v)};
}

/// Horizontal sum in a fixed lane order (pairwise tree).
inline float hsum(f32x a) {
  const __m128 lo = _mm256_castps256_ps128(a.v);
  const __m128 hi = _mm256_extractf128_ps(a.v, 1);
  __m128 s = _mm_add_ps(lo, hi);
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
  return _mm_cvtss_f32(s);
}
inline float hmax(f32x a) {
  const __m128 lo = _mm256_castps256_ps128(a.v);
  const __m128 hi = _mm256_extractf128_ps(a.v, 1);
  __m128 s = _mm_max_ps(lo, hi);
  s = _mm_max_ps(s, _mm_movehl_ps(s, s));
  s = _mm_max_ss(s, _mm_shuffle_ps(s, s, 1));
  return _mm_cvtss_f32(s);
}

inline f64x dzero() { return {_mm256_setzero_pd()}; }
inline f64x dset1(double x) { return {_mm256_set1_pd(x)}; }
inline f64x dadd(f64x a, f64x b) { return {_mm256_add_pd(a.v, b.v)}; }
inline f64x dsub(f64x a, f64x b) { return {_mm256_sub_pd(a.v, b.v)}; }
inline f64x dmul(f64x a, f64x b) { return {_mm256_mul_pd(a.v, b.v)}; }
inline f64x dfmadd(f64x a, f64x b, f64x c) {
  return {_mm256_fmadd_pd(a.v, b.v, c.v)};
}
/// Splits one f32 vector into low/high double vectors.
inline void widen(f32x a, f64x& lo, f64x& hi) {
  lo = {_mm256_cvtps_pd(_mm256_castps256_ps128(a.v))};
  hi = {_mm256_cvtps_pd(_mm256_extractf128_ps(a.v, 1))};
}
/// Rounds lo/hi double vectors back to one f32 vector.
inline f32x narrow(f64x lo, f64x hi) {
  return {_mm256_set_m128(_mm256_cvtpd_ps(hi.v), _mm256_cvtpd_ps(lo.v))};
}
inline double dhsum(f64x a) {
  const __m128d lo = _mm256_castpd256_pd128(a.v);
  const __m128d hi = _mm256_extractf128_pd(a.v, 1);
  const __m128d s = _mm_add_pd(lo, hi);
  return _mm_cvtsd_f64(_mm_add_sd(s, _mm_unpackhi_pd(s, s)));
}

/// Loads/stores the kWidth doubles backing one f32x block's (lo, hi)
/// accumulator pair — the exact memory image widen()/narrow() map onto,
/// so a kernel can park its per-element double accumulators in a caller
/// buffer between batches without perturbing a single bit.
inline void dload2(const double* p, f64x& lo, f64x& hi) {
  lo = {_mm256_loadu_pd(p)};
  hi = {_mm256_loadu_pd(p + 4)};
}
inline void dstore2(double* p, f64x lo, f64x hi) {
  _mm256_storeu_pd(p, lo.v);
  _mm256_storeu_pd(p + 4, hi.v);
}

inline f32x abs(f32x a) {
  return {_mm256_andnot_ps(_mm256_set1_ps(-0.0f), a.v)};
}
/// Round to nearest, ties to even — the same rule scalar nearbyint()
/// applies under the default FP environment, so scalar and SIMD
/// quantizers agree bit-for-bit.
inline f32x round_nearest(f32x a) {
  return {_mm256_round_ps(a.v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC)};
}
/// clamp(v, lo, hi) with NaN lanes of v deterministically mapping to lo
/// (maxps/minps return the second operand when the first is NaN; every
/// backend mirrors that operand order).
inline f32x clamp(f32x v, f32x lo, f32x hi) {
  return {_mm256_min_ps(_mm256_max_ps(v.v, lo.v), hi.v)};
}
/// Converts kWidth integer-valued floats in [−128, 127] to int8 bytes.
inline void store_i8(signed char* p, f32x a) {
  const __m256i i32 = _mm256_cvtps_epi32(a.v);
  const __m128i i16 = _mm_packs_epi32(_mm256_castsi256_si128(i32),
                                      _mm256_extracti128_si256(i32, 1));
  const __m128i i8 = _mm_packs_epi16(i16, i16);
  _mm_storel_epi64(reinterpret_cast<__m128i*>(p), i8);
}
/// Sign-extends kWidth int8 bytes into one f32 vector.
inline f32x load_i8(const signed char* p) {
  const __m128i i8 =
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p));
  return {_mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(i8))};
}

inline const char* isa_name() { return "avx2+fma"; }

#elif defined(FEDCLUST_SIMD_NEON)

inline constexpr std::size_t kWidth = 4;
inline constexpr bool kNative = true;

struct f32x {
  float32x4_t v;
};
/// Double lanes come in pairs on NEON; f64x packs lo/hi float64x2_t so
/// one f64x accumulates a full f32x's worth of lanes.
struct f64x {
  float64x2_t lo, hi;
};

inline f32x load(const float* p) { return {vld1q_f32(p)}; }
inline void store(float* p, f32x a) { vst1q_f32(p, a.v); }
inline f32x set1(float x) { return {vdupq_n_f32(x)}; }
inline f32x zero() { return {vdupq_n_f32(0.0f)}; }
inline f32x add(f32x a, f32x b) { return {vaddq_f32(a.v, b.v)}; }
inline f32x sub(f32x a, f32x b) { return {vsubq_f32(a.v, b.v)}; }
inline f32x mul(f32x a, f32x b) { return {vmulq_f32(a.v, b.v)}; }
inline f32x max(f32x a, f32x b) { return {vmaxq_f32(a.v, b.v)}; }
inline f32x fmadd(f32x a, f32x b, f32x c) { return {vfmaq_f32(c.v, a.v, b.v)}; }
inline f32x zero_where_nonpos(f32x x, f32x v) {
  const uint32x4_t mask = vcleq_f32(x.v, vdupq_n_f32(0.0f));
  return {vreinterpretq_f32_u32(
      vbicq_u32(vreinterpretq_u32_f32(v.v), mask))};
}
inline float hsum(f32x a) {
  const float32x2_t s = vadd_f32(vget_low_f32(a.v), vget_high_f32(a.v));
  return vget_lane_f32(vpadd_f32(s, s), 0);
}
inline float hmax(f32x a) {
  const float32x2_t s = vmax_f32(vget_low_f32(a.v), vget_high_f32(a.v));
  return vget_lane_f32(vpmax_f32(s, s), 0);
}

inline f64x dzero() { return {vdupq_n_f64(0.0), vdupq_n_f64(0.0)}; }
inline f64x dset1(double x) { return {vdupq_n_f64(x), vdupq_n_f64(x)}; }
inline f64x dadd(f64x a, f64x b) {
  return {vaddq_f64(a.lo, b.lo), vaddq_f64(a.hi, b.hi)};
}
inline f64x dsub(f64x a, f64x b) {
  return {vsubq_f64(a.lo, b.lo), vsubq_f64(a.hi, b.hi)};
}
inline f64x dmul(f64x a, f64x b) {
  return {vmulq_f64(a.lo, b.lo), vmulq_f64(a.hi, b.hi)};
}
inline f64x dfmadd(f64x a, f64x b, f64x c) {
  return {vfmaq_f64(c.lo, a.lo, b.lo), vfmaq_f64(c.hi, a.hi, b.hi)};
}
inline void widen(f32x a, f64x& lo, f64x& hi) {
  lo = {vcvt_f64_f32(vget_low_f32(a.v)), vcvt_high_f64_f32(a.v)};
  // One f64x already holds all four lanes; hi mirrors lo zeroed so the
  // generic two-accumulator kernels stay width-agnostic.
  hi = {vdupq_n_f64(0.0), vdupq_n_f64(0.0)};
  (void)hi;
}
inline f32x narrow(f64x lo, f64x /*hi*/) {
  return {vcombine_f32(vcvt_f32_f64(lo.lo), vcvt_f32_f64(lo.hi))};
}
inline double dhsum(f64x a) {
  const float64x2_t s = vaddq_f64(a.lo, a.hi);
  return vgetq_lane_f64(s, 0) + vgetq_lane_f64(s, 1);
}

/// On NEON the lo vector already covers all kWidth lanes (see widen), so
/// only lo round-trips through memory; hi stays the dead zero accumulator
/// the width-agnostic kernel bodies expect.
inline void dload2(const double* p, f64x& lo, f64x& hi) {
  lo = {vld1q_f64(p), vld1q_f64(p + 2)};
  hi = dzero();
}
inline void dstore2(double* p, f64x lo, f64x /*hi*/) {
  vst1q_f64(p, lo.lo);
  vst1q_f64(p + 2, lo.hi);
}

inline f32x abs(f32x a) { return {vabsq_f32(a.v)}; }
/// Round to nearest, ties to even (FRINTN) — matches scalar nearbyint().
inline f32x round_nearest(f32x a) { return {vrndnq_f32(a.v)}; }
/// clamp(v, lo, hi); NaN lanes of v map to lo (maxnm/minnm prefer the
/// numeric operand, mirroring the AVX2/scalar operand-order contract).
inline f32x clamp(f32x v, f32x lo, f32x hi) {
  return {vminnmq_f32(vmaxnmq_f32(v.v, lo.v), hi.v)};
}
/// Converts kWidth integer-valued floats in [−128, 127] to int8 bytes.
inline void store_i8(signed char* p, f32x a) {
  const int32x4_t i32 = vcvtq_s32_f32(a.v);  // integral input: exact
  const int16x4_t i16 = vqmovn_s32(i32);
  const int8x8_t i8 = vqmovn_s16(vcombine_s16(i16, i16));
  signed char tmp[8];
  vst1_s8(tmp, i8);
  for (std::size_t i = 0; i < 4; ++i) p[i] = tmp[i];
}
/// Sign-extends kWidth int8 bytes into one f32 vector.
inline f32x load_i8(const signed char* p) {
  const signed char tmp[8] = {p[0], p[1], p[2], p[3], 0, 0, 0, 0};
  const int16x8_t i16 = vmovl_s8(vld1_s8(tmp));
  return {vcvtq_f32_s32(vmovl_s16(vget_low_s16(i16)))};
}

inline const char* isa_name() { return "neon"; }

#else  // scalar emulation

inline constexpr std::size_t kWidth = 4;
inline constexpr bool kNative = false;

struct f32x {
  float v[4];
};
struct f64x {
  double v[4];
};

inline f32x load(const float* p) { return {{p[0], p[1], p[2], p[3]}}; }
inline void store(float* p, f32x a) {
  for (std::size_t i = 0; i < 4; ++i) p[i] = a.v[i];
}
inline f32x set1(float x) { return {{x, x, x, x}}; }
inline f32x zero() { return {{0.0f, 0.0f, 0.0f, 0.0f}}; }
inline f32x add(f32x a, f32x b) {
  f32x r;
  for (std::size_t i = 0; i < 4; ++i) r.v[i] = a.v[i] + b.v[i];
  return r;
}
inline f32x sub(f32x a, f32x b) {
  f32x r;
  for (std::size_t i = 0; i < 4; ++i) r.v[i] = a.v[i] - b.v[i];
  return r;
}
inline f32x mul(f32x a, f32x b) {
  f32x r;
  for (std::size_t i = 0; i < 4; ++i) r.v[i] = a.v[i] * b.v[i];
  return r;
}
inline f32x max(f32x a, f32x b) {
  f32x r;
  for (std::size_t i = 0; i < 4; ++i) r.v[i] = a.v[i] > b.v[i] ? a.v[i] : b.v[i];
  return r;
}
inline f32x fmadd(f32x a, f32x b, f32x c) {
  f32x r;
  for (std::size_t i = 0; i < 4; ++i) r.v[i] = a.v[i] * b.v[i] + c.v[i];
  return r;
}
inline f32x zero_where_nonpos(f32x x, f32x v) {
  f32x r;
  for (std::size_t i = 0; i < 4; ++i) r.v[i] = x.v[i] <= 0.0f ? 0.0f : v.v[i];
  return r;
}
inline float hsum(f32x a) {
  return (a.v[0] + a.v[2]) + (a.v[1] + a.v[3]);
}
inline float hmax(f32x a) {
  const float m0 = a.v[0] > a.v[2] ? a.v[0] : a.v[2];
  const float m1 = a.v[1] > a.v[3] ? a.v[1] : a.v[3];
  return m0 > m1 ? m0 : m1;
}

inline f64x dzero() { return {{0.0, 0.0, 0.0, 0.0}}; }
inline f64x dset1(double x) { return {{x, x, x, x}}; }
inline f64x dadd(f64x a, f64x b) {
  f64x r;
  for (std::size_t i = 0; i < 4; ++i) r.v[i] = a.v[i] + b.v[i];
  return r;
}
inline f64x dsub(f64x a, f64x b) {
  f64x r;
  for (std::size_t i = 0; i < 4; ++i) r.v[i] = a.v[i] - b.v[i];
  return r;
}
inline f64x dmul(f64x a, f64x b) {
  f64x r;
  for (std::size_t i = 0; i < 4; ++i) r.v[i] = a.v[i] * b.v[i];
  return r;
}
inline f64x dfmadd(f64x a, f64x b, f64x c) {
  f64x r;
  for (std::size_t i = 0; i < 4; ++i) r.v[i] = a.v[i] * b.v[i] + c.v[i];
  return r;
}
inline void widen(f32x a, f64x& lo, f64x& hi) {
  for (std::size_t i = 0; i < 4; ++i) lo.v[i] = static_cast<double>(a.v[i]);
  hi = dzero();
}
inline f32x narrow(f64x lo, f64x /*hi*/) {
  f32x r;
  for (std::size_t i = 0; i < 4; ++i) r.v[i] = static_cast<float>(lo.v[i]);
  return r;
}
inline double dhsum(f64x a) {
  return (a.v[0] + a.v[2]) + (a.v[1] + a.v[3]);
}

inline void dload2(const double* p, f64x& lo, f64x& hi) {
  for (std::size_t i = 0; i < 4; ++i) lo.v[i] = p[i];
  hi = dzero();
}
inline void dstore2(double* p, f64x lo, f64x /*hi*/) {
  for (std::size_t i = 0; i < 4; ++i) p[i] = lo.v[i];
}

inline f32x abs(f32x a) {
  f32x r;
  for (std::size_t i = 0; i < 4; ++i) r.v[i] = __builtin_fabsf(a.v[i]);
  return r;
}
/// Round to nearest, ties to even (default FP environment).
inline f32x round_nearest(f32x a) {
  f32x r;
  for (std::size_t i = 0; i < 4; ++i) r.v[i] = __builtin_nearbyintf(a.v[i]);
  return r;
}
/// clamp(v, lo, hi); NaN lanes map to lo — the ternary's comparison is
/// false for NaN, the same operand-order rule the native backends use.
inline f32x clamp(f32x v, f32x lo, f32x hi) {
  f32x r;
  for (std::size_t i = 0; i < 4; ++i) {
    float t = v.v[i] > lo.v[i] ? v.v[i] : lo.v[i];
    r.v[i] = t < hi.v[i] ? t : hi.v[i];
  }
  return r;
}
/// Converts kWidth integer-valued floats in [−128, 127] to int8 bytes.
inline void store_i8(signed char* p, f32x a) {
  for (std::size_t i = 0; i < 4; ++i) {
    p[i] = static_cast<signed char>(static_cast<int>(a.v[i]));
  }
}
/// Sign-extends kWidth int8 bytes into one f32 vector.
inline f32x load_i8(const signed char* p) {
  f32x r;
  for (std::size_t i = 0; i < 4; ++i) r.v[i] = static_cast<float>(p[i]);
  return r;
}

inline const char* isa_name() { return "scalar"; }

#endif

/// One-time check that the host actually executes the ISA this TU was
/// compiled for. AVX2 kernels must not run on a pre-AVX2 host even if
/// they were compiled in.
inline bool runtime_supported() {
#if defined(FEDCLUST_SIMD_AVX2) && (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return true;  // NEON is architecturally baseline; scalar always works
#endif
}

}  // namespace fedclust::simd
