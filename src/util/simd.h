// Portable SIMD kernels for the scoring hot paths.
//
// One compile-time backend is selected for the whole build (see the
// AUTOFEAT_SIMD CMake option): AVX2, SSE2, NEON, or the portable scalar
// fallback. Every vectorised kernel ships with a `*Scalar` / `*Reference`
// twin that states the exact semantics in plain code; the differential test
// suites (tests/simd_test.cc, tests/kernels_test.cc) hold the two sides
// together — bit-exact for the integer kernels (counting, hashing, gather,
// fixed-point histograms), bounded-ULP for the floating-point entropy
// reduction.
//
// Dispatch matrix (which kernels are actually vectorised per backend):
//
//   kernel                     AVX2  SSE2  NEON  scalar
//   LogBatch / SumPLogP         4x    2x    2x     —
//   CountPresent/JointPresent   8x     —     —     —
//   MinMaxPresent (+Pair)       8x     —     —     —
//   MinHashUpdate               4x     —     —     —
//   GatherDoublesByRow          4x     —     —     —
//   CountEqualU32/CountNonZero  8x     —     —     —
//   AccumulateGh (int64)  (cache-conscious unrolled form on all backends)
//
// A "—" cell runs the scalar form; results stay correct, only the speed
// differs. SSE2 lacks the integer ISA the counting/hashing kernels need
// (mullo_epi32, cmpgt_epi64, gathers), and on NEON a 64-bit multiply has no
// vector form, so those backends vectorise only the entropy reduction — the
// kernel the scoring loop spends most of its time in.
//
// Determinism: integer kernels are bit-identical across all backends (the
// MinHash kernel feeds the DRG candidate list, which must not depend on the
// build's ISA). The entropy reduction is deterministic for a given build but
// may differ across backends in the last ulp (lane-order of the summation);
// all consumers compare entropies through epsilon tolerances.
//
// Domain note: the vector log expects positive *normal* doubles. Its only
// in-tree caller feeds probabilities c/n with c >= 1, which are >= 1/n and
// far above the subnormal range for any realistic row count.

#ifndef AUTOFEAT_UTIL_SIMD_H_
#define AUTOFEAT_UTIL_SIMD_H_

#include <cassert>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "util/rng.h"

#if defined(AUTOFEAT_SIMD_FORCE_SCALAR)
// CMake -DAUTOFEAT_SIMD=off: portable scalar everywhere.
#elif defined(__AVX2__)
#define AUTOFEAT_SIMD_AVX2 1
#include <immintrin.h>
#elif defined(__ARM_NEON) || defined(__ARM_NEON__)
#define AUTOFEAT_SIMD_NEON 1
#include <arm_neon.h>
#elif defined(__SSE2__) || defined(_M_X64)
#define AUTOFEAT_SIMD_SSE2 1
#include <emmintrin.h>
#endif

namespace autofeat::simd {

inline constexpr const char* kBackendName =
#if defined(AUTOFEAT_SIMD_AVX2)
    "avx2";
#elif defined(AUTOFEAT_SIMD_NEON)
    "neon";
#elif defined(AUTOFEAT_SIMD_SSE2)
    "sse2";
#else
    "scalar";
#endif

// ---- Scalar natural log (fdlibm-style) ------------------------------------
//
// The same reduction the vector paths use, in scalar form: exact at x == 1
// (returns +0.0, which the entropy kernels rely on for single-category
// columns), branch-light, and within ~2 ulp of std::log over the normal
// range. Remainder lanes of the vector kernels call this so a kernel's
// output does not depend on how its length rounds against the vector width.
inline double LogPositive(double x) {
  // x = 2^k * m with m in [sqrt(2)/2, sqrt(2)).
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  int64_t e = static_cast<int64_t>(bits >> 52) - 1023;
  uint64_t mant_bits =
      (bits & 0x000FFFFFFFFFFFFFULL) | 0x3FF0000000000000ULL;
  double m;
  std::memcpy(&m, &mant_bits, sizeof(m));
  constexpr double kSqrt2 = 1.41421356237309514547462185873883;
  if (m > kSqrt2) {
    m *= 0.5;
    e += 1;
  }
  double f = m - 1.0;
  double s = f / (2.0 + f);
  double z = s * s;
  // Horner form of the fdlibm log() minimax series in z = s^2.
  double r =
      z *
      (6.666666666666735130e-01 +
       z * (3.999999999940941908e-01 +
            z * (2.857142874366239149e-01 +
                 z * (2.222219843214978396e-01 +
                      z * (1.818357216161805012e-01 +
                           z * (1.531383769920937332e-01 +
                                z * 1.479819860511658591e-01))))));
  double hfsq = 0.5 * f * f;
  double k = static_cast<double>(e);
  constexpr double kLn2Hi = 6.93147180369123816490e-01;
  constexpr double kLn2Lo = 1.90821492927058770002e-10;
  return k * kLn2Hi - ((hfsq - (s * (hfsq + r) + k * kLn2Lo)) - f);
}

// ---- Scalar reference twins -----------------------------------------------

/// Plug-in entropy reduction over a dense count vector: sum over c > 0 of
/// -(c/n) * log(c/n). Uses std::log, making it an independent oracle for the
/// vectorised form. Counts must not exceed INT32_MAX (they are row counts).
inline double SumPLogPScalar(const uint32_t* counts, size_t k, double n) {
  double h = 0.0;
  for (size_t i = 0; i < k; ++i) {
    if (counts[i] == 0) continue;
    double p = static_cast<double>(counts[i]) / n;
    h -= p * std::log(p);
  }
  return h;
}

/// counts[x[i] - min_x] += 1 for present rows, counts[trash] += 1 for
/// missing ones (branch-free trash-slot form of masked counting).
inline void CountPresentScalar(const int* x, size_t n, int min_x,
                               size_t trash, uint32_t* counts) {
  for (size_t i = 0; i < n; ++i) {
    size_t idx = x[i] == -1 ? trash : static_cast<size_t>(x[i] - min_x);
    ++counts[idx];
  }
}

/// Joint form: counts[(x[i]-min_x)*ky + (y[i]-min_y)] for rows where both
/// sides are present, counts[trash] otherwise.
inline void CountJointPresentScalar(const int* x, const int* y, size_t n,
                                    int min_x, int min_y, int ky,
                                    size_t trash, uint32_t* counts) {
  for (size_t i = 0; i < n; ++i) {
    size_t idx = (x[i] == -1 || y[i] == -1)
                     ? trash
                     : static_cast<size_t>(x[i] - min_x) *
                               static_cast<size_t>(ky) +
                           static_cast<size_t>(y[i] - min_y);
    ++counts[idx];
  }
}

/// Min/max over present (!= -1) values. mm = {min, max}; untouched lanes
/// keep their initial values, so seed with {INT32_MAX, INT32_MIN} and detect
/// the all-missing case via mm[0] > mm[1].
inline void MinMaxPresentScalar(const int* x, size_t n, int mm[2]) {
  for (size_t i = 0; i < n; ++i) {
    if (x[i] == -1) continue;
    if (x[i] < mm[0]) mm[0] = x[i];
    if (x[i] > mm[1]) mm[1] = x[i];
  }
}

/// Pairwise-complete min/max: rows where either side is missing are skipped
/// entirely. mm = {min_x, max_x, min_y, max_y}, seeded as MinMaxPresent.
inline void PairMinMaxPresentScalar(const int* x, const int* y, size_t n,
                                    int mm[4]) {
  for (size_t i = 0; i < n; ++i) {
    if (x[i] == -1 || y[i] == -1) continue;
    if (x[i] < mm[0]) mm[0] = x[i];
    if (x[i] > mm[1]) mm[1] = x[i];
    if (y[i] < mm[2]) mm[2] = y[i];
    if (y[i] > mm[3]) mm[3] = y[i];
  }
}

inline size_t CountNonZero32Scalar(const uint32_t* v, size_t n) {
  size_t k = 0;
  for (size_t i = 0; i < n; ++i) k += (v[i] != 0);
  return k;
}

inline size_t CountEqualU32Scalar(const uint32_t* v, size_t n,
                                  uint32_t target) {
  size_t k = 0;
  for (size_t i = 0; i < n; ++i) k += (v[i] == target);
  return k;
}

/// mins[k] = min(mins[k], DeriveSeed(base, k)) for k in [0, num_hashes).
/// The oracle calls DeriveSeed directly; the vector form re-derives the
/// splitmix64 finaliser in 64-bit lanes and must stay bit-exact (the
/// signatures feed the DRG candidate list).
inline void MinHashUpdateScalar(uint64_t base, uint64_t* mins,
                                size_t num_hashes) {
  for (size_t k = 0; k < num_hashes; ++k) {
    uint64_t h = DeriveSeed(base, k);
    if (h < mins[k]) mins[k] = h;
  }
}

/// out[i] = rows[i] == no_match ? missing : src[rows[i]].
inline void GatherDoublesByRowScalar(const double* src, const uint32_t* rows,
                                     size_t n, uint32_t no_match,
                                     double missing, double* out) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = rows[i] == no_match ? missing : src[rows[i]];
  }
}

/// Fixed-point gradient/hessian histogram accumulation: for each
/// r = rows[i], hist[2*codes[r]] += gh[2*r] and hist[2*codes[r] + 1] +=
/// gh[2*r + 1], where gh holds each row's (gradient, hessian) pair. Integer
/// sums do not depend on the order rows are added in, so any summation
/// order, and parent-minus-sibling subtraction, gives the same histogram.
inline void AccumulateGhReference(const uint8_t* codes, const int64_t* gh,
                                  const uint32_t* rows, size_t n,
                                  int64_t* hist) {
  for (size_t i = 0; i < n; ++i) {
    size_t r = rows[i];
    int64_t* slot = hist + 2 * static_cast<size_t>(codes[r]);
    slot[0] += gh[2 * r];
    slot[1] += gh[2 * r + 1];
  }
}

// ---- Vector log + entropy reduction ---------------------------------------

#if defined(AUTOFEAT_SIMD_AVX2)

namespace detail {

// Four-lane fdlibm-style log; same reduction as LogPositive. Inputs must be
// positive normals.
inline __m256d Log4(__m256d x) {
  const __m256i kMantMask = _mm256_set1_epi64x(0x000FFFFFFFFFFFFFLL);
  const __m256i kOneBits = _mm256_set1_epi64x(0x3FF0000000000000LL);
  const __m256i kMagicBits = _mm256_set1_epi64x(0x4338000000000000LL);
  const __m256d kMagic = _mm256_set1_pd(6755399441055744.0);  // 1.5 * 2^52
  const __m256d kSqrt2 = _mm256_set1_pd(1.41421356237309514547462185873883);
  const __m256d kHalf = _mm256_set1_pd(0.5);
  const __m256d kOne = _mm256_set1_pd(1.0);
  const __m256d kTwo = _mm256_set1_pd(2.0);

  __m256i bits = _mm256_castpd_si256(x);
  // Unbiased exponent as a double via the 1.5*2^52 integer-in-mantissa trick
  // (AVX2 has no epi64 -> pd conversion).
  __m256i e64 = _mm256_sub_epi64(_mm256_srli_epi64(bits, 52),
                                 _mm256_set1_epi64x(1023));
  __m256d e = _mm256_sub_pd(
      _mm256_castsi256_pd(_mm256_add_epi64(e64, kMagicBits)), kMagic);
  __m256d m = _mm256_castsi256_pd(
      _mm256_or_si256(_mm256_and_si256(bits, kMantMask), kOneBits));
  // Fold m into [sqrt(2)/2, sqrt(2)): halve and bump the exponent where
  // m > sqrt(2).
  __m256d fold = _mm256_cmp_pd(m, kSqrt2, _CMP_GT_OQ);
  m = _mm256_blendv_pd(m, _mm256_mul_pd(m, kHalf), fold);
  __m256d k = _mm256_add_pd(e, _mm256_and_pd(fold, kOne));

  __m256d f = _mm256_sub_pd(m, kOne);
  __m256d s = _mm256_div_pd(f, _mm256_add_pd(kTwo, f));
  __m256d z = _mm256_mul_pd(s, s);
  __m256d r = _mm256_set1_pd(1.479819860511658591e-01);
  r = _mm256_add_pd(_mm256_mul_pd(r, z),
                    _mm256_set1_pd(1.531383769920937332e-01));
  r = _mm256_add_pd(_mm256_mul_pd(r, z),
                    _mm256_set1_pd(1.818357216161805012e-01));
  r = _mm256_add_pd(_mm256_mul_pd(r, z),
                    _mm256_set1_pd(2.222219843214978396e-01));
  r = _mm256_add_pd(_mm256_mul_pd(r, z),
                    _mm256_set1_pd(2.857142874366239149e-01));
  r = _mm256_add_pd(_mm256_mul_pd(r, z),
                    _mm256_set1_pd(3.999999999940941908e-01));
  r = _mm256_add_pd(_mm256_mul_pd(r, z),
                    _mm256_set1_pd(6.666666666666735130e-01));
  r = _mm256_mul_pd(r, z);
  __m256d hfsq = _mm256_mul_pd(kHalf, _mm256_mul_pd(f, f));
  const __m256d kLn2Hi = _mm256_set1_pd(6.93147180369123816490e-01);
  const __m256d kLn2Lo = _mm256_set1_pd(1.90821492927058770002e-10);
  // k*ln2_hi - ((hfsq - (s*(hfsq+r) + k*ln2_lo)) - f)
  __m256d t = _mm256_add_pd(_mm256_mul_pd(s, _mm256_add_pd(hfsq, r)),
                            _mm256_mul_pd(k, kLn2Lo));
  return _mm256_sub_pd(_mm256_mul_pd(k, kLn2Hi),
                       _mm256_sub_pd(_mm256_sub_pd(hfsq, t), f));
}

}  // namespace detail

inline void LogBatch(const double* x, double* out, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(out + i, detail::Log4(_mm256_loadu_pd(x + i)));
  }
  for (; i < n; ++i) out[i] = LogPositive(x[i]);
}

inline double SumPLogP(const uint32_t* counts, size_t k, double n) {
  const __m256d vn = _mm256_set1_pd(n);
  const __m256d kOne = _mm256_set1_pd(1.0);
  const __m256d kZero = _mm256_setzero_pd();
  __m256d acc = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= k; i += 4) {
    __m128i c32 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(counts + i));
    __m256d c = _mm256_cvtepi32_pd(c32);
    __m256d p = _mm256_div_pd(c, vn);
    // Zero-count lanes contribute exactly 0: substitute p = 1 (log 1 = 0)
    // instead of letting 0 * log(0) produce a NaN.
    __m256d zero = _mm256_cmp_pd(p, kZero, _CMP_EQ_OQ);
    p = _mm256_blendv_pd(p, kOne, zero);
    acc = _mm256_add_pd(acc, _mm256_mul_pd(p, detail::Log4(p)));
  }
  // Fixed-shape horizontal reduction: (l0+l2)+(l1+l3) — deterministic for a
  // given build.
  __m128d lo = _mm256_castpd256_pd128(acc);
  __m128d hi = _mm256_extractf128_pd(acc, 1);
  __m128d pair = _mm_add_pd(lo, hi);
  double sum = _mm_cvtsd_f64(pair) + _mm_cvtsd_f64(_mm_unpackhi_pd(pair, pair));
  for (; i < k; ++i) {
    if (counts[i] == 0) continue;
    double p = static_cast<double>(counts[i]) / n;
    sum += p * LogPositive(p);
  }
  return 0.0 - sum;
}

#elif defined(AUTOFEAT_SIMD_SSE2)

namespace detail {

inline __m128d Blend(__m128d a, __m128d b, __m128d mask) {
  return _mm_or_pd(_mm_and_pd(mask, b), _mm_andnot_pd(mask, a));
}

// Two-lane version of Log4 (see the AVX2 backend); SSE2 has no blendv, so
// masks combine through and/andnot.
inline __m128d Log2v(__m128d x) {
  const __m128i kMantMask = _mm_set1_epi64x(0x000FFFFFFFFFFFFFLL);
  const __m128i kOneBits = _mm_set1_epi64x(0x3FF0000000000000LL);
  const __m128i kMagicBits = _mm_set1_epi64x(0x4338000000000000LL);
  const __m128d kMagic = _mm_set1_pd(6755399441055744.0);
  const __m128d kSqrt2 = _mm_set1_pd(1.41421356237309514547462185873883);
  const __m128d kHalf = _mm_set1_pd(0.5);
  const __m128d kOne = _mm_set1_pd(1.0);
  const __m128d kTwo = _mm_set1_pd(2.0);

  __m128i bits = _mm_castpd_si128(x);
  __m128i e64 = _mm_sub_epi64(_mm_srli_epi64(bits, 52), _mm_set1_epi64x(1023));
  __m128d e = _mm_sub_pd(_mm_castsi128_pd(_mm_add_epi64(e64, kMagicBits)),
                         kMagic);
  __m128d m = _mm_castsi128_pd(
      _mm_or_si128(_mm_and_si128(bits, kMantMask), kOneBits));
  __m128d fold = _mm_cmpgt_pd(m, kSqrt2);
  m = Blend(m, _mm_mul_pd(m, kHalf), fold);
  __m128d k = _mm_add_pd(e, _mm_and_pd(fold, kOne));

  __m128d f = _mm_sub_pd(m, kOne);
  __m128d s = _mm_div_pd(f, _mm_add_pd(kTwo, f));
  __m128d z = _mm_mul_pd(s, s);
  __m128d r = _mm_set1_pd(1.479819860511658591e-01);
  r = _mm_add_pd(_mm_mul_pd(r, z), _mm_set1_pd(1.531383769920937332e-01));
  r = _mm_add_pd(_mm_mul_pd(r, z), _mm_set1_pd(1.818357216161805012e-01));
  r = _mm_add_pd(_mm_mul_pd(r, z), _mm_set1_pd(2.222219843214978396e-01));
  r = _mm_add_pd(_mm_mul_pd(r, z), _mm_set1_pd(2.857142874366239149e-01));
  r = _mm_add_pd(_mm_mul_pd(r, z), _mm_set1_pd(3.999999999940941908e-01));
  r = _mm_add_pd(_mm_mul_pd(r, z), _mm_set1_pd(6.666666666666735130e-01));
  r = _mm_mul_pd(r, z);
  __m128d hfsq = _mm_mul_pd(kHalf, _mm_mul_pd(f, f));
  const __m128d kLn2Hi = _mm_set1_pd(6.93147180369123816490e-01);
  const __m128d kLn2Lo = _mm_set1_pd(1.90821492927058770002e-10);
  __m128d t = _mm_add_pd(_mm_mul_pd(s, _mm_add_pd(hfsq, r)),
                         _mm_mul_pd(k, kLn2Lo));
  return _mm_sub_pd(_mm_mul_pd(k, kLn2Hi),
                    _mm_sub_pd(_mm_sub_pd(hfsq, t), f));
}

}  // namespace detail

inline void LogBatch(const double* x, double* out, size_t n) {
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    _mm_storeu_pd(out + i, detail::Log2v(_mm_loadu_pd(x + i)));
  }
  for (; i < n; ++i) out[i] = LogPositive(x[i]);
}

inline double SumPLogP(const uint32_t* counts, size_t k, double n) {
  const __m128d vn = _mm_set1_pd(n);
  const __m128d kOne = _mm_set1_pd(1.0);
  const __m128d kZero = _mm_setzero_pd();
  __m128d acc = _mm_setzero_pd();
  size_t i = 0;
  for (; i + 2 <= k; i += 2) {
    // Two uint32 counts -> two doubles (counts fit int32; see scalar twin).
    __m128i c32 = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(counts + i));
    __m128d c = _mm_cvtepi32_pd(c32);
    __m128d p = _mm_div_pd(c, vn);
    __m128d zero = _mm_cmpeq_pd(p, kZero);
    p = detail::Blend(p, kOne, zero);
    acc = _mm_add_pd(acc, _mm_mul_pd(p, detail::Log2v(p)));
  }
  double sum =
      _mm_cvtsd_f64(acc) + _mm_cvtsd_f64(_mm_unpackhi_pd(acc, acc));
  for (; i < k; ++i) {
    if (counts[i] == 0) continue;
    double p = static_cast<double>(counts[i]) / n;
    sum += p * LogPositive(p);
  }
  return 0.0 - sum;
}

#elif defined(AUTOFEAT_SIMD_NEON)

namespace detail {

// Two-lane NEON version of the same reduction (aarch64: has float64x2 and
// vector divide).
inline float64x2_t Log2v(float64x2_t x) {
  const uint64x2_t kMantMask = vdupq_n_u64(0x000FFFFFFFFFFFFFULL);
  const uint64x2_t kOneBits = vdupq_n_u64(0x3FF0000000000000ULL);
  const float64x2_t kSqrt2 = vdupq_n_f64(1.41421356237309514547462185873883);
  const float64x2_t kHalf = vdupq_n_f64(0.5);
  const float64x2_t kOne = vdupq_n_f64(1.0);
  const float64x2_t kTwo = vdupq_n_f64(2.0);

  uint64x2_t bits = vreinterpretq_u64_f64(x);
  int64x2_t e64 = vsubq_s64(
      vreinterpretq_s64_u64(vshrq_n_u64(bits, 52)), vdupq_n_s64(1023));
  float64x2_t e = vcvtq_f64_s64(e64);
  float64x2_t m = vreinterpretq_f64_u64(
      vorrq_u64(vandq_u64(bits, kMantMask), kOneBits));
  uint64x2_t fold = vcgtq_f64(m, kSqrt2);
  m = vbslq_f64(fold, vmulq_f64(m, kHalf), m);
  float64x2_t k =
      vaddq_f64(e, vbslq_f64(fold, kOne, vdupq_n_f64(0.0)));

  float64x2_t f = vsubq_f64(m, kOne);
  float64x2_t s = vdivq_f64(f, vaddq_f64(kTwo, f));
  float64x2_t z = vmulq_f64(s, s);
  float64x2_t r = vdupq_n_f64(1.479819860511658591e-01);
  r = vaddq_f64(vmulq_f64(r, z), vdupq_n_f64(1.531383769920937332e-01));
  r = vaddq_f64(vmulq_f64(r, z), vdupq_n_f64(1.818357216161805012e-01));
  r = vaddq_f64(vmulq_f64(r, z), vdupq_n_f64(2.222219843214978396e-01));
  r = vaddq_f64(vmulq_f64(r, z), vdupq_n_f64(2.857142874366239149e-01));
  r = vaddq_f64(vmulq_f64(r, z), vdupq_n_f64(3.999999999940941908e-01));
  r = vaddq_f64(vmulq_f64(r, z), vdupq_n_f64(6.666666666666735130e-01));
  r = vmulq_f64(r, z);
  float64x2_t hfsq = vmulq_f64(kHalf, vmulq_f64(f, f));
  const float64x2_t kLn2Hi = vdupq_n_f64(6.93147180369123816490e-01);
  const float64x2_t kLn2Lo = vdupq_n_f64(1.90821492927058770002e-10);
  float64x2_t t = vaddq_f64(vmulq_f64(s, vaddq_f64(hfsq, r)),
                            vmulq_f64(k, kLn2Lo));
  return vsubq_f64(vmulq_f64(k, kLn2Hi), vsubq_f64(vsubq_f64(hfsq, t), f));
}

}  // namespace detail

inline void LogBatch(const double* x, double* out, size_t n) {
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_f64(out + i, detail::Log2v(vld1q_f64(x + i)));
  }
  for (; i < n; ++i) out[i] = LogPositive(x[i]);
}

inline double SumPLogP(const uint32_t* counts, size_t k, double n) {
  const float64x2_t vn = vdupq_n_f64(n);
  const float64x2_t kOne = vdupq_n_f64(1.0);
  float64x2_t acc = vdupq_n_f64(0.0);
  size_t i = 0;
  for (; i + 2 <= k; i += 2) {
    uint32x2_t c32 = vld1_u32(counts + i);
    float64x2_t c = vcvtq_f64_u64(vmovl_u32(c32));
    float64x2_t p = vdivq_f64(c, vn);
    uint64x2_t zero = vceqq_f64(p, vdupq_n_f64(0.0));
    p = vbslq_f64(zero, kOne, p);
    acc = vaddq_f64(acc, vmulq_f64(p, detail::Log2v(p)));
  }
  double sum = vgetq_lane_f64(acc, 0) + vgetq_lane_f64(acc, 1);
  for (; i < k; ++i) {
    if (counts[i] == 0) continue;
    double p = static_cast<double>(counts[i]) / n;
    sum += p * LogPositive(p);
  }
  return 0.0 - sum;
}

#else  // scalar backend

inline void LogBatch(const double* x, double* out, size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = LogPositive(x[i]);
}

inline double SumPLogP(const uint32_t* counts, size_t k, double n) {
  double sum = 0.0;
  for (size_t i = 0; i < k; ++i) {
    if (counts[i] == 0) continue;
    double p = static_cast<double>(counts[i]) / n;
    sum += p * LogPositive(p);
  }
  return 0.0 - sum;
}

#endif

// ---- Integer kernels (AVX2-vectorised, scalar elsewhere) ------------------

#if defined(AUTOFEAT_SIMD_AVX2)

inline void CountPresent(const int* x, size_t n, int min_x, size_t trash,
                         uint32_t* counts) {
  const __m256i kMissing = _mm256_set1_epi32(-1);
  const __m256i kMin = _mm256_set1_epi32(min_x);
  const __m256i kTrash = _mm256_set1_epi32(static_cast<int>(trash));
  alignas(32) int idx[8];
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256i vx = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i));
    __m256i missing = _mm256_cmpeq_epi32(vx, kMissing);
    __m256i v = _mm256_sub_epi32(vx, kMin);
    v = _mm256_blendv_epi8(v, kTrash, missing);
    _mm256_store_si256(reinterpret_cast<__m256i*>(idx), v);
    for (int j = 0; j < 8; ++j) ++counts[static_cast<size_t>(idx[j])];
  }
  if (i < n) CountPresentScalar(x + i, n - i, min_x, trash, counts);
}

inline void CountJointPresent(const int* x, const int* y, size_t n, int min_x,
                              int min_y, int ky, size_t trash,
                              uint32_t* counts) {
  const __m256i kMissing = _mm256_set1_epi32(-1);
  const __m256i kMinX = _mm256_set1_epi32(min_x);
  const __m256i kMinY = _mm256_set1_epi32(min_y);
  const __m256i kKy = _mm256_set1_epi32(ky);
  const __m256i kTrash = _mm256_set1_epi32(static_cast<int>(trash));
  alignas(32) int idx[8];
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256i vx = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i));
    __m256i vy = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(y + i));
    __m256i missing = _mm256_or_si256(_mm256_cmpeq_epi32(vx, kMissing),
                                      _mm256_cmpeq_epi32(vy, kMissing));
    __m256i v = _mm256_add_epi32(
        _mm256_mullo_epi32(_mm256_sub_epi32(vx, kMinX), kKy),
        _mm256_sub_epi32(vy, kMinY));
    v = _mm256_blendv_epi8(v, kTrash, missing);
    _mm256_store_si256(reinterpret_cast<__m256i*>(idx), v);
    for (int j = 0; j < 8; ++j) ++counts[static_cast<size_t>(idx[j])];
  }
  if (i < n) {
    CountJointPresentScalar(x + i, y + i, n - i, min_x, min_y, ky, trash,
                            counts);
  }
}

inline void MinMaxPresent(const int* x, size_t n, int mm[2]) {
  const __m256i kMissing = _mm256_set1_epi32(-1);
  __m256i vmin = _mm256_set1_epi32(INT32_MAX);
  __m256i vmax = _mm256_set1_epi32(INT32_MIN);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256i vx = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i));
    __m256i missing = _mm256_cmpeq_epi32(vx, kMissing);
    vmin = _mm256_min_epi32(
        vmin, _mm256_blendv_epi8(vx, _mm256_set1_epi32(INT32_MAX), missing));
    vmax = _mm256_max_epi32(
        vmax, _mm256_blendv_epi8(vx, _mm256_set1_epi32(INT32_MIN), missing));
  }
  alignas(32) int lanes[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), vmin);
  for (int j = 0; j < 8; ++j) mm[0] = lanes[j] < mm[0] ? lanes[j] : mm[0];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), vmax);
  for (int j = 0; j < 8; ++j) mm[1] = lanes[j] > mm[1] ? lanes[j] : mm[1];
  if (i < n) MinMaxPresentScalar(x + i, n - i, mm);
}

inline void PairMinMaxPresent(const int* x, const int* y, size_t n,
                              int mm[4]) {
  const __m256i kMissing = _mm256_set1_epi32(-1);
  const __m256i kIntMax = _mm256_set1_epi32(INT32_MAX);
  const __m256i kIntMin = _mm256_set1_epi32(INT32_MIN);
  __m256i min_x = kIntMax, max_x = kIntMin, min_y = kIntMax, max_y = kIntMin;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256i vx = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i));
    __m256i vy = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(y + i));
    __m256i missing = _mm256_or_si256(_mm256_cmpeq_epi32(vx, kMissing),
                                      _mm256_cmpeq_epi32(vy, kMissing));
    min_x = _mm256_min_epi32(min_x, _mm256_blendv_epi8(vx, kIntMax, missing));
    max_x = _mm256_max_epi32(max_x, _mm256_blendv_epi8(vx, kIntMin, missing));
    min_y = _mm256_min_epi32(min_y, _mm256_blendv_epi8(vy, kIntMax, missing));
    max_y = _mm256_max_epi32(max_y, _mm256_blendv_epi8(vy, kIntMin, missing));
  }
  alignas(32) int lanes[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), min_x);
  for (int j = 0; j < 8; ++j) mm[0] = lanes[j] < mm[0] ? lanes[j] : mm[0];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), max_x);
  for (int j = 0; j < 8; ++j) mm[1] = lanes[j] > mm[1] ? lanes[j] : mm[1];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), min_y);
  for (int j = 0; j < 8; ++j) mm[2] = lanes[j] < mm[2] ? lanes[j] : mm[2];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), max_y);
  for (int j = 0; j < 8; ++j) mm[3] = lanes[j] > mm[3] ? lanes[j] : mm[3];
  if (i < n) PairMinMaxPresentScalar(x + i, y + i, n - i, mm);
}

inline size_t CountNonZero32(const uint32_t* v, size_t n) {
  size_t k = 0;
  size_t i = 0;
  const __m256i kZero = _mm256_setzero_si256();
  for (; i + 8 <= n; i += 8) {
    __m256i c = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + i));
    int zero_mask =
        _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpeq_epi32(c, kZero)));
    k += 8 - static_cast<size_t>(__builtin_popcount(
                 static_cast<unsigned>(zero_mask)));
  }
  return k + CountNonZero32Scalar(v + i, n - i);
}

inline size_t CountEqualU32(const uint32_t* v, size_t n, uint32_t target) {
  size_t k = 0;
  size_t i = 0;
  const __m256i kTarget = _mm256_set1_epi32(static_cast<int>(target));
  for (; i + 8 <= n; i += 8) {
    __m256i c = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + i));
    int eq_mask =
        _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpeq_epi32(c, kTarget)));
    k += static_cast<size_t>(
        __builtin_popcount(static_cast<unsigned>(eq_mask)));
  }
  return k + CountEqualU32Scalar(v + i, n - i, target);
}

namespace detail {

// 64x64 -> low-64 multiply by a constant; AVX2 has no mullo_epi64 (that is
// AVX-512DQ), so assemble it from 32x32 -> 64 pieces.
inline __m256i Mul64(__m256i a, uint64_t b_const) {
  const __m256i b = _mm256_set1_epi64x(static_cast<long long>(b_const));
  __m256i lo = _mm256_mul_epu32(a, b);
  __m256i cross =
      _mm256_add_epi64(_mm256_mul_epu32(_mm256_srli_epi64(a, 32), b),
                       _mm256_mul_epu32(a, _mm256_srli_epi64(b, 32)));
  return _mm256_add_epi64(lo, _mm256_slli_epi64(cross, 32));
}

// Unsigned 64-bit min via the sign-bias trick (AVX2 compares are signed).
inline __m256i MinU64(__m256i a, __m256i b) {
  const __m256i bias = _mm256_set1_epi64x(
      static_cast<long long>(0x8000000000000000ULL));
  __m256i gt = _mm256_cmpgt_epi64(_mm256_xor_si256(a, bias),
                                  _mm256_xor_si256(b, bias));
  return _mm256_blendv_epi8(a, b, gt);
}

}  // namespace detail

inline void MinHashUpdate(uint64_t base, uint64_t* mins, size_t num_hashes) {
  const __m256i vbase = _mm256_set1_epi64x(static_cast<long long>(base));
  const uint64_t kGamma = 0x9E3779B97F4A7C15ULL;
  // Streams k, k+1, k+2, k+3: offsets gamma*(k+1..k+4) advance by 4*gamma.
  __m256i off = _mm256_set_epi64x(static_cast<long long>(kGamma * 4),
                                  static_cast<long long>(kGamma * 3),
                                  static_cast<long long>(kGamma * 2),
                                  static_cast<long long>(kGamma * 1));
  const __m256i step = _mm256_set1_epi64x(static_cast<long long>(kGamma * 4));
  size_t k = 0;
  for (; k + 4 <= num_hashes; k += 4) {
    __m256i z = _mm256_add_epi64(vbase, off);
    z = detail::Mul64(_mm256_xor_si256(z, _mm256_srli_epi64(z, 30)),
                      0xBF58476D1CE4E5B9ULL);
    z = detail::Mul64(_mm256_xor_si256(z, _mm256_srli_epi64(z, 27)),
                      0x94D049BB133111EBULL);
    z = _mm256_xor_si256(z, _mm256_srli_epi64(z, 31));
    __m256i cur =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(mins + k));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(mins + k),
                        detail::MinU64(cur, z));
    off = _mm256_add_epi64(off, step);
  }
  if (k < num_hashes) {
    for (; k < num_hashes; ++k) {
      uint64_t h = DeriveSeed(base, k);
      if (h < mins[k]) mins[k] = h;
    }
  }
}

inline void GatherDoublesByRow(const double* src, const uint32_t* rows,
                               size_t n, uint32_t no_match, double missing,
                               double* out) {
  const __m128i kNoMatch = _mm_set1_epi32(static_cast<int>(no_match));
  const __m256d kMissing = _mm256_set1_pd(missing);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m128i idx = _mm_loadu_si128(reinterpret_cast<const __m128i*>(rows + i));
    __m128i bad = _mm_cmpeq_epi32(idx, kNoMatch);
    // Gather mask: all-ones lanes load, masked-out lanes keep `missing` and
    // touch no memory (so the no-match sentinel never dereferences).
    __m256d allow = _mm256_castsi256_pd(_mm256_andnot_si256(
        _mm256_cvtepi32_epi64(bad), _mm256_set1_epi64x(-1)));
    __m256d g = _mm256_mask_i32gather_pd(kMissing, src, idx, allow, 8);
    _mm256_storeu_pd(out + i, g);
  }
  if (i < n) {
    GatherDoublesByRowScalar(src, rows + i, n - i, no_match, missing,
                             out + i);
  }
}

#else  // non-AVX2 backends: scalar forms

inline void CountPresent(const int* x, size_t n, int min_x, size_t trash,
                         uint32_t* counts) {
  CountPresentScalar(x, n, min_x, trash, counts);
}

inline void CountJointPresent(const int* x, const int* y, size_t n, int min_x,
                              int min_y, int ky, size_t trash,
                              uint32_t* counts) {
  CountJointPresentScalar(x, y, n, min_x, min_y, ky, trash, counts);
}

inline void MinMaxPresent(const int* x, size_t n, int mm[2]) {
  MinMaxPresentScalar(x, n, mm);
}

inline void PairMinMaxPresent(const int* x, const int* y, size_t n,
                              int mm[4]) {
  PairMinMaxPresentScalar(x, y, n, mm);
}

inline size_t CountNonZero32(const uint32_t* v, size_t n) {
  return CountNonZero32Scalar(v, n);
}

inline size_t CountEqualU32(const uint32_t* v, size_t n, uint32_t target) {
  return CountEqualU32Scalar(v, n, target);
}

inline void MinHashUpdate(uint64_t base, uint64_t* mins, size_t num_hashes) {
  MinHashUpdateScalar(base, mins, num_hashes);
}

inline void GatherDoublesByRow(const double* src, const uint32_t* rows,
                               size_t n, uint32_t no_match, double missing,
                               double* out) {
  GatherDoublesByRowScalar(src, rows, n, no_match, missing, out);
}

#endif

// ---- Histogram accumulation (all backends) --------------------------------

/// Cache-conscious form of AccumulateGhReference: a row's (g, h) pair and
/// a bin's two accumulators each share a cache line, and the 4-row unroll
/// lets the row/code loads run ahead of the dependent adds. Scatter-add has
/// loop-carried dependences through memory, so this kernel is ILP- and
/// cache-bound, not vector-width-bound, on every backend.
inline void AccumulateGh(const uint8_t* codes, const int64_t* gh,
                         const uint32_t* rows, size_t n, int64_t* hist) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    size_t r0 = rows[i], r1 = rows[i + 1], r2 = rows[i + 2], r3 = rows[i + 3];
    int64_t* s0 = hist + 2 * static_cast<size_t>(codes[r0]);
    s0[0] += gh[2 * r0];
    s0[1] += gh[2 * r0 + 1];
    int64_t* s1 = hist + 2 * static_cast<size_t>(codes[r1]);
    s1[0] += gh[2 * r1];
    s1[1] += gh[2 * r1 + 1];
    int64_t* s2 = hist + 2 * static_cast<size_t>(codes[r2]);
    s2[0] += gh[2 * r2];
    s2[1] += gh[2 * r2 + 1];
    int64_t* s3 = hist + 2 * static_cast<size_t>(codes[r3]);
    s3[0] += gh[2 * r3];
    s3[1] += gh[2 * r3 + 1];
  }
  for (; i < n; ++i) {
    size_t r = rows[i];
    int64_t* slot = hist + 2 * static_cast<size_t>(codes[r]);
    slot[0] += gh[2 * r];
    slot[1] += gh[2 * r + 1];
  }
}

}  // namespace autofeat::simd

#endif  // AUTOFEAT_UTIL_SIMD_H_
