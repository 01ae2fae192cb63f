// SIMD kernels for the scoring hot paths.
//
// Each kernel has at most two forms. Where AVX2 pays for itself, the kernel
// has an AVX2 body, compiled when the build targets AVX2 (`__AVX2__`; the
// top-level CMakeLists adds -mavx2 on x86-64 when the compiler accepts it),
// and one portable `*Scalar` twin that states its exact semantics in plain
// code and is what every other build runs. Every other kernel is one plain
// loop. The AVX2 kernels, and why each stays (lake_dense ledger runs, where
// turning all of them into plain loops cost 27% of discover_ms):
//
//   SumPLogP             the entropy reduction of every MI/SU score; the
//                        vector log is most of the dense pair path.
//   CountJointPresent,   the contingency table and its bounds on the dense
//   PairMinMaxPresent    MI/SU pair path (stats/information.cc).
//   MinHashUpdate        LSH signatures, which the serving set-up builds
//                        for every column of the lake.
//
// CountPresent, MinMaxPresent, CountNonZero32, CountEqualU32 and
// GatherDoublesByRow are plain loops: their vector bodies made no ledger
// workload faster beyond its run-to-run spread. AccumulateGh (scatter-add:
// its loop-carried dependences through memory make it cache-bound) is one
// too.
//
// Determinism: every kernel returns the same bits on every build. The
// integer kernels are exact by construction (the MinHash kernel feeds the
// DRG candidate list, which must not depend on the build's ISA). The
// entropy is specified by SumPLogPScalar: LogPositive over four lanes,
// combined as (l0+l2)+(l1+l3), then the tail in order; Log4 rounds every
// operation as LogPositive does, so the AVX2 body matches it bit for bit.
// tests/simd_test.cc holds each AVX2 body to its twin bit for bit and pins
// the entropy of fixed count vectors to tools/hash_reference.py.
//
// Domain note: the log expects positive *normal* doubles. Its only in-tree
// caller feeds probabilities c/n with c >= 1, which are >= 1/n and far above
// the subnormal range for any realistic row count.

#ifndef AUTOFEAT_UTIL_SIMD_H_
#define AUTOFEAT_UTIL_SIMD_H_

#include <cstdint>
#include <cstring>

#include "util/rng.h"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace autofeat::simd {

// ---- Scalar natural log (fdlibm-style) ------------------------------------
//
// Exact at x == 1 (returns +0.0, which the entropy kernels rely on for
// single-category columns), branch-light, and within ~2 ulp of std::log over
// the normal range. Log4 is the same sequence of operations in four lanes,
// except that it forms hfsq as 0.5*(f*f): scaling by 0.5 is exact for
// normal doubles, so both orders give the same bits.
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

// ---- Portable twins of the AVX2 kernels -----------------------------------

/// Plug-in entropy over a dense count vector: -(sum over c > 0 of
/// (c/n) * LogPositive(c/n)), summed in the AVX2 lane order: four partial
/// sums over the full blocks of four cells, combined as (l0+l2)+(l1+l3),
/// then the tail cells in order. A zero cell would add +0, so skipping it
/// leaves the bits unchanged. Counts must not exceed INT32_MAX (they are
/// row counts).
inline double SumPLogPScalar(const uint32_t* counts, size_t k, double n) {
  double lane[4] = {0.0, 0.0, 0.0, 0.0};
  size_t i = 0;
  for (; i + 4 <= k; i += 4) {
    for (size_t j = 0; j < 4; ++j) {
      if (counts[i + j] == 0) continue;
      double p = static_cast<double>(counts[i + j]) / n;
      lane[j] += p * LogPositive(p);
    }
  }
  double sum = (lane[0] + lane[2]) + (lane[1] + lane[3]);
  for (; i < k; ++i) {
    if (counts[i] == 0) continue;
    double p = static_cast<double>(counts[i]) / n;
    sum += p * LogPositive(p);
  }
  return 0.0 - sum;
}

/// Joint form of masked counting: counts[(x[i]-min_x)*ky + (y[i]-min_y)]
/// for rows where both sides are present, counts[trash] otherwise.
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

/// mins[k] = min(mins[k], DeriveSeed(base, k)) for k in [0, num_hashes).
/// The vector form re-derives the splitmix64 finaliser in 64-bit lanes.
inline void MinHashUpdateScalar(uint64_t base, uint64_t* mins,
                                size_t num_hashes) {
  for (size_t k = 0; k < num_hashes; ++k) {
    uint64_t h = DeriveSeed(base, k);
    if (h < mins[k]) mins[k] = h;
  }
}

// ---- AVX2 kernels -----------------------------------------------------------

#if defined(__AVX2__)

namespace detail {

// Four-lane LogPositive, rounding every operation as it does. Inputs must
// be positive normals.
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
  // Fixed-shape horizontal reduction: (l0+l2)+(l1+l3).
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
  for (; k < num_hashes; ++k) {
    uint64_t h = DeriveSeed(base, k);
    if (h < mins[k]) mins[k] = h;
  }
}

#else  // portable build: the twins are the kernels

inline double SumPLogP(const uint32_t* counts, size_t k, double n) {
  return SumPLogPScalar(counts, k, n);
}

inline void CountJointPresent(const int* x, const int* y, size_t n, int min_x,
                              int min_y, int ky, size_t trash,
                              uint32_t* counts) {
  CountJointPresentScalar(x, y, n, min_x, min_y, ky, trash, counts);
}

inline void PairMinMaxPresent(const int* x, const int* y, size_t n,
                              int mm[4]) {
  PairMinMaxPresentScalar(x, y, n, mm);
}

inline void MinHashUpdate(uint64_t base, uint64_t* mins, size_t num_hashes) {
  MinHashUpdateScalar(base, mins, num_hashes);
}

#endif

// ---- Plain-loop kernels (every build) ---------------------------------------

/// counts[x[i] - min_x] += 1 for present rows, counts[trash] += 1 for
/// missing ones (branch-free trash-slot form of masked counting).
inline void CountPresent(const int* x, size_t n, int min_x, size_t trash,
                         uint32_t* counts) {
  for (size_t i = 0; i < n; ++i) {
    size_t idx = x[i] == -1 ? trash : static_cast<size_t>(x[i] - min_x);
    ++counts[idx];
  }
}

/// Min/max over present (!= -1) values. mm = {min, max}; untouched lanes
/// keep their initial values, so seed with {INT32_MAX, INT32_MIN} and detect
/// the all-missing case via mm[0] > mm[1].
inline void MinMaxPresent(const int* x, size_t n, int mm[2]) {
  for (size_t i = 0; i < n; ++i) {
    if (x[i] == -1) continue;
    if (x[i] < mm[0]) mm[0] = x[i];
    if (x[i] > mm[1]) mm[1] = x[i];
  }
}

inline size_t CountNonZero32(const uint32_t* v, size_t n) {
  size_t k = 0;
  for (size_t i = 0; i < n; ++i) k += (v[i] != 0);
  return k;
}

inline size_t CountEqualU32(const uint32_t* v, size_t n, uint32_t target) {
  size_t k = 0;
  for (size_t i = 0; i < n; ++i) k += (v[i] == target);
  return k;
}

/// out[i] = rows[i] == no_match ? missing : src[rows[i]].
inline void GatherDoublesByRow(const double* src, const uint32_t* rows,
                               size_t n, uint32_t no_match, double missing,
                               double* out) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = rows[i] == no_match ? missing : src[rows[i]];
  }
}

/// Fixed-point gradient/hessian histogram accumulation: for each
/// r = rows[i], hist[2*codes[r]] += gh[2*r] and hist[2*codes[r] + 1] +=
/// gh[2*r + 1], where gh holds each row's (gradient, hessian) pair. A row's
/// (g, h) pair and a bin's two accumulators each share a cache line.
/// Integer sums do not depend on the order rows are added in, so any
/// summation order, and parent-minus-sibling subtraction, gives the same
/// histogram. A 4-row unrolled form did not beat this loop
/// (bench/kernels `hist_gh_simd`).
inline void AccumulateGh(const uint8_t* codes, const int64_t* gh,
                         const uint32_t* rows, size_t n, int64_t* hist) {
  for (size_t i = 0; i < n; ++i) {
    size_t r = rows[i];
    int64_t* slot = hist + 2 * static_cast<size_t>(codes[r]);
    slot[0] += gh[2 * r];
    slot[1] += gh[2 * r + 1];
  }
}

}  // namespace autofeat::simd

#endif  // AUTOFEAT_UTIL_SIMD_H_
