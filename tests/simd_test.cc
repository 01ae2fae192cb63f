// Differential tests for the SIMD kernel layer: every dispatched kernel is
// held against its scalar twin — bit-exact for the integer kernels
// (counting, min/max, hashing, gather), bounded-ULP for the floating-point
// log / entropy reduction. These tests are meaningful on every backend
// (on the scalar backend both sides are the same code; on AVX2/SSE2/NEON
// they pin the vector lanes to the reference semantics).

#include "util/simd.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace autofeat::simd {
namespace {

TEST(SimdLogTest, ExactAtOne) {
  double v = LogPositive(1.0);
  EXPECT_EQ(0.0, v);
  EXPECT_FALSE(std::signbit(v));
}

TEST(SimdLogTest, MatchesStdLogWithinUlps) {
  std::vector<double> inputs = {
      5e-324 * 1e16,  // well above subnormals
      1e-300, 1e-12,  0.1,  0.25, 0.5,
      0.7071067811865475,  // ~sqrt(2)/2, fold boundary
      0.9999999999999999, 1.0, 1.0000000000000002,
      1.4142135623730950,  // ~sqrt(2), fold boundary
      1.5, 2.0, 3.0, 10.0, 1e6, 1e12, 1e300};
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    inputs.push_back(std::exp(rng.Uniform(-700.0, 700.0)));
    inputs.push_back(rng.Uniform(1e-6, 1.0));  // probability regime
  }
  for (double x : inputs) {
    double got = LogPositive(x);
    double want = std::log(x);
    // ~4 ulp: |log(x)| >= ~1e-16 except right at 1, where both are tiny.
    double tol = std::max(std::abs(want) * 4e-16, 4e-16);
    EXPECT_NEAR(want, got, tol) << "x=" << x;
  }
}

TEST(SimdLogTest, BatchMatchesScalarLanes) {
  Rng rng(11);
  for (size_t n : {0, 1, 2, 3, 4, 5, 7, 8, 9, 31, 100}) {
    std::vector<double> x(n), out(n);
    for (size_t i = 0; i < n; ++i) x[i] = rng.Uniform(1e-9, 1e9);
    LogBatch(x.data(), out.data(), n);
    for (size_t i = 0; i < n; ++i) {
      double want = std::log(x[i]);
      EXPECT_NEAR(want, out[i], std::max(std::abs(want) * 4e-16, 4e-16));
    }
  }
}

TEST(SimdSumPLogPTest, SingleFullCountIsExactlyZero) {
  // One category holding every row: p = n/n = 1.0 exactly, entropy +0.0.
  std::vector<uint32_t> counts = {5};
  double h = SumPLogP(counts.data(), counts.size(), 5.0);
  EXPECT_EQ(0.0, h);
  EXPECT_FALSE(std::signbit(h));
  // Same with padding zeros on both sides of the vector width.
  std::vector<uint32_t> padded = {0, 0, 0, 7, 0, 0, 0, 0, 0};
  EXPECT_EQ(0.0, SumPLogP(padded.data(), padded.size(), 7.0));
}

TEST(SimdSumPLogPTest, MatchesScalarOracle) {
  Rng rng(13);
  for (size_t k : {1, 2, 3, 4, 5, 7, 8, 9, 63, 64, 65, 1000}) {
    for (int rep = 0; rep < 20; ++rep) {
      std::vector<uint32_t> counts(k);
      uint64_t n = 0;
      for (size_t i = 0; i < k; ++i) {
        // ~1/3 zero cells, to exercise the zero-lane blend.
        counts[i] = rng.Bernoulli(0.33)
                        ? 0
                        : static_cast<uint32_t>(rng.UniformInt(1, 10000));
        n += counts[i];
      }
      if (n == 0) continue;
      double dn = static_cast<double>(n);
      double got = SumPLogP(counts.data(), k, dn);
      double want = SumPLogPScalar(counts.data(), k, dn);
      EXPECT_NEAR(want, got, std::max(want, 1.0) * 1e-13);
    }
  }
}

TEST(SimdCountTest, CountPresentBitExact) {
  Rng rng(17);
  for (size_t n : {0, 1, 7, 8, 9, 64, 1000}) {
    std::vector<int> x(n);
    int min_x = 3;
    int range = 40;
    for (size_t i = 0; i < n; ++i) {
      x[i] = rng.Bernoulli(0.2) ? -1
                                : static_cast<int>(rng.UniformInt(
                                      min_x, min_x + range - 1));
    }
    size_t trash = static_cast<size_t>(range);
    std::vector<uint32_t> got(range + 1, 0), want(range + 1, 0);
    CountPresent(x.data(), n, min_x, trash, got.data());
    CountPresentScalar(x.data(), n, min_x, trash, want.data());
    EXPECT_EQ(want, got) << "n=" << n;
  }
}

TEST(SimdCountTest, CountJointPresentBitExact) {
  Rng rng(19);
  for (size_t n : {0, 1, 7, 8, 9, 64, 1000}) {
    std::vector<int> x(n), y(n);
    int min_x = -5, min_y = 2, kx = 9, ky = 13;
    for (size_t i = 0; i < n; ++i) {
      x[i] = rng.Bernoulli(0.15)
                 ? -1
                 : static_cast<int>(rng.UniformInt(min_x, min_x + kx - 1));
      y[i] = rng.Bernoulli(0.15)
                 ? -1
                 : static_cast<int>(rng.UniformInt(min_y, min_y + ky - 1));
    }
    size_t trash = static_cast<size_t>(kx) * static_cast<size_t>(ky);
    std::vector<uint32_t> got(trash + 1, 0), want(trash + 1, 0);
    CountJointPresent(x.data(), y.data(), n, min_x, min_y, ky, trash,
                      got.data());
    CountJointPresentScalar(x.data(), y.data(), n, min_x, min_y, ky, trash,
                            want.data());
    EXPECT_EQ(want, got) << "n=" << n;
  }
}

TEST(SimdMinMaxTest, MinMaxPresentBitExact) {
  Rng rng(23);
  for (size_t n : {0, 1, 7, 8, 9, 64, 1000}) {
    for (double missing_rate : {0.0, 0.3, 1.0}) {
      std::vector<int> x(n);
      for (size_t i = 0; i < n; ++i) {
        x[i] = rng.Bernoulli(missing_rate)
                   ? -1
                   : static_cast<int>(rng.UniformInt(-100, 100));
      }
      int got[2] = {INT32_MAX, INT32_MIN};
      int want[2] = {INT32_MAX, INT32_MIN};
      MinMaxPresent(x.data(), n, got);
      MinMaxPresentScalar(x.data(), n, want);
      EXPECT_EQ(want[0], got[0]);
      EXPECT_EQ(want[1], got[1]);
    }
  }
}

TEST(SimdMinMaxTest, PairMinMaxPresentBitExact) {
  Rng rng(29);
  for (size_t n : {0, 1, 7, 8, 9, 64, 1000}) {
    std::vector<int> x(n), y(n);
    for (size_t i = 0; i < n; ++i) {
      x[i] = rng.Bernoulli(0.2) ? -1
                                : static_cast<int>(rng.UniformInt(-50, 50));
      y[i] = rng.Bernoulli(0.2) ? -1
                                : static_cast<int>(rng.UniformInt(0, 30));
    }
    int got[4] = {INT32_MAX, INT32_MIN, INT32_MAX, INT32_MIN};
    int want[4] = {INT32_MAX, INT32_MIN, INT32_MAX, INT32_MIN};
    PairMinMaxPresent(x.data(), y.data(), n, got);
    PairMinMaxPresentScalar(x.data(), y.data(), n, want);
    for (int j = 0; j < 4; ++j) EXPECT_EQ(want[j], got[j]) << "j=" << j;
  }
}

TEST(SimdCountTest, CountNonZeroAndEqualBitExact) {
  Rng rng(31);
  for (size_t n : {0, 1, 7, 8, 9, 64, 1000}) {
    std::vector<uint32_t> v(n);
    for (size_t i = 0; i < n; ++i) {
      v[i] = rng.Bernoulli(0.4)
                 ? 0
                 : static_cast<uint32_t>(rng.UniformInt(0, 5));
    }
    EXPECT_EQ(CountNonZero32Scalar(v.data(), n), CountNonZero32(v.data(), n));
    for (uint32_t target : {0u, 3u, 0xFFFFFFFFu}) {
      EXPECT_EQ(CountEqualU32Scalar(v.data(), n, target),
                CountEqualU32(v.data(), n, target));
    }
  }
}

TEST(SimdMinHashTest, UpdateBitExact) {
  Rng rng(37);
  for (size_t num_hashes : {1, 2, 3, 4, 5, 7, 8, 9, 63, 64, 65}) {
    std::vector<uint64_t> got(num_hashes, ~uint64_t{0});
    std::vector<uint64_t> want(num_hashes, ~uint64_t{0});
    for (int v = 0; v < 50; ++v) {
      uint64_t base = rng.engine()();
      MinHashUpdate(base, got.data(), num_hashes);
      MinHashUpdateScalar(base, want.data(), num_hashes);
    }
    EXPECT_EQ(want, got) << "num_hashes=" << num_hashes;
  }
}

TEST(SimdGatherTest, GatherDoublesByRowBitExact) {
  Rng rng(41);
  const uint32_t kNoMatch = std::numeric_limits<uint32_t>::max();
  std::vector<double> src(512);
  for (double& v : src) v = rng.Normal();
  const double missing = std::numeric_limits<double>::quiet_NaN();
  for (size_t n : {0, 1, 3, 4, 5, 8, 9, 100, 1000}) {
    std::vector<uint32_t> rows(n);
    for (size_t i = 0; i < n; ++i) {
      rows[i] = rng.Bernoulli(0.25)
                    ? kNoMatch
                    : static_cast<uint32_t>(rng.UniformIndex(src.size()));
    }
    std::vector<double> got(n), want(n);
    GatherDoublesByRow(src.data(), rows.data(), n, kNoMatch, missing,
                       got.data());
    GatherDoublesByRowScalar(src.data(), rows.data(), n, kNoMatch, missing,
                             want.data());
    // Bitwise compare (NaN-safe).
    EXPECT_EQ(0, std::memcmp(want.data(), got.data(), n * sizeof(double)));
  }
}

TEST(SimdHistogramTest, AccumulateGhInt64MatchesReferenceAndSubtracts) {
  Rng rng(43);
  const size_t num_rows = 777;
  const size_t nbins = 64;
  std::vector<uint8_t> codes(num_rows);
  std::vector<int64_t> gh(2 * num_rows);
  for (size_t r = 0; r < num_rows; ++r) {
    codes[r] = static_cast<uint8_t>(rng.UniformIndex(nbins));
    // Fixed-point magnitudes as the GBDT uses them: |g|, h <= 2^52.
    gh[2 * r] = rng.UniformInt(-(int64_t{1} << 52), int64_t{1} << 52);
    gh[2 * r + 1] = rng.UniformInt(1, int64_t{1} << 52);
  }
  for (size_t n : {0, 1, 3, 4, 5, 100, 777}) {
    std::vector<uint32_t> rows(n);
    for (size_t i = 0; i < n; ++i) {
      rows[i] = static_cast<uint32_t>(rng.UniformIndex(num_rows));
    }
    std::vector<int64_t> got(2 * nbins, 0), want(2 * nbins, 0);
    AccumulateGh(codes.data(), gh.data(), rows.data(), n, got.data());
    AccumulateGhReference(codes.data(), gh.data(), rows.data(), n,
                          want.data());
    EXPECT_EQ(want, got) << "n=" << n;

    // Split the rows into a smaller and a larger child: the parent's
    // histogram minus the smaller child's is the larger child's, built
    // directly.
    const size_t cut = n / 3;
    std::vector<int64_t> smaller(2 * nbins, 0), larger(2 * nbins, 0);
    AccumulateGh(codes.data(), gh.data(), rows.data(), cut, smaller.data());
    AccumulateGh(codes.data(), gh.data(), rows.data() + cut, n - cut,
                 larger.data());
    for (size_t i = 0; i < got.size(); ++i) got[i] -= smaller[i];
    EXPECT_EQ(larger, got) << "n=" << n;
  }
}

TEST(SimdBackendTest, BackendNameIsKnown) {
  std::string b = kBackendName;
  EXPECT_TRUE(b == "avx2" || b == "sse2" || b == "neon" || b == "scalar") << b;
}

}  // namespace
}  // namespace autofeat::simd
