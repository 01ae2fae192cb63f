// Module-level differential tests for the SIMD kernel rewrites: the public
// entry points (information measures, MinHash signatures, join gathers) are
// held against the scalar reference implementations they replaced.
// Integer-domain kernels must be bit-exact; the entropy measures go through
// floating-point summation whose lane order differs, so they compare with
// tight epsilons.

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "discovery/lsh_index.h"
#include "discovery/sketch_cache.h"
#include "relational/join_index.h"
#include "stats/discretize.h"
#include "stats/information.h"
#include "table/column.h"
#include "util/rng.h"

namespace autofeat {
namespace {

// Random code vector: `missing_rate` of kMissingBin, the rest uniform in
// [lo, lo + range).
std::vector<int> RandomCodes(Rng* rng, size_t n, int lo, int range,
                             double missing_rate) {
  std::vector<int> x(n);
  for (size_t i = 0; i < n; ++i) {
    x[i] = rng->Bernoulli(missing_rate)
               ? kMissingBin
               : static_cast<int>(rng->UniformInt(lo, lo + range - 1));
  }
  return x;
}

class InformationDifferentialTest : public ::testing::Test {
 protected:
  // Covers the dense path (small ranges, straddling zero), the dense-limit
  // boundary (63/64/65), and the hash fallback (wide and negative ranges).
  struct Shape {
    int lo;
    int range;
    double missing;
  };
  const std::vector<Shape> shapes_ = {
      {0, 3, 0.0},    {0, 8, 0.2},     {-5, 12, 0.1},  {5, 33, 0.3},
      {0, 63, 0.05},  {0, 64, 0.05},   {0, 65, 0.05},  {-1000, 400, 0.1},
      {100000, 9000, 0.2},
  };
  const std::vector<size_t> sizes_ = {0, 1, 7, 8, 9, 100, 1537};
};

TEST_F(InformationDifferentialTest, EntropyMatchesReference) {
  Rng rng(101);
  for (const Shape& s : shapes_) {
    for (size_t n : sizes_) {
      std::vector<int> x = RandomCodes(&rng, n, s.lo, s.range, s.missing);
      double got = Entropy(x);
      double want = reference::Entropy(x);
      EXPECT_NEAR(want, got, 1e-12)
          << "n=" << n << " lo=" << s.lo << " range=" << s.range;
    }
  }
}

TEST_F(InformationDifferentialTest, PairMeasuresMatchReference) {
  Rng rng(103);
  for (const Shape& sx : shapes_) {
    for (const Shape& sy : shapes_) {
      size_t n = 600;
      std::vector<int> x = RandomCodes(&rng, n, sx.lo, sx.range, sx.missing);
      std::vector<int> y = RandomCodes(&rng, n, sy.lo, sy.range, sy.missing);
      EXPECT_NEAR(reference::JointEntropy(x, y), JointEntropy(x, y), 1e-12);
      EXPECT_NEAR(reference::MutualInformation(x, y), MutualInformation(x, y),
                  1e-12);
      EXPECT_NEAR(reference::MutualInformationCorrected(x, y),
                  MutualInformationCorrected(x, y), 1e-12);
      EXPECT_NEAR(reference::SymmetricalUncertainty(x, y),
                  SymmetricalUncertainty(x, y), 1e-12);
    }
  }
}

TEST_F(InformationDifferentialTest, CorrelatedPairsMatchReference) {
  // Dependent codes (y a noisy function of x) — exercises joint tables with
  // strong diagonal structure rather than uniform fill.
  Rng rng(107);
  for (int k : {4, 16, 63}) {
    size_t n = 2000;
    std::vector<int> x(n), y(n);
    for (size_t i = 0; i < n; ++i) {
      x[i] = static_cast<int>(rng.UniformIndex(static_cast<size_t>(k)));
      y[i] = rng.Bernoulli(0.8)
                 ? x[i]
                 : static_cast<int>(rng.UniformIndex(static_cast<size_t>(k)));
      if (rng.Bernoulli(0.05)) x[i] = kMissingBin;
      if (rng.Bernoulli(0.05)) y[i] = kMissingBin;
    }
    EXPECT_NEAR(reference::MutualInformation(x, y), MutualInformation(x, y),
                1e-12);
    EXPECT_NEAR(reference::SymmetricalUncertainty(x, y),
                SymmetricalUncertainty(x, y), 1e-12);
  }
}

TEST_F(InformationDifferentialTest, ExactZeroEntropyCases) {
  // These are EXPECT_DOUBLE_EQ-level contracts from information_test: the
  // optimised path must keep them exact, not epsilon-close.
  EXPECT_DOUBLE_EQ(0.0, Entropy({}));
  EXPECT_DOUBLE_EQ(0.0, Entropy({3, 3, 3}));
  EXPECT_DOUBLE_EQ(0.0, Entropy({kMissingBin, kMissingBin}));
  EXPECT_DOUBLE_EQ(0.0, SymmetricalUncertainty({1, 1}, {2, 2}));
  // Constant column with a huge code value: falls into the dense path via
  // offsetting (range 1), same exact-zero contract.
  std::vector<int> constant(51, 1000000);
  EXPECT_DOUBLE_EQ(0.0, Entropy(constant));
}

TEST_F(InformationDifferentialTest, EntropyAgreesWithPairMachinery) {
  // The single-vector fast path (satellite fix) must agree with what
  // Entropy used to compute via ComputePairEntropies(x, x).
  Rng rng(109);
  for (const Shape& s : shapes_) {
    std::vector<int> x = RandomCodes(&rng, 913, s.lo, s.range, s.missing);
    EXPECT_NEAR(reference::Entropy(x), Entropy(x), 1e-12);
    // H(X, X) == H(X) — the identity the old implementation leaned on.
    EXPECT_NEAR(JointEntropy(x, x), Entropy(x), 1e-12);
  }
}

TEST(MinHashDifferentialTest, SignatureBitExact) {
  Rng rng(211);
  for (size_t num_values : {1, 2, 7, 100}) {
    for (size_t num_hashes : {1, 2, 3, 4, 5, 8, 64, 65}) {
      std::vector<std::string> values;
      for (size_t v = 0; v < num_values; ++v) {
        values.push_back("value_" +
                         std::to_string(rng.UniformInt(0, 1 << 20)));
      }
      ColumnSketch sketch =
          BuildColumnSketch(Column::Strings(values), /*max_sample=*/4096);
      MinHashSignature got = ComputeMinHashSignature(sketch, num_hashes);
      MinHashSignature want =
          ComputeMinHashSignatureReference(sketch, num_hashes);
      EXPECT_EQ(want.mins, got.mins)
          << "values=" << num_values << " hashes=" << num_hashes;
    }
  }
}

class GatherDifferentialTest : public ::testing::Test {
 protected:
  std::vector<uint32_t> RandomRows(Rng* rng, size_t n, size_t src_size,
                                   double miss_rate) {
    std::vector<uint32_t> rows(n);
    for (size_t i = 0; i < n; ++i) {
      rows[i] = rng->Bernoulli(miss_rate)
                    ? kNoMatchRow
                    : static_cast<uint32_t>(rng->UniformIndex(src_size));
    }
    return rows;
  }
};

TEST_F(GatherDifferentialTest, AllValidDoubleColumnBitExact) {
  Rng rng(223);
  std::vector<double> values(300);
  for (double& v : values) v = rng.Normal();
  Column src = Column::Doubles(values);
  ASSERT_TRUE(src.all_valid());
  for (size_t n : {0, 1, 3, 4, 5, 101, 1000}) {
    std::vector<uint32_t> rows = RandomRows(&rng, n, values.size(), 0.3);
    std::vector<double> got = GatherNumeric(src, rows);
    std::vector<double> want = GatherNumericReference(src, rows);
    ASSERT_EQ(want.size(), got.size());
    EXPECT_EQ(0, std::memcmp(want.data(), got.data(),
                             want.size() * sizeof(double)));
    EXPECT_EQ(GatherNullCountReference(src, rows), GatherNullCount(src, rows));
  }
}

TEST_F(GatherDifferentialTest, NullableAndTypedColumnsMatchReference) {
  Rng rng(227);
  const size_t src_size = 200;
  std::vector<double> dvals(src_size);
  std::vector<int64_t> ivals(src_size);
  std::vector<std::string> svals(src_size);
  std::vector<uint8_t> valid(src_size);
  for (size_t i = 0; i < src_size; ++i) {
    dvals[i] = rng.Normal();
    ivals[i] = rng.UniformInt(-5, 5);
    svals[i] = "s" + std::to_string(rng.UniformInt(0, 20));
    valid[i] = rng.Bernoulli(0.9) ? 1 : 0;
  }
  std::vector<Column> columns = {
      Column::Doubles(dvals, valid),
      Column::Int64s(ivals),
      Column::Int64s(ivals, valid),
      Column::Strings(svals),
      Column::Strings(svals, valid),
  };
  for (const Column& src : columns) {
    std::vector<uint32_t> rows = RandomRows(&rng, 500, src_size, 0.25);
    std::vector<double> got = GatherNumeric(src, rows);
    std::vector<double> want = GatherNumericReference(src, rows);
    ASSERT_EQ(want.size(), got.size());
    EXPECT_EQ(0, std::memcmp(want.data(), got.data(),
                             want.size() * sizeof(double)));
    EXPECT_EQ(GatherNullCountReference(src, rows), GatherNullCount(src, rows));
  }
}

}  // namespace
}  // namespace autofeat
