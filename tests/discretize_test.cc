#include "stats/discretize.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace autofeat {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

TEST(DefaultBinCountTest, SqrtRuleCappedAtTen) {
  EXPECT_EQ(DefaultBinCount(4), 2);
  EXPECT_EQ(DefaultBinCount(25), 5);
  EXPECT_EQ(DefaultBinCount(100), 10);
  EXPECT_EQ(DefaultBinCount(100000), 10);
  EXPECT_EQ(DefaultBinCount(1), 2);  // At least two bins.
}

TEST(EqualWidthTest, SplitsRangeEvenly) {
  std::vector<double> v{0.0, 0.25, 0.5, 0.75, 1.0};
  auto codes = DiscretizeEqualWidth(v, 4);
  EXPECT_EQ(codes, (std::vector<int>{0, 1, 2, 3, 3}));
}

TEST(EqualWidthTest, ConstantColumnSingleBin) {
  std::vector<double> v{2.0, 2.0, 2.0};
  auto codes = DiscretizeEqualWidth(v, 5);
  EXPECT_EQ(codes, (std::vector<int>{0, 0, 0}));
}

TEST(EqualWidthTest, NanGetsMissingBin) {
  std::vector<double> v{1.0, kNan, 2.0};
  auto codes = DiscretizeEqualWidth(v, 2);
  EXPECT_EQ(codes[1], kMissingBin);
  EXPECT_NE(codes[0], kMissingBin);
}

TEST(EqualFrequencyTest, BalancedBins) {
  std::vector<double> v;
  for (int i = 0; i < 100; ++i) v.push_back(static_cast<double>(i));
  auto codes = DiscretizeEqualFrequency(v, 4);
  std::vector<int> counts(4, 0);
  for (int c : codes) {
    ASSERT_GE(c, 0);
    ASSERT_LT(c, 4);
    ++counts[c];
  }
  for (int c : counts) EXPECT_EQ(c, 25);
}

TEST(EqualFrequencyTest, TiesStayTogether) {
  std::vector<double> v{1, 1, 1, 1, 2, 3};
  auto codes = DiscretizeEqualFrequency(v, 3);
  // All the 1s share a bin.
  EXPECT_EQ(codes[0], codes[1]);
  EXPECT_EQ(codes[1], codes[2]);
  EXPECT_EQ(codes[2], codes[3]);
}

TEST(EqualFrequencyTest, AllNan) {
  std::vector<double> v{kNan, kNan};
  auto codes = DiscretizeEqualFrequency(v, 3);
  EXPECT_EQ(codes, (std::vector<int>{kMissingBin, kMissingBin}));
}

TEST(EqualWidthTest, FewerThanOneBinMeansOneBin) {
  std::vector<double> v{0.0, 1.0, kNan, 2.0};
  const std::vector<int> one{0, 0, kMissingBin, 0};
  EXPECT_EQ(DiscretizeEqualWidth(v, 0), one);
  EXPECT_EQ(DiscretizeEqualWidth(v, -3), one);
}

TEST(EqualFrequencyTest, FewerThanOneBinMeansOneBin) {
  std::vector<double> v{3.0, 1.0, kNan, 2.0};
  const std::vector<int> one{0, 0, kMissingBin, 0};
  EXPECT_EQ(DiscretizeEqualFrequency(v, 0), one);
  EXPECT_EQ(DiscretizeEqualFrequency(v, -3), one);
}

// True if `order` lists every non-NaN row of `v` once, in ascending value
// order.
bool IsSortedPresentOrder(const std::vector<double>& v,
                          const std::vector<uint32_t>& order) {
  std::vector<uint32_t> rows = order;
  std::sort(rows.begin(), rows.end());
  std::vector<uint32_t> present;
  for (size_t i = 0; i < v.size(); ++i) {
    if (!std::isnan(v[i])) present.push_back(static_cast<uint32_t>(i));
  }
  if (rows != present) return false;
  for (size_t r = 1; r < order.size(); ++r) {
    if (v[order[r]] < v[order[r - 1]]) return false;
  }
  return true;
}

TEST(SortedPresentRowsTest, AscendingNanSkipped) {
  std::vector<double> v{2.0, kNan, -1.0, 2.0, 0.0, -0.0};
  std::vector<uint32_t> order = SortedPresentRows(v);
  EXPECT_TRUE(IsSortedPresentOrder(v, order));
  EXPECT_EQ(order.front(), 2u);
  EXPECT_TRUE(SortedPresentRows({}).empty());
  EXPECT_TRUE(SortedPresentRows({kNan, kNan}).empty());
}

TEST(SortedPresentRowsTest, ColumnsWithTiesZerosAndInfinities) {
  Rng rng(5);
  for (size_t n : {2u, 64u, 1000u, 2000u}) {
    std::vector<double> v(n);
    for (auto& x : v) {
      double u = rng.Uniform();
      x = u < 0.05   ? kNan
          : u < 0.1  ? -0.0
          : u < 0.15 ? 0.0
          : u < 0.17 ? std::numeric_limits<double>::infinity()
          : u < 0.19 ? -std::numeric_limits<double>::infinity()
          : u < 0.5  ? std::round(rng.Normal(0, 3))
                     : rng.Normal(0, 1e6);
    }
    EXPECT_TRUE(IsSortedPresentOrder(v, SortedPresentRows(v))) << "n=" << n;
  }
}

TEST(CodesFromValuesTest, FirstOccurrenceOrder) {
  std::vector<double> v{5.0, 3.0, 5.0, kNan, 7.0};
  auto codes = CodesFromValues(v);
  EXPECT_EQ(codes, (std::vector<int>{0, 1, 0, kMissingBin, 2}));
}

TEST(DistinctCodeCountTest, IgnoresMissing) {
  EXPECT_EQ(DistinctCodeCount({0, 1, 1, kMissingBin, 2}), 3u);
  EXPECT_EQ(DistinctCodeCount({kMissingBin}), 0u);
  EXPECT_EQ(DistinctCodeCount({}), 0u);
}

// Properties over random data: codes in range, monotone wrt values.
class DiscretizePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(DiscretizePropertyTest, CodesInRangeAndMonotone) {
  int bins = GetParam();
  Rng rng(bins);
  std::vector<double> v(500);
  for (auto& x : v) x = rng.Normal(0, 3);

  for (auto codes : {DiscretizeEqualWidth(v, bins),
                     DiscretizeEqualFrequency(v, bins)}) {
    for (size_t i = 0; i < v.size(); ++i) {
      ASSERT_GE(codes[i], 0);
      ASSERT_LT(codes[i], bins);
      for (size_t j = 0; j < v.size(); ++j) {
        if (v[i] < v[j]) {
          ASSERT_LE(codes[i], codes[j]);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Bins, DiscretizePropertyTest,
                         ::testing::Values(2, 3, 5, 10));

}  // namespace
}  // namespace autofeat
