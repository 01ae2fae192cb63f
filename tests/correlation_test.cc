#include "stats/correlation.h"

#include <cmath>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace autofeat {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

TEST(PearsonTest, PerfectPositive) {
  std::vector<double> x{1, 2, 3, 4};
  std::vector<double> y{2, 4, 6, 8};
  EXPECT_NEAR(PearsonCorrelation(x, y), 1.0, 1e-12);
}

TEST(PearsonTest, PerfectNegative) {
  std::vector<double> x{1, 2, 3};
  std::vector<double> y{3, 2, 1};
  EXPECT_NEAR(PearsonCorrelation(x, y), -1.0, 1e-12);
}

TEST(PearsonTest, ConstantIsZero) {
  EXPECT_DOUBLE_EQ(PearsonCorrelation({1, 1, 1}, {1, 2, 3}), 0.0);
}

TEST(PearsonTest, TooFewPairsIsZero) {
  EXPECT_DOUBLE_EQ(PearsonCorrelation({1}, {2}), 0.0);
  EXPECT_DOUBLE_EQ(PearsonCorrelation({}, {}), 0.0);
}

TEST(PearsonTest, SkipsNanPairs) {
  std::vector<double> x{1, kNan, 2, 3};
  std::vector<double> y{2, 100, 4, 6};
  EXPECT_NEAR(PearsonCorrelation(x, y), 1.0, 1e-12);
}

TEST(PearsonTest, InfiniteCellsCountAsMissing) {
  // inf - inf = NaN would otherwise poison the sums, and std::clamp passes
  // NaN through; ±inf rows are skipped like NaN rows instead.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> x{1, kInf, 2, 3, -kInf};
  std::vector<double> y{2, 5, 4, 6, 1};
  EXPECT_NEAR(PearsonCorrelation(x, y), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(PearsonCorrelation(y, x), PearsonCorrelation(x, y));
  EXPECT_DOUBLE_EQ(PearsonCorrelation({kInf, kInf, 1}, {1, 2, 3}), 0.0);
}

TEST(PearsonTest, KnownValue) {
  std::vector<double> x{1, 2, 3, 4, 5};
  std::vector<double> y{2, 1, 4, 3, 5};
  // Hand-computed: cov = 1.6, sx = sy = sqrt(2) -> r = 0.8.
  EXPECT_NEAR(PearsonCorrelation(x, y), 0.8, 1e-12);
}

TEST(RankTest, SimpleRanks) {
  std::vector<double> v{30, 10, 20};
  auto r = FractionalRanks(v);
  EXPECT_DOUBLE_EQ(r[0], 3.0);
  EXPECT_DOUBLE_EQ(r[1], 1.0);
  EXPECT_DOUBLE_EQ(r[2], 2.0);
}

TEST(RankTest, TiesGetAverageRank) {
  std::vector<double> v{5, 5, 1};
  auto r = FractionalRanks(v);
  EXPECT_DOUBLE_EQ(r[0], 2.5);
  EXPECT_DOUBLE_EQ(r[1], 2.5);
  EXPECT_DOUBLE_EQ(r[2], 1.0);
}

TEST(RankTest, NanKeepsNanRank) {
  std::vector<double> v{2, kNan, 1};
  auto r = FractionalRanks(v);
  EXPECT_TRUE(std::isnan(r[1]));
  EXPECT_DOUBLE_EQ(r[0], 2.0);
  EXPECT_DOUBLE_EQ(r[2], 1.0);
}

TEST(SpearmanTest, MonotoneNonlinearIsPerfect) {
  std::vector<double> x{1, 2, 3, 4, 5};
  std::vector<double> y;
  for (double v : x) y.push_back(std::exp(v));  // Nonlinear but monotone.
  EXPECT_NEAR(SpearmanCorrelation(x, y), 1.0, 1e-12);
  for (auto& v : y) v = -v;
  EXPECT_NEAR(SpearmanCorrelation(x, y), -1.0, 1e-12);
}

TEST(SpearmanTest, InvariantUnderMonotoneTransform) {
  Rng rng(1);
  std::vector<double> x(100), y(100);
  for (size_t i = 0; i < 100; ++i) {
    x[i] = rng.Normal(0, 1);
    y[i] = x[i] + rng.Normal(0, 0.5);
  }
  double base = SpearmanCorrelation(x, y);
  std::vector<double> cubed = x;
  for (auto& v : cubed) v = v * v * v;  // Strictly increasing transform.
  EXPECT_NEAR(SpearmanCorrelation(cubed, y), base, 1e-9);
}

TEST(SpearmanTest, PairwiseNanMasking) {
  // The NaN row must be excluded from *both* rank computations.
  std::vector<double> x{1, 2, kNan, 4};
  std::vector<double> y{1, 2, 3, 4};
  EXPECT_NEAR(SpearmanCorrelation(x, y), 1.0, 1e-12);
}

TEST(SpearmanTest, SymmetricInArguments) {
  Rng rng(2);
  std::vector<double> x(60), y(60);
  for (size_t i = 0; i < 60; ++i) {
    x[i] = rng.Uniform();
    y[i] = rng.Uniform();
  }
  EXPECT_NEAR(SpearmanCorrelation(x, y), SpearmanCorrelation(y, x), 1e-12);
}

// Property sweep: |r| bounded by 1 and decreasing with noise.
class CorrelationNoiseTest : public ::testing::TestWithParam<double> {};

TEST_P(CorrelationNoiseTest, BoundedAndDecaying) {
  double noise = GetParam();
  Rng rng(7);
  std::vector<double> x(500), y_clean(500), y_noisy(500);
  for (size_t i = 0; i < 500; ++i) {
    x[i] = rng.Normal(0, 1);
    y_clean[i] = x[i] + rng.Normal(0, noise);
    y_noisy[i] = x[i] + rng.Normal(0, noise + 2.0);
  }
  for (auto metric : {PearsonCorrelation, SpearmanCorrelation}) {
    double clean = metric(x, y_clean);
    double noisy = metric(x, y_noisy);
    EXPECT_LE(std::abs(clean), 1.0);
    EXPECT_LE(std::abs(noisy), 1.0);
    EXPECT_GT(clean, noisy);
  }
}

INSTANTIATE_TEST_SUITE_P(NoiseLevels, CorrelationNoiseTest,
                         ::testing::Values(0.1, 0.5, 1.0));

}  // namespace
}  // namespace autofeat
