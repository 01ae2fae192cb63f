#include "ml/gbdt.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "support/ml_fixtures.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace autofeat::ml {
namespace {

TEST(FeatureBinnerTest, BinsAreMonotone) {
  Table t("t");
  t.AddColumn("x", Column::Doubles({5, 1, 3, 2, 4})).Abort();
  t.AddColumn("label", Column::Int64s({0, 1, 0, 1, 0})).Abort();
  Dataset ds = Dataset::FromTable(t, "label").MoveValue();
  FeatureBinner binner;
  binner.Fit(ds, 16);
  EXPECT_LE(binner.Bin(0, 1.0), binner.Bin(0, 2.0));
  EXPECT_LE(binner.Bin(0, 2.0), binner.Bin(0, 5.0));
  EXPECT_EQ(binner.Bin(0, -100.0), 0);
  EXPECT_EQ(binner.Bin(0, 100.0), binner.num_bins(0) - 1);
}

TEST(FeatureBinnerTest, ConstantFeatureSingleBin) {
  Table t("t");
  t.AddColumn("x", Column::Doubles({2, 2, 2})).Abort();
  t.AddColumn("label", Column::Int64s({0, 1, 0})).Abort();
  Dataset ds = Dataset::FromTable(t, "label").MoveValue();
  FeatureBinner binner;
  binner.Fit(ds, 16);
  EXPECT_EQ(binner.num_bins(0), 1u);
}

TEST(FeatureBinnerTest, MaxBinsRespected) {
  Dataset ds = MakeBlobs(1000, 1.0, 1);
  FeatureBinner binner;
  binner.Fit(ds, 32);
  for (size_t f = 0; f < ds.num_features(); ++f) {
    EXPECT_LE(binner.num_bins(f), 32u);
  }
}

TEST(GbdtTest, LearnsBlobs) {
  Dataset train = MakeBlobs(500, 1.5, 2);
  Dataset test = MakeBlobs(300, 1.5, 3);
  Gbdt model = Gbdt::LightGbmLike(42);
  EXPECT_GT(HoldoutAccuracy(model, train, test), 0.92);
}

TEST(GbdtTest, SolvesXor) {
  Dataset train = MakeXor(500, 4);
  Dataset test = MakeXor(300, 5);
  Gbdt model = Gbdt::LightGbmLike(42);
  EXPECT_GT(HoldoutAccuracy(model, train, test), 0.95);
}

TEST(GbdtTest, XgbPresetAlsoLearns) {
  Dataset train = MakeBlobs(500, 1.5, 6);
  Dataset test = MakeBlobs(300, 1.5, 7);
  Gbdt model = Gbdt::XgBoostLike(42);
  EXPECT_GT(HoldoutAccuracy(model, train, test), 0.92);
}

TEST(GbdtTest, PresetNames) {
  EXPECT_EQ(Gbdt::LightGbmLike().name(), "LightGBM-like");
  EXPECT_EQ(Gbdt::XgBoostLike().name(), "XGBoost-like");
}

TEST(GbdtTest, MoreRoundsImproveTrainingFit) {
  Dataset train = MakeBlobs(300, 0.8, 8);
  GbdtOptions few;
  few.num_rounds = 3;
  GbdtOptions many;
  many.num_rounds = 100;
  Gbdt small(few), large(many);
  ASSERT_TRUE(small.Fit(train).ok());
  ASSERT_TRUE(large.Fit(train).ok());
  double acc_small = Accuracy(train.labels(), small.PredictProbaAll(train));
  double acc_large = Accuracy(train.labels(), large.PredictProbaAll(train));
  EXPECT_GE(acc_large, acc_small);
}

TEST(GbdtTest, ImbalancedBaseScoreFollowsPrior) {
  // 90/10 class prior with uninformative features: predictions stay near
  // the prior, never the inverse.
  Rng rng(9);
  Table t("t");
  Column x(DataType::kDouble), label(DataType::kInt64);
  for (size_t i = 0; i < 300; ++i) {
    x.AppendDouble(rng.Normal(0, 1));
    label.AppendInt64(i % 10 == 0 ? 1 : 0);
  }
  t.AddColumn("x", std::move(x)).Abort();
  t.AddColumn("label", std::move(label)).Abort();
  Dataset ds = Dataset::FromTable(t, "label").MoveValue();
  GbdtOptions options;
  options.num_rounds = 10;
  Gbdt model(options);
  ASSERT_TRUE(model.Fit(ds).ok());
  double mean = 0;
  for (size_t r = 0; r < ds.num_rows(); ++r) {
    mean += model.PredictProba(ds, r);
  }
  mean /= static_cast<double>(ds.num_rows());
  EXPECT_LT(mean, 0.35);
}

TEST(GbdtTest, EmptyTrainingFails) {
  Gbdt model;
  EXPECT_FALSE(model.Fit(Dataset()).ok());
}

TEST(GbdtTest, DeterministicGivenSeed) {
  Dataset train = MakeBlobs(200, 1.0, 10);
  Gbdt a = Gbdt::LightGbmLike(5);
  Gbdt b = Gbdt::LightGbmLike(5);
  ASSERT_TRUE(a.Fit(train).ok());
  ASSERT_TRUE(b.Fit(train).ok());
  for (size_t r = 0; r < train.num_rows(); ++r) {
    EXPECT_DOUBLE_EQ(a.PredictProba(train, r), b.PredictProba(train, r));
  }
}

TEST(GbdtTest, PredictProbaAllMatchesPerRowBitwise) {
  Dataset train = MakeBlobs(400, 1.0, 13);
  Dataset test = MakeXor(250, 14);
  // Score a dataset the model was not binned on, with values beyond the
  // training range, so codes land in the outer bins too.
  test.AddFeature("extra", std::vector<double>(test.num_rows(), 1e9));
  for (Gbdt model : {Gbdt::LightGbmLike(3), Gbdt::XgBoostLike(3)}) {
    ASSERT_TRUE(model.Fit(train).ok());
    std::vector<double> all = model.PredictProbaAll(test);
    ASSERT_EQ(all.size(), test.num_rows());
    for (size_t r = 0; r < test.num_rows(); ++r) {
      ASSERT_EQ(std::bit_cast<uint64_t>(model.PredictProba(test, r)),
                std::bit_cast<uint64_t>(all[r]))
          << model.name() << " row " << r;
    }
  }
}

TEST(GbdtTest, RowOrderInvariant) {
  // Fixed-point gradient sums are exact, and the row partition is stable,
  // so the fitted model cannot depend on the order of the training rows.
  Dataset train = MakeBlobs(600, 0.6, 15);
  std::vector<size_t> reversed(train.num_rows());
  for (size_t i = 0; i < reversed.size(); ++i) {
    reversed[i] = reversed.size() - 1 - i;
  }
  Dataset train_reversed = train.TakeRows(reversed);
  Dataset test = MakeBlobs(300, 0.6, 16);
  Gbdt forward = Gbdt::LightGbmLike(21);
  Gbdt backward = Gbdt::LightGbmLike(21);
  ASSERT_TRUE(forward.Fit(train).ok());
  ASSERT_TRUE(backward.Fit(train_reversed).ok());
  std::vector<double> a = forward.PredictProbaAll(test);
  std::vector<double> b = backward.PredictProbaAll(test);
  for (size_t r = 0; r < test.num_rows(); ++r) {
    ASSERT_EQ(std::bit_cast<uint64_t>(a[r]), std::bit_cast<uint64_t>(b[r]))
        << "row " << r;
  }
}

TEST(GbdtTest, MaxBinsOutsideCodeRangeIsInvalid) {
  Dataset train = MakeBlobs(50, 1.0, 17);
  for (int max_bins : {-1, 0, 1, 257, 1000}) {
    GbdtOptions options;
    options.max_bins = max_bins;
    Gbdt model(options);
    Status status = model.Fit(train);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << max_bins;
  }
  for (int max_bins : {2, 256}) {
    GbdtOptions options;
    options.max_bins = max_bins;
    options.num_rounds = 3;
    Gbdt model(options);
    EXPECT_TRUE(model.Fit(train).ok()) << max_bins;
  }
}

TEST(GbdtTest, RowCountBeyond32BitIdsIsInvalid) {
  // A 2^32-row dataset does not fit in a test, so the shape check Fit runs
  // first is called directly.
  const size_t limit = size_t{1} << 32;
  EXPECT_EQ(Gbdt::CheckTrainingShape(limit, 64).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Gbdt::CheckTrainingShape(limit + 5, 64).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(Gbdt::CheckTrainingShape(limit - 1, 64).ok());
  EXPECT_EQ(Gbdt::CheckTrainingShape(0, 64).code(),
            StatusCode::kInvalidArgument);
}

TEST(GbdtTest, ImportancesFavorSignalFeatures) {
  Dataset train = MakeBlobs(500, 1.5, 11);
  Gbdt model = Gbdt::LightGbmLike(42);
  ASSERT_TRUE(model.Fit(train).ok());
  auto imp = model.FeatureImportances();
  ASSERT_EQ(imp.size(), 3u);
  EXPECT_GT(imp[0], imp[2]);
  EXPECT_GT(imp[1], imp[2]);
}

TEST(GbdtTest, NumTreesEqualsRounds) {
  Dataset train = MakeBlobs(100, 1.0, 12);
  GbdtOptions options;
  options.num_rounds = 17;
  Gbdt model(options);
  ASSERT_TRUE(model.Fit(train).ok());
  EXPECT_EQ(model.num_trees(), 17u);
}

TEST(RoundHalfAwayFromZeroTest, EqualsLlround) {
  auto expect_same = [](double x) {
    ASSERT_EQ(RoundHalfAwayFromZero(x), std::llround(x))
        << std::hexfloat << x;
  };
  for (double x : {0.0, -0.0, 0.5, -0.5, 1.5, -1.5, 2.5, -2.5,
                   0.49999999999999994, -0.49999999999999994, 1e-300}) {
    expect_same(x);
  }
  // Ties and their neighbours at every power of two the fraction can
  // reach, then past 2^52, where every double is an integer.
  for (int k = 0; k <= 61; ++k) {
    const double p = std::ldexp(1.0, k);
    for (double x : {p - 0.5, p + 0.5, p - 1.5, p + 1.5, p, p - 1.0}) {
      for (double v : {x, std::nextafter(x, 0.0), std::nextafter(x, 2 * x)}) {
        expect_same(v);
        expect_same(-v);
      }
    }
  }
  // Near 2^61, where a small training set puts b = 61.
  for (double x = std::ldexp(1.0, 61); x > std::ldexp(1.0, 60);
       x -= std::ldexp(1.0, 55)) {
    expect_same(x);
    expect_same(-x);
  }
  // Seeded draws over the whole range a gradient or hessian scales into.
  Rng rng(31);
  for (int i = 0; i < 1000000; ++i) {
    const double x = rng.Uniform(-1.0, 1.0) *
                     std::ldexp(1.0, static_cast<int>(rng.UniformIndex(62)));
    expect_same(x);
  }
}

TEST(GbdtTest, FitBinnedOnAPoolEqualsFit) {
  // Enough rows for chunked gradient passes and chunked root histograms;
  // the XGBoost preset subsamples rows, so out-of-bag rows walk the trees.
  Dataset train = MakeBlobs(20000, 0.4, 41);
  Dataset test = MakeBlobs(2000, 0.4, 42);
  for (Gbdt preset : {Gbdt::LightGbmLike(7), Gbdt::XgBoostLike(7)}) {
    GbdtOptions options = preset.options();
    options.num_rounds = 12;
    Gbdt reference(options);
    ASSERT_TRUE(reference.Fit(train).ok());
    const std::vector<double> expected = reference.PredictProbaAll(test);

    FeatureBinner binner;
    binner.Fit(train, options.max_bins);
    const auto train_codes = binner.BinAll(train);
    const auto test_codes = binner.BinAll(test);
    Gbdt::Codes train_ptrs, test_ptrs;
    for (const auto& c : train_codes) train_ptrs.push_back(c.data());
    for (const auto& c : test_codes) test_ptrs.push_back(c.data());
    for (size_t threads : {2, 4}) {
      ThreadPool pool(threads);
      Gbdt model(options);
      ASSERT_TRUE(
          model.FitBinned(binner, train_ptrs, train.labels(), &pool).ok());
      const std::vector<double> got =
          model.PredictProbaBinned(test_ptrs, test.num_rows(), &pool);
      ASSERT_EQ(got.size(), expected.size());
      for (size_t r = 0; r < got.size(); ++r) {
        ASSERT_EQ(std::bit_cast<uint64_t>(got[r]),
                  std::bit_cast<uint64_t>(expected[r]))
            << preset.name() << " threads " << threads << " row " << r;
      }
      EXPECT_EQ(model.FeatureImportances(), reference.FeatureImportances());
    }
  }
}

TEST(FeatureBinnerTest, BinColumnIsLowerBound) {
  // Sorted edge lists of every length up to 255 (some with repeats), probed
  // at each edge, between edges, beyond both ends, at infinities and NaN.
  Rng rng(44);
  for (size_t n = 0; n < 256; n += 1 + n / 8) {
    std::vector<double> edges(n);
    for (double& e : edges) e = std::floor(rng.Uniform(-50.0, 50.0));
    std::sort(edges.begin(), edges.end());
    std::vector<double> values = {-1e300, 1e300, std::nan(""),
                                  -HUGE_VAL, HUGE_VAL, 0.0, -0.0};
    for (double e : edges) {
      values.push_back(e);
      values.push_back(e + 0.5);
      values.push_back(std::nextafter(e, -1e9));
    }
    const std::vector<uint8_t> codes = FeatureBinner::BinColumn(edges, values);
    for (size_t i = 0; i < values.size(); ++i) {
      const auto want =
          std::lower_bound(edges.begin(), edges.end(), values[i]) -
          edges.begin();
      ASSERT_EQ(codes[i], want) << "n=" << n << " value " << values[i];
    }
  }
}

}  // namespace
}  // namespace autofeat::ml
