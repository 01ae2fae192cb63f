#include "ml/gbdt.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "support/ml_fixtures.h"

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

}  // namespace
}  // namespace autofeat::ml
