#include "fs/redundancy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "stats/discretize.h"
#include "util/rng.h"

namespace autofeat {
namespace {

// Builds (x, y, duplicate-of-x, noise) code vectors for J-score tests.
struct CodeFixture {
  std::vector<int> label;
  std::vector<int> informative;
  std::vector<int> duplicate;
  std::vector<int> fresh;          // independent second view of the label
  std::vector<int> complementary;  // xor structure: only CMI sees it
  std::vector<int> noise;

  explicit CodeFixture(size_t n = 1200, uint64_t seed = 1) {
    Rng rng(seed);
    label.resize(n);
    informative.resize(n);
    duplicate.resize(n);
    fresh.resize(n);
    complementary.resize(n);
    noise.resize(n);
    for (size_t i = 0; i < n; ++i) {
      label[i] = static_cast<int>(i % 2);
      // Informative: noisy copy of the label.
      informative[i] =
          rng.Bernoulli(0.2) ? static_cast<int>(rng.UniformInt(0, 1))
                             : label[i];
      duplicate[i] = informative[i];
      // Fresh: another noisy copy with *independent* noise — carries label
      // information that `informative` does not already have.
      fresh[i] = rng.Bernoulli(0.2) ? static_cast<int>(rng.UniformInt(0, 1))
                                    : label[i];
      // Complementary: informative about the label only where
      // `informative` errs (xor-ish; rewarded by conditional-MI terms).
      complementary[i] =
          rng.Bernoulli(0.3) ? static_cast<int>(rng.UniformInt(0, 1))
                             : label[i] ^ informative[i];
      noise[i] = static_cast<int>(rng.UniformInt(0, 3));
    }
  }
};

class RedundancyKindTest : public ::testing::TestWithParam<RedundancyKind> {};

TEST_P(RedundancyKindTest, EmptySelectedSetReturnsRelevance) {
  CodeFixture fix;
  RedundancyOptions options;
  options.kind = GetParam();
  double j = RedundancyScore(fix.informative, fix.label, {}, options);
  EXPECT_GT(j, 0.1);
}

TEST_P(RedundancyKindTest, ExactDuplicateScoresBelowFresh) {
  CodeFixture fix;
  RedundancyOptions options;
  options.kind = GetParam();
  std::vector<std::vector<int>> selected{fix.informative};
  double j_duplicate =
      RedundancyScore(fix.duplicate, fix.label, selected, options);
  double j_fresh = RedundancyScore(fix.informative, fix.label, {}, options);
  EXPECT_LT(j_duplicate, j_fresh);
}

TEST_P(RedundancyKindTest, NoiseScoresAtMostEpsilon) {
  CodeFixture fix;
  RedundancyOptions options;
  options.kind = GetParam();
  std::vector<std::vector<int>> selected{fix.informative};
  double j = RedundancyScore(fix.noise, fix.label, selected, options);
  EXPECT_LT(j, 0.01);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, RedundancyKindTest,
    ::testing::Values(RedundancyKind::kMifs, RedundancyKind::kMrmr,
                      RedundancyKind::kCife, RedundancyKind::kJmi,
                      RedundancyKind::kCmim),
    [](const auto& info) { return RedundancyKindName(info.param); });

TEST(RedundancyTest, MrmrDuplicateRejectedFreshAccepted) {
  CodeFixture fix;
  RedundancyOptions options;
  options.kind = RedundancyKind::kMrmr;
  std::vector<std::vector<int>> selected{fix.informative};
  EXPECT_LE(RedundancyScore(fix.duplicate, fix.label, selected, options), 0.0);
  EXPECT_GT(RedundancyScore(fix.fresh, fix.label, selected, options), 0.0);
}

TEST(RedundancyTest, MrmrBlindToPurelyComplementaryFeatures) {
  // The xor-structured feature has ~zero *marginal* MI with the label, so
  // MRMR (lambda = 0) cannot accept it — the very limitation that motivates
  // the conditional-MI criteria (CIFE/JMI/CMIM) in §V-D.
  CodeFixture fix;
  std::vector<std::vector<int>> selected{fix.informative};
  RedundancyOptions mrmr;
  mrmr.kind = RedundancyKind::kMrmr;
  EXPECT_LE(RedundancyScore(fix.complementary, fix.label, selected, mrmr),
            0.01);
  RedundancyOptions cmim;
  cmim.kind = RedundancyKind::kCmim;
  RedundancyOptions cife;
  cife.kind = RedundancyKind::kCife;
  // The conditional criteria score it strictly higher than MRMR does.
  EXPECT_GT(RedundancyScore(fix.complementary, fix.label, selected, cife),
            RedundancyScore(fix.complementary, fix.label, selected, mrmr));
}

TEST(RedundancyTest, ConditionalTermRewardsComplementarity) {
  // CIFE adds lambda * I(Xj;Xk|Y): a complementary feature should score
  // higher under CIFE than under MIFS with beta = 1.
  CodeFixture fix;
  std::vector<std::vector<int>> selected{fix.informative};
  RedundancyOptions cife;
  cife.kind = RedundancyKind::kCife;
  RedundancyOptions mifs;
  mifs.kind = RedundancyKind::kMifs;
  mifs.mifs_beta = 1.0;
  EXPECT_GT(RedundancyScore(fix.complementary, fix.label, selected, cife),
            RedundancyScore(fix.complementary, fix.label, selected, mifs));
}

TEST(RedundancyTest, MrmrPenaltyShrinksWithSelectedSetSize) {
  // MRMR divides the redundancy sum by |S|: adding unrelated noise
  // features to S must not increase the penalty on a candidate.
  CodeFixture fix;
  RedundancyOptions options;
  options.kind = RedundancyKind::kMrmr;
  std::vector<std::vector<int>> small{fix.informative};
  std::vector<std::vector<int>> large{fix.informative, fix.noise};
  double j_small =
      RedundancyScore(fix.duplicate, fix.label, small, options);
  double j_large =
      RedundancyScore(fix.duplicate, fix.label, large, options);
  EXPECT_GT(j_large, j_small);
}

TEST(SelectedFeatureSetTest, AddAndContains) {
  SelectedFeatureSet s;
  EXPECT_EQ(s.size(), 0u);
  s.Add("a", std::make_shared<const std::vector<int>>(std::vector<int>{0, 1}));
  EXPECT_TRUE(s.Contains("a"));
  EXPECT_FALSE(s.Contains("b"));
  EXPECT_EQ(s.size(), 1u);
}

TEST(SelectNonRedundantTest, ScreensAgainstSelectedAndEachOther) {
  CodeFixture fix;
  Table t("t");
  auto to_col = [&](const std::vector<int>& codes) {
    Column c(DataType::kInt64);
    for (int v : codes) c.AppendInt64(v);
    return c;
  };
  t.AddColumn("informative", to_col(fix.informative)).Abort();
  t.AddColumn("duplicate", to_col(fix.duplicate)).Abort();
  t.AddColumn("noise", to_col(fix.noise)).Abort();
  t.AddColumn("label", to_col(fix.label)).Abort();
  auto view = FeatureView::FromTable(t, "label");
  ASSERT_TRUE(view.ok());

  SelectedFeatureSet selected;
  RedundancyOptions options;
  options.kind = RedundancyKind::kMrmr;
  auto accepted = SelectNonRedundant(*view, {0, 1, 2}, &selected, options);
  // informative accepted; duplicate redundant; noise irrelevant.
  ASSERT_EQ(accepted.size(), 1u);
  EXPECT_EQ(accepted[0].name, "informative");
  EXPECT_TRUE(selected.Contains("informative"));
  EXPECT_FALSE(selected.Contains("duplicate"));
}

TEST(SelectNonRedundantTest, AlreadySelectedNameSkipped) {
  CodeFixture fix;
  Table t("t");
  Column c(DataType::kInt64);
  for (int v : fix.informative) c.AppendInt64(v);
  t.AddColumn("x", std::move(c)).Abort();
  Column l(DataType::kInt64);
  for (int v : fix.label) l.AppendInt64(v);
  t.AddColumn("label", std::move(l)).Abort();
  auto view = FeatureView::FromTable(t, "label");
  SelectedFeatureSet selected;
  selected.Add("x", std::make_shared<const std::vector<int>>(fix.informative));
  auto accepted =
      SelectNonRedundant(*view, {0}, &selected, RedundancyOptions{});
  EXPECT_TRUE(accepted.empty());
  EXPECT_EQ(selected.size(), 1u);
}

// The memoised screening keeps one terms row per distinct feature and
// extends it only by the features selected since its last scoring. Seeded
// batch sequences, in which features recur under fresh or repeated names as
// S grows, must accept exactly what greedy screening with fresh
// RedundancyScore calls accepts, with bitwise-equal J.
class MemoisedScreeningTest : public ::testing::TestWithParam<RedundancyKind> {
};

TEST_P(MemoisedScreeningTest, MatchesFreshScoresBitwise) {
  constexpr size_t kRows = 600;
  constexpr size_t kPool = 12;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    std::vector<int> label(kRows);
    for (size_t i = 0; i < kRows; ++i) label[i] = static_cast<int>(i % 3);
    // Noisy copies of the label (independent noise, so several add
    // information), their duplicates and pure noise, some with missing rows.
    std::vector<std::shared_ptr<const std::vector<int>>> pool;
    for (size_t p = 0; p < kPool; ++p) {
      std::vector<int> codes(kRows);
      double flip = 0.15 + 0.05 * static_cast<double>(p % 4);
      for (size_t i = 0; i < kRows; ++i) {
        if (p % 4 == 3) {
          codes[i] = static_cast<int>(rng.UniformInt(0, 4));
        } else {
          codes[i] = rng.Bernoulli(flip)
                         ? static_cast<int>(rng.UniformInt(0, 2))
                         : label[i];
        }
        if (p % 5 == 4 && rng.Bernoulli(0.1)) codes[i] = kMissingBin;
      }
      if (p % 6 == 5) codes = *pool[p - 1];  // exact duplicate
      pool.push_back(std::make_shared<const std::vector<int>>(codes));
    }

    RedundancyOptions options;
    options.kind = GetParam();
    std::vector<RedundancyTerms> rows(kPool);
    SelectedFeatureSet memo_selected;
    std::vector<std::string> fresh_names;
    std::vector<std::vector<int>> fresh_codes;
    for (size_t batch = 0; batch < 10; ++batch) {
      std::vector<RedundancyCandidate> candidates;
      size_t width = 1 + static_cast<size_t>(rng.UniformInt(0, 3));
      for (size_t k = 0; k < width; ++k) {
        size_t p = rng.UniformIndex(kPool);
        // A recurring feature keeps its name half the time (then Contains
        // skips it once selected) and is renamed otherwise.
        std::string name = "f" + std::to_string(p);
        if (rng.Bernoulli(0.5)) name += "#" + std::to_string(batch);
        candidates.push_back({name, pool[p], &rows[p]});
      }
      std::vector<FeatureScore> memoised =
          SelectNonRedundant(candidates, label, &memo_selected, options);

      std::vector<FeatureScore> fresh;
      for (const RedundancyCandidate& c : candidates) {
        if (std::find(fresh_names.begin(), fresh_names.end(), c.name) !=
            fresh_names.end()) {
          continue;
        }
        double j = RedundancyScore(*c.codes, label, fresh_codes, options);
        if (j > 0.0) {
          fresh.push_back({c.name, j});
          fresh_names.push_back(c.name);
          fresh_codes.push_back(*c.codes);
        }
      }
      ASSERT_EQ(memoised.size(), fresh.size())
          << "seed " << seed << " batch " << batch;
      for (size_t i = 0; i < fresh.size(); ++i) {
        EXPECT_EQ(memoised[i].name, fresh[i].name);
        EXPECT_EQ(std::bit_cast<uint64_t>(memoised[i].score),
                  std::bit_cast<uint64_t>(fresh[i].score))
            << memoised[i].name << " seed " << seed << " batch " << batch;
      }
    }
    EXPECT_EQ(memo_selected.names, fresh_names);
    EXPECT_GE(memo_selected.size(), 2u) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, MemoisedScreeningTest,
    ::testing::Values(RedundancyKind::kMifs, RedundancyKind::kMrmr,
                      RedundancyKind::kCife, RedundancyKind::kJmi,
                      RedundancyKind::kCmim),
    [](const auto& info) { return RedundancyKindName(info.param); });

TEST(RedundancyTest, KindNames) {
  EXPECT_STREQ(RedundancyKindName(RedundancyKind::kMrmr), "MRMR");
  EXPECT_STREQ(RedundancyKindName(RedundancyKind::kJmi), "JMI");
}

}  // namespace
}  // namespace autofeat
