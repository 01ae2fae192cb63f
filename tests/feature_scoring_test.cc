// Bitwise differential test of candidate scoring: FeatureView discretisation
// and Spearman relevance, which share one sorted order per column and one
// label block per discovery, against the sort-per-call implementations they
// replaced (kept below as the oracle). Codes and scores must be equal, not
// merely close: ranked paths are fingerprinted byte for byte downstream.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "fs/feature_view.h"
#include "fs/relevance.h"
#include "relational/join_index.h"
#include "stats/correlation.h"
#include "stats/discretize.h"
#include "util/rng.h"

namespace autofeat {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

// ---- Oracle: the sort-per-call implementations ------------------------------

std::vector<int> OracleEqualFrequency(const std::vector<double>& values,
                                      int bins) {
  std::vector<int> out(values.size(), kMissingBin);
  std::vector<size_t> idx;
  idx.reserve(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    if (!std::isnan(values[i])) idx.push_back(i);
  }
  if (idx.empty()) return out;
  std::sort(idx.begin(), idx.end(), [&](size_t a, size_t b) {
    return values[a] < values[b];
  });

  size_t n = idx.size();
  size_t per_bin = std::max<size_t>(1, n / static_cast<size_t>(bins));
  int bin = 0;
  size_t in_bin = 0;
  for (size_t r = 0; r < n; ++r) {
    if (in_bin >= per_bin && bin < bins - 1 &&
        values[idx[r]] != values[idx[r - 1]]) {
      ++bin;
      in_bin = 0;
    }
    out[idx[r]] = bin;
    ++in_bin;
  }
  return out;
}

std::vector<int> OracleDiscretizeFeature(const std::vector<double>& numeric) {
  std::unordered_set<double> distinct;
  for (double v : numeric) {
    if (!std::isnan(v)) distinct.insert(v);
    if (distinct.size() > 32) break;
  }
  if (distinct.size() <= 32) return CodesFromValues(numeric);
  return OracleEqualFrequency(numeric, DefaultBinCount(numeric.size()));
}

// A view keeps the sorted order of the features it bins (more than 32
// distinct values) and none for those coded by value identity.
std::vector<uint32_t> ExpectedOrder(const std::vector<double>& x) {
  std::unordered_set<double> distinct;
  for (double v : x) {
    if (!std::isnan(v)) distinct.insert(v);
  }
  if (distinct.size() <= 32) return {};
  return SortedPresentRows(x);
}

std::vector<double> OracleFractionalRanks(const std::vector<double>& values) {
  std::vector<size_t> idx;
  idx.reserve(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    if (!std::isnan(values[i])) idx.push_back(i);
  }
  std::sort(idx.begin(), idx.end(), [&](size_t a, size_t b) {
    return values[a] < values[b];
  });

  std::vector<double> ranks(values.size(), kNan);
  size_t i = 0;
  while (i < idx.size()) {
    size_t j = i;
    while (j + 1 < idx.size() && values[idx[j + 1]] == values[idx[i]]) ++j;
    double avg = (static_cast<double>(i + 1) + static_cast<double>(j + 1)) / 2;
    for (size_t k = i; k <= j; ++k) ranks[idx[k]] = avg;
    i = j + 1;
  }
  return ranks;
}

double OracleSpearman(const std::vector<double>& x,
                      const std::vector<double>& y) {
  std::vector<double> xm(x.size(), kNan);
  std::vector<double> ym(y.size(), kNan);
  for (size_t i = 0; i < x.size(); ++i) {
    if (!std::isnan(x[i]) && !std::isnan(y[i])) {
      xm[i] = x[i];
      ym[i] = y[i];
    }
  }
  return PearsonCorrelation(OracleFractionalRanks(xm),
                            OracleFractionalRanks(ym));
}

// ---- Seeded columns ---------------------------------------------------------

std::vector<uint64_t> Bits(const std::vector<double>& v) {
  std::vector<uint64_t> out(v.size());
  for (size_t i = 0; i < v.size(); ++i) out[i] = std::bit_cast<uint64_t>(v[i]);
  return out;
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

void SprinkleNans(std::vector<double>* v, double rate, Rng* rng) {
  for (auto& x : *v) {
    if (rng->Uniform() < rate) x = kNan;
  }
}

/// Exactly min(n, k) distinct values, shuffled.
std::vector<double> ExactlyDistinct(size_t n, size_t k, Rng* rng) {
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i % k) * 0.5 - 3;
  rng->Shuffle(&v);
  return v;
}

/// Named feature columns covering the scoring edge cases at n rows.
std::vector<std::pair<std::string, std::vector<double>>> FeatureColumns(
    size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<std::string, std::vector<double>>> cols;
  auto add = [&](std::string name, std::vector<double> v) {
    cols.emplace_back(std::move(name), std::move(v));
  };
  std::vector<double> normal(n);
  for (auto& x : normal) x = rng.Normal(0, 1);
  add("normal", normal);
  std::vector<double> normal_nan = normal;
  SprinkleNans(&normal_nan, 0.15, &rng);
  add("normal_nan", normal_nan);
  std::vector<double> ties(n);
  for (auto& x : ties) x = static_cast<double>(rng.UniformIndex(40));
  add("ties_40", ties);
  std::vector<double> few(n);
  for (auto& x : few) x = std::round(rng.Normal(0, 2));
  add("ties_few", few);
  std::vector<double> zeros(n);
  for (auto& x : zeros) {
    double u = rng.Uniform();
    x = u < 0.3 ? 0.0 : u < 0.6 ? -0.0 : rng.Normal(0, 1);
  }
  add("signed_zero_wide", zeros);
  std::vector<double> zeros_small(n);
  for (auto& x : zeros_small) {
    x = rng.Uniform() < 0.5 ? -0.0 : rng.Uniform() < 0.5 ? 0.0 : 1.0;
  }
  add("signed_zero_small", zeros_small);
  add("distinct_32", ExactlyDistinct(n, 32, &rng));
  add("distinct_33", ExactlyDistinct(n, 33, &rng));
  std::vector<double> d33_nan = ExactlyDistinct(n, 33, &rng);
  SprinkleNans(&d33_nan, 0.1, &rng);
  add("distinct_33_nan", d33_nan);
  // 32 values under == but 33 bit patterns: -0.0 shares 0.0's code, so the
  // column keeps value identity.
  std::vector<double> d32_zero = ExactlyDistinct(n, 32, &rng);
  size_t zeros_seen = 0;
  for (double& x : d32_zero) {
    if (x == 0.0 && zeros_seen++ % 2 == 1) x = -0.0;
  }
  add("distinct_32_signed_zero", d32_zero);
  add("constant", std::vector<double>(n, 2.5));
  add("all_nan", std::vector<double>(n, kNan));
  std::vector<double> infinite = normal;
  if (n > 2) {
    infinite[0] = std::numeric_limits<double>::infinity();
    infinite[n - 1] = -std::numeric_limits<double>::infinity();
  }
  add("infinite", infinite);
  return cols;
}

/// Named label columns: binary, binary with NaNs, continuous with ties.
std::vector<std::pair<std::string, std::vector<double>>> LabelColumns(
    size_t n, uint64_t seed) {
  Rng rng(seed ^ 0x5eed);
  std::vector<std::pair<std::string, std::vector<double>>> labels;
  std::vector<double> binary(n);
  for (auto& x : binary) x = static_cast<double>(rng.UniformIndex(2));
  labels.emplace_back("binary", binary);
  std::vector<double> binary_nan = binary;
  SprinkleNans(&binary_nan, 0.1, &rng);
  labels.emplace_back("binary_nan", binary_nan);
  std::vector<double> continuous(n);
  for (auto& x : continuous) x = std::round(rng.Normal(0, 10)) / 4;
  SprinkleNans(&continuous, 0.05, &rng);
  labels.emplace_back("continuous_nan", continuous);
  return labels;
}

// ---- Stats layer ------------------------------------------------------------

TEST(FeatureScoringTest, RanksAndSpearmanMatchOracleBitwise) {
  for (size_t n : {0u, 1u, 2u, 3u, 200u, 2000u}) {
    for (uint64_t seed : {1u, 2u, 3u}) {
      for (const auto& [label_name, y] : LabelColumns(n, seed)) {
        for (const auto& [name, x] : FeatureColumns(n, seed)) {
          SCOPED_TRACE(name + " vs " + label_name + " n=" + std::to_string(n) +
                       " seed=" + std::to_string(seed));
          EXPECT_EQ(Bits(FractionalRanks(x)), Bits(OracleFractionalRanks(x)));
          EXPECT_EQ(Bits(SpearmanCorrelation(x, y)),
                    Bits(OracleSpearman(x, y)));
          EXPECT_EQ(Bits(SpearmanCorrelation(x, SortedPresentRows(x), y,
                                             SortedPresentRows(y))),
                    Bits(OracleSpearman(x, y)));
          for (int bins : {1, 2, 7, 10}) {
            EXPECT_EQ(DiscretizeEqualFrequency(x, bins),
                      OracleEqualFrequency(x, bins));
          }
        }
      }
    }
  }
}

TEST(FeatureScoringTest, ResultsDoNotDependOnTheOrderWithinATie) {
  // Reversing every tie group of the sorted orders changes neither the
  // codes nor the score.
  auto reverse_ties = [](const std::vector<double>& v,
                         std::vector<uint32_t> order) {
    for (size_t i = 0; i < order.size();) {
      size_t j = i + 1;
      while (j < order.size() && v[order[j]] == v[order[i]]) ++j;
      std::reverse(order.begin() + i, order.begin() + j);
      i = j;
    }
    return order;
  };
  for (const auto& [label_name, y] : LabelColumns(2000, 1)) {
    for (const auto& [name, x] : FeatureColumns(2000, 1)) {
      SCOPED_TRACE(name + " vs " + label_name);
      std::vector<uint32_t> x_order = SortedPresentRows(x);
      std::vector<uint32_t> y_order = SortedPresentRows(y);
      std::vector<uint32_t> x_reversed = reverse_ties(x, x_order);
      std::vector<uint32_t> y_reversed = reverse_ties(y, y_order);
      EXPECT_EQ(DiscretizeEqualFrequency(x, x_reversed, 10),
                DiscretizeEqualFrequency(x, x_order, 10));
      EXPECT_EQ(Bits(SpearmanCorrelation(x, x_reversed, y, y_reversed)),
                Bits(SpearmanCorrelation(x, x_order, y, y_order)));
    }
  }
}

// ---- FeatureView ------------------------------------------------------------

TEST(FeatureScoringTest, ViewCodesAndSpearmanScoresMatchOracleBitwise) {
  RelevanceOptions spearman;
  spearman.kind = RelevanceKind::kSpearman;
  for (size_t n : {0u, 1u, 2u, 3u, 200u, 2000u}) {
    for (uint64_t seed : {1u, 2u, 3u}) {
      for (const auto& [label_name, y] : LabelColumns(n, seed)) {
        std::shared_ptr<const LabelBlock> label = LabelBlock::Build(y);
        ASSERT_EQ(label->codes, CodesFromValues(y));
        ASSERT_EQ(label->order, SortedPresentRows(y));
        std::vector<std::string> names;
        std::vector<std::vector<double>> numeric;
        for (auto& [name, x] : FeatureColumns(n, seed)) {
          names.push_back(name);
          numeric.push_back(x);
        }
        const std::vector<std::vector<double>> raw = numeric;
        auto view = FeatureView::FromColumns(names, std::move(numeric), label);
        ASSERT_TRUE(view.ok()) << view.status().ToString();
        EXPECT_EQ(view->label().get(), label.get());
        std::vector<FeatureScore> scores = ScoreRelevance(*view, {}, spearman);
        ASSERT_EQ(scores.size(), names.size());
        for (size_t f = 0; f < names.size(); ++f) {
          SCOPED_TRACE(names[f] + " vs " + label_name + " n=" +
                       std::to_string(n) + " seed=" + std::to_string(seed));
          EXPECT_EQ(view->codes(f), OracleDiscretizeFeature(raw[f]));
          EXPECT_EQ(view->order(f), ExpectedOrder(raw[f]));
          EXPECT_EQ(Bits(scores[f].score),
                    Bits(std::abs(OracleSpearman(raw[f], y))));
        }
      }
    }
  }
}

TEST(FeatureScoringTest, DistinctBoundaryKeepsFirstOccurrenceCodes) {
  Rng rng(4);
  auto label = LabelBlock::Build(std::vector<double>(400, 1.0));
  auto view = FeatureView::FromColumns(
      {"d32", "d33"}, {ExactlyDistinct(400, 32, &rng),
                       ExactlyDistinct(400, 33, &rng)},
      label);
  ASSERT_TRUE(view.ok());
  // 32 distinct values stay categorical: first-occurrence codes 0..31.
  EXPECT_EQ(view->codes(0), CodesFromValues(view->numeric(0)));
  EXPECT_EQ(DistinctCodeCount(view->codes(0)), 32u);
  // 33 are binned: equal-frequency codes over DefaultBinCount(400) = 10.
  EXPECT_EQ(view->codes(1), DiscretizeEqualFrequency(view->numeric(1), 10));
  EXPECT_LE(DistinctCodeCount(view->codes(1)), 10u);
}

TEST(FeatureScoringTest, FromColumnsEqualsFromTableOverMaterialisedJoin) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const size_t n = 500;
    Table base("base");
    std::vector<int64_t> ids(n);
    for (size_t i = 0; i < n; ++i) ids[i] = static_cast<int64_t>(i);
    rng.Shuffle(&ids);
    std::vector<int64_t> labels(n);
    for (auto& l : labels) l = static_cast<int64_t>(rng.UniformIndex(3));
    base.AddColumn("id", Column::Int64s(ids)).Abort();
    base.AddColumn("x", Column::Doubles(FeatureColumns(n, seed)[0].second))
        .Abort();
    base.AddColumn("label", Column::Int64s(labels)).Abort();

    // The right side covers ~80% of the keys, some twice, and has a column
    // named like a base column so the appended names need a suffix.
    const size_t m = 450;
    Table right("right");
    std::vector<int64_t> keys(m);
    for (auto& k : keys) k = static_cast<int64_t>(rng.UniformIndex(n * 5 / 4));
    right.AddColumn("id", Column::Int64s(keys)).Abort();
    for (auto& [name, values] : FeatureColumns(m, seed + 10)) {
      std::vector<uint8_t> valid(m);
      for (size_t i = 0; i < m; ++i) valid[i] = !std::isnan(values[i]);
      for (auto& v : values) {
        if (std::isnan(v)) v = 0.0;
      }
      right.AddColumn(name, Column::Doubles(std::move(values), std::move(valid)))
          .Abort();
    }
    std::vector<std::string> words(m);
    for (auto& w : words) w = "w" + std::to_string(rng.UniformIndex(50));
    right.AddColumn("word", Column::Strings(words)).Abort();
    std::vector<double> dup(m);
    for (auto& d : dup) d = rng.Normal(0, 1);
    right.AddColumn("x", Column::Doubles(dup)).Abort();

    JoinKeyIndex index = BuildJoinKeyIndex(*right.GetColumn("id").ValueOrDie(),
                                           seed);
    JoinRowMap map = MapLeftJoin(*base.GetColumn("id").ValueOrDie(), index);
    auto joined = LeftJoinWithIndex(base, "id", right, index);
    ASSERT_TRUE(joined.ok()) << joined.status().ToString();
    std::vector<std::string> appended = ResolveAppendedNames(base, right);

    auto base_view = FeatureView::FromTable(base, "label");
    ASSERT_TRUE(base_view.ok());
    std::vector<std::vector<double>> gathered;
    for (size_t col = 0; col < right.num_columns(); ++col) {
      gathered.push_back(GatherNumeric(right.column(col), map.right_rows));
    }
    auto from_columns = FeatureView::FromColumns(appended, std::move(gathered),
                                                 base_view->label());
    auto from_table =
        FeatureView::FromTable(joined->table, "label", appended);
    ASSERT_TRUE(from_columns.ok());
    ASSERT_TRUE(from_table.ok());

    // One label block, shared by reference rather than copied.
    EXPECT_EQ(from_columns->label().get(), base_view->label().get());
    EXPECT_EQ(Bits(from_columns->label_numeric()),
              Bits(from_table->label_numeric()));
    EXPECT_EQ(from_columns->label_codes(), from_table->label_codes());
    EXPECT_EQ(from_columns->label_order(), from_table->label_order());

    ASSERT_EQ(from_columns->names(), from_table->names());
    RelevanceOptions spearman;
    spearman.kind = RelevanceKind::kSpearman;
    auto scores_columns = ScoreRelevance(*from_columns, {}, spearman);
    auto scores_table = ScoreRelevance(*from_table, {}, spearman);
    for (size_t f = 0; f < from_table->num_features(); ++f) {
      SCOPED_TRACE(from_table->name(f));
      EXPECT_EQ(Bits(from_columns->numeric(f)), Bits(from_table->numeric(f)));
      EXPECT_EQ(from_columns->codes(f), from_table->codes(f));
      EXPECT_EQ(from_columns->order(f), from_table->order(f));
      EXPECT_EQ(Bits(scores_columns[f].score), Bits(scores_table[f].score));
      EXPECT_EQ(from_table->codes(f),
                OracleDiscretizeFeature(from_table->numeric(f)));
    }
  }
}

TEST(FeatureScoringTest, FromColumnsRejectsMissingLabelBlock) {
  auto view = FeatureView::FromColumns({"a"}, {{1.0, 2.0}}, nullptr);
  EXPECT_FALSE(view.ok());
}

}  // namespace
}  // namespace autofeat
