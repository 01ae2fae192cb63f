#include "discovery/schema_matcher.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "util/rng.h"

namespace autofeat {
namespace {

TEST(NameSimilarityTest, ExactMatchIsOne) {
  EXPECT_DOUBLE_EQ(NameSimilarity("customer_id", "customer_id"), 1.0);
  EXPECT_DOUBLE_EQ(NameSimilarity("ID", "id"), 1.0);  // Case-insensitive.
}

TEST(NameSimilarityTest, QualifiedNamesMatchOnColumnPart) {
  EXPECT_DOUBLE_EQ(NameSimilarity("orders.customer_id", "customer_id"), 1.0);
  EXPECT_DOUBLE_EQ(NameSimilarity("a.key", "b.key"), 1.0);
}

TEST(NameSimilarityTest, SimilarBeatsDissimilar) {
  EXPECT_GT(NameSimilarity("customer_id", "customer_key"),
            NameSimilarity("customer_id", "temperature"));
}

TEST(ValueOverlapTest, ContainmentSemantics) {
  Column small = Column::Int64s({1, 2, 3});
  Column large = Column::Int64s({1, 2, 3, 4, 5, 6});
  // The smaller set is fully contained -> 1.0.
  EXPECT_DOUBLE_EQ(ValueOverlap(small, large, 100), 1.0);
  Column disjoint = Column::Int64s({10, 11});
  EXPECT_DOUBLE_EQ(ValueOverlap(small, disjoint, 100), 0.0);
}

TEST(ValueOverlapTest, CrossTypeNumericKeys) {
  Column ints = Column::Int64s({1, 2, 3});
  Column doubles = Column::Doubles({1.0, 2.0, 9.0});
  EXPECT_NEAR(ValueOverlap(ints, doubles, 100), 2.0 / 3, 1e-12);
}

TEST(ValueOverlapTest, NullsIgnored) {
  Column a = Column::Int64s({1, 2, 3}, {1, 0, 1});
  Column b = Column::Int64s({1, 3});
  EXPECT_DOUBLE_EQ(ValueOverlap(a, b, 100), 1.0);
}

TEST(ValueOverlapTest, EmptyColumnsScoreZero) {
  Column empty(DataType::kInt64);
  Column b = Column::Int64s({1});
  EXPECT_DOUBLE_EQ(ValueOverlap(empty, b, 100), 0.0);
}

// A seeded column over the key domain [0, domain): int64 v, double v and
// string "v" spell the same key, so columns of different types overlap; a
// double is sometimes v + 0.5 and a string sometimes "s<v>", which overlap
// nothing of the other types. About 15% of rows are null.
Column RandomKeyColumn(Rng* rng, DataType type, size_t rows, int64_t domain) {
  Column col(type);
  for (size_t i = 0; i < rows; ++i) {
    if (rng->Bernoulli(0.15)) {
      col.AppendNull();
      continue;
    }
    const int64_t v = rng->UniformInt(0, domain - 1);
    const bool odd_spelling = rng->Bernoulli(0.2);
    switch (type) {
      case DataType::kInt64:
        col.AppendInt64(v);
        break;
      case DataType::kDouble:
        col.AppendDouble(static_cast<double>(v) + (odd_spelling ? 0.5 : 0.0));
        break;
      case DataType::kString:
        col.AppendString((odd_spelling ? "s" : "") + std::to_string(v));
        break;
    }
  }
  return col;
}

std::set<std::string> DistinctKeys(const Column& col) {
  std::set<std::string> keys;
  for (size_t i = 0; i < col.size(); ++i) {
    if (!col.IsNull(i)) keys.insert(col.KeyAt(i));
  }
  return keys;
}

TEST(ValueOverlapTest, MatchesExactSetOracle) {
  constexpr size_t kSample = 32;
  Rng rng(20240611);
  std::vector<Column> columns;
  for (int64_t domain : {8, 24, 40, 400}) {
    for (DataType type :
         {DataType::kInt64, DataType::kDouble, DataType::kString}) {
      for (size_t rows : {0, 5, 60, 300}) {
        columns.push_back(RandomKeyColumn(&rng, type, rows, domain));
      }
    }
  }
  size_t exact_pairs = 0;
  size_t cross_type_overlaps = 0;
  size_t sampled_columns = 0;
  for (size_t a = 0; a < columns.size(); ++a) {
    const std::set<std::string> keys_a = DistinctKeys(columns[a]);
    const ColumnSketch sketch_a = BuildColumnSketch(columns[a], kSample);
    // The profile is the oracle's k smallest key hashes and its count.
    std::vector<uint64_t> oracle_hashes;
    for (const std::string& key : keys_a) {
      oracle_hashes.push_back(SketchValueHash(key));
    }
    std::sort(oracle_hashes.begin(), oracle_hashes.end());
    oracle_hashes.resize(std::min(oracle_hashes.size(), kSample));
    EXPECT_EQ(sketch_a.hashes, oracle_hashes) << "column " << a;
    EXPECT_EQ(sketch_a.num_distinct, keys_a.size()) << "column " << a;
    if (keys_a.size() > kSample) {
      ++sampled_columns;
      continue;
    }
    // Unsampled pairs: the estimates are exact.
    for (size_t b = 0; b < columns.size(); ++b) {
      const std::set<std::string> keys_b = DistinctKeys(columns[b]);
      if (keys_b.size() > kSample) continue;
      std::vector<std::string> common;
      std::set_intersection(keys_a.begin(), keys_a.end(), keys_b.begin(),
                            keys_b.end(), std::back_inserter(common));
      const double inter = static_cast<double>(common.size());
      const double smaller =
          static_cast<double>(std::min(keys_a.size(), keys_b.size()));
      const double uni =
          static_cast<double>(keys_a.size() + keys_b.size()) - inter;
      const ColumnSketch sketch_b = BuildColumnSketch(columns[b], kSample);
      EXPECT_DOUBLE_EQ(ValueOverlap(columns[a], columns[b], kSample),
                       smaller == 0 ? 0.0 : inter / smaller)
          << a << " vs " << b;
      EXPECT_DOUBLE_EQ(SketchJaccard(sketch_a, sketch_b),
                       uni == 0 ? 0.0 : inter / uni)
          << a << " vs " << b;
      ++exact_pairs;
      if (columns[a].type() != columns[b].type() && inter > 0) {
        ++cross_type_overlaps;
      }
    }
  }
  // Both regimes are exercised, cross-type overlaps included.
  EXPECT_GT(exact_pairs, 100u);
  EXPECT_GT(cross_type_overlaps, 10u);
  EXPECT_GT(sampled_columns, 5u);
}

// Key columns carry >= 16 distinct values so their value overlap counts
// as full evidence (see MatchOptions::min_distinct_for_overlap).
std::vector<int64_t> KeyRange(int64_t n) {
  std::vector<int64_t> v(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) v[static_cast<size_t>(i)] = i;
  return v;
}

Table MakeOrders() {
  Table t("orders");
  t.AddColumn("customer_id", Column::Int64s(KeyRange(24))).Abort();
  std::vector<double> amounts(24);
  for (size_t i = 0; i < 24; ++i) amounts[i] = static_cast<double>(i) * 1.5;
  t.AddColumn("amount", Column::Doubles(std::move(amounts))).Abort();
  return t;
}

Table MakeCustomers() {
  Table t("customers");
  t.AddColumn("customer_id", Column::Int64s(KeyRange(24))).Abort();
  std::vector<double> ages(24);
  for (size_t i = 0; i < 24; ++i) ages[i] = 30.0 + static_cast<double>(i);
  t.AddColumn("age", Column::Doubles(std::move(ages))).Abort();
  return t;
}

TEST(MatchSchemasTest, FindsKeyMatch) {
  auto matches = MatchSchemas(MakeOrders(), MakeCustomers());
  ASSERT_FALSE(matches.empty());
  EXPECT_EQ(matches[0].left_column, "customer_id");
  EXPECT_EQ(matches[0].right_column, "customer_id");
  EXPECT_GT(matches[0].score, 0.9);
}

TEST(MatchSchemasTest, KeyLikeAndContinuousDoNotPair) {
  // int64 key vs double feature must never match even with similar names.
  Table a("a");
  a.AddColumn("value", Column::Int64s({1, 2, 3})).Abort();
  Table b("b");
  b.AddColumn("value", Column::Doubles({1.5, 2.5, 3.5})).Abort();
  EXPECT_TRUE(MatchSchemas(a, b).empty());
}

TEST(MatchSchemasTest, ThresholdFilters) {
  MatchOptions strict;
  strict.threshold = 0.99;
  Table a("a");
  a.AddColumn("key_one", Column::Int64s({1, 2})).Abort();
  Table b("b");
  b.AddColumn("key_two", Column::Int64s({8, 9})).Abort();
  EXPECT_TRUE(MatchSchemas(a, b, strict).empty());
}

TEST(MatchSchemasTest, SortedByScoreDescending) {
  Table a("a");
  a.AddColumn("id", Column::Int64s({1, 2, 3})).Abort();
  a.AddColumn("zip", Column::Int64s({100, 200, 300})).Abort();
  Table b("b");
  b.AddColumn("id", Column::Int64s({1, 2, 3})).Abort();
  b.AddColumn("zip", Column::Int64s({100, 999, 888})).Abort();
  MatchOptions loose;
  loose.threshold = 0.3;
  auto matches = MatchSchemas(a, b, loose);
  ASSERT_GE(matches.size(), 2u);
  for (size_t i = 1; i < matches.size(); ++i) {
    EXPECT_GE(matches[i - 1].score, matches[i].score);
  }
}

TEST(MatchSchemasTest, SpuriousOverlapCreatesMatch) {
  // Two unrelated surrogate-key columns over the same 0..n range with
  // similar names: the "spurious but not irrelevant" connections of the
  // data-lake setting.
  Table a("a");
  a.AddColumn("employee_nr", Column::Int64s(KeyRange(32))).Abort();
  Table b("b");
  b.AddColumn("employer_nr", Column::Int64s(KeyRange(32))).Abort();
  auto matches = MatchSchemas(a, b);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_GE(matches[0].score, 0.55);
}

TEST(MatchSchemasTest, TinyCardinalityOverlapIsDiscounted) {
  // A binary column (e.g. a label) is trivially contained in any key
  // range; that containment must not produce a join edge on its own.
  Table a("a");
  a.AddColumn("flag", Column::Int64s({0, 1, 0, 1, 0, 1})).Abort();
  Table b("b");
  b.AddColumn("some_key", Column::Int64s(KeyRange(32))).Abort();
  EXPECT_TRUE(MatchSchemas(a, b).empty());
}

}  // namespace
}  // namespace autofeat
