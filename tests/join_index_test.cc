#include "relational/join_index.h"

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/autofeat.h"
#include "discovery/data_lake.h"
#include "discovery/join_index_cache.h"
#include "graph/drg.h"
#include "obs/metrics.h"
#include "relational/join.h"
#include "support/join_differential.h"
#include "support/lake_fixtures.h"
#include "support/node_map_dictionary.h"

namespace autofeat {
namespace {

using testsupport::ExpectJoinsAgree;
using testsupport::ExpectJoinsAgreeAllOptions;
using testsupport::ExpectNumericViewsEqual;

TEST(JoinDifferentialTest, Int64Keys) {
  Table left("l");
  left.AddColumn("k", Column::Int64s({1, 2, 3, 4, 2})).Abort();
  left.AddColumn("x", Column::Doubles({1, 2, 3, 4, 5})).Abort();
  Table right("r");
  right.AddColumn("k2", Column::Int64s({2, 3, 3, 5, 2, 2})).Abort();
  right.AddColumn("v", Column::Doubles({10, 20, 30, 40, 50, 60})).Abort();
  ExpectJoinsAgreeAllOptions(left, "k", right, "k2");
}

TEST(JoinDifferentialTest, DoubleKeys) {
  Table left("l");
  left.AddColumn("k", Column::Doubles({1.0, 2.5, 3.0, 4.25})).Abort();
  Table right("r");
  right.AddColumn("k2", Column::Doubles({2.5, 3.0, 3.0, 4.25})).Abort();
  right.AddColumn("v", Column::Strings({"a", "b", "c", "d"})).Abort();
  ExpectJoinsAgreeAllOptions(left, "k", right, "k2");
}

TEST(JoinDifferentialTest, StringKeys) {
  Table left("l");
  left.AddColumn("k", Column::Strings({"u", "v", "07", "7"})).Abort();
  Table right("r");
  right.AddColumn("k2", Column::Strings({"v", "v", "7", "w"})).Abort();
  right.AddColumn("v", Column::Doubles({1, 2, 3, 4})).Abort();
  ExpectJoinsAgreeAllOptions(left, "k", right, "k2");
}

TEST(JoinDifferentialTest, CrossTypeKeys) {
  // int64 left against a string right holding canonical and non-canonical
  // numerals; only the canonical forms may match.
  Table left("l");
  left.AddColumn("k", Column::Int64s({7, 8, 9})).Abort();
  Table right("r");
  right.AddColumn("k2", Column::Strings({"7", "07", "8.0", "9"})).Abort();
  right.AddColumn("v", Column::Doubles({1, 2, 3, 4})).Abort();
  ExpectJoinsAgreeAllOptions(left, "k", right, "k2");
}

TEST(JoinDifferentialTest, NullKeys) {
  Table left("l");
  left.AddColumn("k", Column::Int64s({1, 2, 3}, {1, 0, 1})).Abort();
  Table right("r");
  right.AddColumn("k2", Column::Int64s({1, 2, 3}, {0, 1, 1})).Abort();
  right.AddColumn("v", Column::Doubles({10, 20, 30})).Abort();
  ExpectJoinsAgreeAllOptions(left, "k", right, "k2");
}

TEST(JoinDifferentialTest, DuplicateRightKeysManyGroups) {
  Table left("l");
  std::vector<int64_t> lk;
  for (int64_t i = 0; i < 40; ++i) lk.push_back(i % 11);
  left.AddColumn("k", Column::Int64s(lk)).Abort();
  Table right("r");
  std::vector<int64_t> rk;
  std::vector<double> rv;
  for (int64_t i = 0; i < 10; ++i) {
    for (int64_t d = 0; d <= i % 4; ++d) {
      rk.push_back(i);
      rv.push_back(static_cast<double>(i * 100 + d));
    }
  }
  right.AddColumn("k2", Column::Int64s(rk)).Abort();
  right.AddColumn("v", Column::Doubles(rv)).Abort();
  ExpectJoinsAgreeAllOptions(left, "k", right, "k2");
}

TEST(JoinDifferentialTest, InnerJoinAndCollidingNames) {
  Table left("l");
  left.AddColumn("id", Column::Int64s({1, 2, 3})).Abort();
  left.AddColumn("x", Column::Doubles({1, 2, 3})).Abort();
  Table right("r");
  right.AddColumn("id", Column::Int64s({2, 3, 4})).Abort();
  right.AddColumn("x", Column::Doubles({20, 30, 40})).Abort();
  for (JoinType type : {JoinType::kLeft, JoinType::kInner}) {
    JoinOptions options;
    options.type = type;
    ExpectJoinsAgree(left, "id", right, "id", options);
  }
}

// ---------------------------------------------------------------------------
// Factorized primitives.
// ---------------------------------------------------------------------------

Table DupRight() {
  Table t("r");
  t.AddColumn("k2", Column::Int64s({2, 2, 3, 5, 3})).Abort();
  t.AddColumn("v", Column::Doubles({21, 22, 31, 51, 32})).Abort();
  t.AddColumn("s", Column::Strings({"b1", "b2", "c1", "e1", "c2"})).Abort();
  return t;
}

TEST(JoinKeyIndexTest, UniqueKeysEqualLeftJoin) {
  Table left("l");
  left.AddColumn("k", Column::Int64s({1, 2, 3, 4})).Abort();
  Table right("r");
  right.AddColumn("k2", Column::Int64s({2, 3, 5})).Abort();
  right.AddColumn("v", Column::Doubles({20, 30, 50})).Abort();

  JoinKeyIndex index = BuildJoinKeyIndex(**right.GetColumn("k2"), 99);
  auto via_index = LeftJoinWithIndex(left, "k", right, index);
  ASSERT_TRUE(via_index.ok());
  // With unique right keys the representative draw never fires, so the
  // rng-driven reference join is bitwise identical.
  Rng rng(1);
  auto ref = LeftJoin(left, "k", right, "k2", &rng);
  ASSERT_TRUE(ref.ok());
  EXPECT_TRUE(via_index->table.Equals(ref->table));
  EXPECT_EQ(via_index->stats.matched_rows, ref->stats.matched_rows);
}

TEST(JoinKeyIndexTest, DuplicateKeysPickOneRowOfTheGroup) {
  Table left("l");
  left.AddColumn("k", Column::Int64s({2, 3, 4})).Abort();
  Table right = DupRight();
  JoinKeyIndex index = BuildJoinKeyIndex(**right.GetColumn("k2"), 7);
  EXPECT_EQ(index.num_distinct_keys(), 3u);
  auto r = LeftJoinWithIndex(left, "k", right, index);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->table.num_rows(), 3u);
  EXPECT_EQ(r->stats.matched_rows, 2u);
  const Column* v = *r->table.GetColumn("v");
  // Whatever representative was drawn, it comes from the right group.
  EXPECT_TRUE(v->GetDouble(0) == 21 || v->GetDouble(0) == 22);
  EXPECT_TRUE(v->GetDouble(1) == 31 || v->GetDouble(1) == 32);
  EXPECT_TRUE(v->IsNull(2));
}

// The flat dictionary keeps the node-map dictionary's first-seen ids, so the
// index draws the same representative rows from the same Rng stream.
TEST(JoinKeyIndexTest, RepresentativesMatchNodeMapOracle) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    for (DataType type :
         {DataType::kInt64, DataType::kDouble, DataType::kString}) {
      Column key = testsupport::SeededKeyColumn(type, 4000, 300, seed);
      testsupport::NodeMapDictionary oracle(key);
      JoinKeyIndex index = BuildJoinKeyIndex(key, seed * 31);
      EXPECT_EQ(index.representative, oracle.Representatives(seed * 31))
          << "seed " << seed << " type " << static_cast<int>(type);
    }
  }
}

TEST(JoinKeyIndexTest, SameSeedSameRepresentatives) {
  Table right = DupRight();
  JoinKeyIndex a = BuildJoinKeyIndex(**right.GetColumn("k2"), 42);
  JoinKeyIndex b = BuildJoinKeyIndex(**right.GetColumn("k2"), 42);
  EXPECT_EQ(a.representative, b.representative);
}

TEST(MapLeftJoinTest, GathersMatchLeftJoinWithIndex) {
  Table left("l");
  left.AddColumn("k", Column::Int64s({2, 9, 3, 2})).Abort();
  Table right = DupRight();
  JoinKeyIndex index = BuildJoinKeyIndex(**right.GetColumn("k2"), 5);

  JoinRowMap map = MapLeftJoin(**left.GetColumn("k"), index);
  ASSERT_EQ(map.right_rows.size(), 4u);
  EXPECT_EQ(map.stats.matched_rows, 3u);
  EXPECT_EQ(map.right_rows[1], kNoMatchRow);

  auto materialized = LeftJoinWithIndex(left, "k", right, index);
  ASSERT_TRUE(materialized.ok());
  for (size_t c = 0; c < right.num_columns(); ++c) {
    Column gathered = GatherColumn(right.column(c), map.right_rows);
    const Column& from_join =
        materialized->table.column(left.num_columns() + c);
    // Null counts and numeric views line up with the materialised columns.
    EXPECT_EQ(GatherNullCount(right.column(c), map.right_rows),
              from_join.null_count());
    EXPECT_EQ(gathered.null_count(), from_join.null_count());
    ExpectNumericViewsEqual(GatherNumeric(right.column(c), map.right_rows),
                            gathered.ToNumeric());
    ExpectNumericViewsEqual(gathered.ToNumeric(), from_join.ToNumeric());
  }
}

TEST(ResolveAppendedNamesTest, MatchesJoinNaming) {
  Table left("l");
  left.AddColumn("id", Column::Int64s({1})).Abort();
  left.AddColumn("x", Column::Doubles({1})).Abort();
  left.AddColumn("x#2", Column::Doubles({1})).Abort();  // pre-existing suffix
  Table right("r");
  right.AddColumn("id", Column::Int64s({1})).Abort();
  right.AddColumn("x", Column::Doubles({9})).Abort();
  right.AddColumn("y", Column::Doubles({9})).Abort();

  std::vector<std::string> names = ResolveAppendedNames(left, right);
  Rng rng(1);
  auto joined = Join(left, "id", right, "id", &rng);
  ASSERT_TRUE(joined.ok());
  ASSERT_EQ(names.size(), right.num_columns());
  std::vector<std::string> joined_names = joined->table.ColumnNames();
  for (size_t c = 0; c < names.size(); ++c) {
    EXPECT_EQ(names[c], joined_names[left.num_columns() + c]);
  }
}

// ---------------------------------------------------------------------------
// JoinIndexCache.
// ---------------------------------------------------------------------------

DataLake MakeLake() { return testsupport::MakeOrdersCustomersLake(); }

TEST(JoinIndexCacheTest, MissingTableOrColumnFails) {
  DataLake lake = MakeLake();
  JoinIndexCache cache(&lake, 11);
  EXPECT_FALSE(cache.GetOrBuild("nope", "cust").ok());
  EXPECT_FALSE(cache.GetOrBuild("orders", "nope").ok());
  // The failed entries do not poison later valid requests.
  EXPECT_TRUE(cache.GetOrBuild("orders", "cust").ok());
}

TEST(JoinIndexCacheTest, SameSeedCachesAreInterchangeable) {
  DataLake lake = MakeLake();
  JoinIndexCache cache_a(&lake, 23);
  JoinIndexCache cache_b(&lake, 23);
  auto a = cache_a.GetOrBuild("orders", "cust");
  auto b = cache_b.GetOrBuild("orders", "cust");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ((*a)->representative, (*b)->representative);
}

// Two components: the chain base - t1 - t2 - t3 (t3 is three hops from the
// base) and the island u1 - u2, which no discovery from the base reaches.
struct ChainLake {
  DataLake lake;
  DatasetRelationGraph drg;
};

ChainLake MakeChainAndIslandLake() {
  constexpr int64_t kRows = 60;
  std::vector<int64_t> id, k1, label;
  std::vector<double> f0;
  for (int64_t i = 0; i < kRows; ++i) {
    id.push_back(i);
    k1.push_back(i % 20);
    label.push_back(i % 20 % 10 % 5 < 2 ? 1 : 0);
    f0.push_back(static_cast<double>((i * 7) % 11));
  }
  auto keyed = [](const std::string& name, int64_t n, int64_t fold,
                  const std::string& key, const std::string& next_key,
                  const std::string& feature) {
    std::vector<int64_t> keys, next;
    std::vector<double> values;
    for (int64_t k = 0; k < n; ++k) {
      keys.push_back(k);
      next.push_back(k % fold);
      values.push_back(static_cast<double>(k % fold) * 1.5 + 0.25);
    }
    Table t(name);
    t.AddColumn(key, Column::Int64s(keys)).Abort();
    if (!next_key.empty()) t.AddColumn(next_key, Column::Int64s(next)).Abort();
    t.AddColumn(feature, Column::Doubles(values)).Abort();
    return t;
  };
  ChainLake out;
  Table base("base");
  base.AddColumn("id", Column::Int64s(id)).Abort();
  base.AddColumn("k1", Column::Int64s(k1)).Abort();
  base.AddColumn("f0", Column::Doubles(f0)).Abort();
  base.AddColumn("label", Column::Int64s(label)).Abort();
  out.lake.AddTable(std::move(base)).Abort();
  out.lake.AddTable(keyed("t1", 20, 10, "k1", "k2", "f1")).Abort();
  out.lake.AddTable(keyed("t2", 10, 5, "k2", "k3", "f2")).Abort();
  out.lake.AddTable(keyed("t3", 5, 5, "k3", "", "f3")).Abort();
  out.lake.AddTable(keyed("u1", 8, 4, "j", "", "g1")).Abort();
  out.lake.AddTable(keyed("u2", 8, 4, "j", "", "g2")).Abort();
  for (const std::string& name : out.lake.TableNames()) out.drg.AddNode(name);
  out.drg.AddEdge("base", "k1", "t1", "k1", 1.0).Abort();
  out.drg.AddEdge("t1", "k2", "t2", "k2", 1.0).Abort();
  out.drg.AddEdge("t2", "k3", "t3", "k3", 1.0).Abort();
  out.drg.AddEdge("u1", "j", "u2", "j", 1.0).Abort();
  return out;
}

TEST(JoinIndexCachePrewarmTest, ReachBuildsOnlyTheTargetsWithinMaxHops) {
  ChainLake chain = MakeChainAndIslandLake();
  const size_t base = *chain.drg.NodeId("base");
  // Edges leave the nodes within max_hops - 1 hops of the base; each edge of
  // the chain is warmed in both orientations once its nearer end is a
  // source: max_hops 1 warms t1.k1; 2 adds base.k1 and t2.k2; 3 adds t1.k2
  // and t3.k3; 4 adds t2.k3.
  const std::vector<std::pair<size_t, size_t>> expected = {
      {0, 0}, {1, 1}, {2, 3}, {3, 5}, {4, 6}, {8, 6}};
  for (const auto& [max_hops, entries] : expected) {
    obs::MetricsRegistry registry;
    JoinIndexCache cache(&chain.lake, /*seed=*/5, &registry);
    cache.Prewarm(chain.drg, /*pool=*/nullptr,
                  JoinIndexCache::Reach{base, max_hops});
    EXPECT_EQ(cache.num_entries(), entries) << "max_hops " << max_hops;
    EXPECT_EQ(registry.CounterValue("join_index_cache.builds"), entries)
        << "max_hops " << max_hops;
    // The island is never touched: asking for it builds a fresh entry.
    ASSERT_TRUE(cache.GetOrBuild("u2", "j").ok());
    EXPECT_EQ(registry.CounterValue("join_index_cache.builds"), entries + 1);
  }
  // Without a reach the whole graph is warmed, the island included.
  obs::MetricsRegistry registry;
  JoinIndexCache cache(&chain.lake, /*seed=*/5, &registry);
  cache.Prewarm(chain.drg);
  EXPECT_EQ(cache.num_entries(), 8u);
  EXPECT_EQ(registry.CounterValue("join_index_cache.builds"), 8u);
}

TEST(JoinIndexCachePrewarmTest, ScopedDiscoveryMatchesWholeGraphPrewarm) {
  ChainLake chain = MakeChainAndIslandLake();
  for (size_t threads : {1u, 2u, 8u}) {
    AutoFeatConfig config;
    config.num_threads = threads;
    config.metrics_enabled = true;
    AutoFeat scoped(&chain.lake, &chain.drg, config);
    auto scoped_result = scoped.DiscoverFeatures("base", "label");
    ASSERT_TRUE(scoped_result.ok()) << scoped_result.status().ToString();
    EXPECT_FALSE(scoped_result->ranked.empty());
    // The chain's six targets, built by the prewarm; every later request
    // is a hit.
    EXPECT_EQ(scoped.metrics()->CounterValue("join_index_cache.builds"), 6u);

    JoinIndexCache whole(&chain.lake, config.seed);
    whole.Prewarm(chain.drg);
    AutoFeatConfig shared = config;
    shared.metrics_enabled = false;
    shared.join_cache = &whole;
    AutoFeat prewarmed(&chain.lake, &chain.drg, shared);
    auto whole_result = prewarmed.DiscoverFeatures("base", "label");
    ASSERT_TRUE(whole_result.ok());
    EXPECT_EQ(testsupport::RankedFingerprint(*scoped_result),
              testsupport::RankedFingerprint(*whole_result))
        << threads << " threads";
  }
}

}  // namespace
}  // namespace autofeat
