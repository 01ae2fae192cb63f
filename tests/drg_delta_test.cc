// DrgMatchStore::BuildGraph against the fold it replaced: probing every
// (i, j) name pair in lake order. Both must give byte-identical graphs,
// whatever order the pairs were stored in, whichever orientation they were
// stored under, and after tables were dropped or moved by a re-add.

#include "graph/drg_delta.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace autofeat {
namespace {

// The n² oracle: for ascending (i, j) lake positions, the pair's stored
// matches oriented table i -> table j.
DatasetRelationGraph ProbeEveryPairFold(
    const DrgMatchStore& store, const std::vector<std::string>& lake_order) {
  DatasetRelationGraph drg;
  for (const std::string& name : lake_order) drg.AddNode(name);
  for (size_t i = 0; i < lake_order.size(); ++i) {
    for (size_t j = i + 1; j < lake_order.size(); ++j) {
      for (const ColumnMatch& m : store.MatchesFor(lake_order[i],
                                                   lake_order[j])) {
        drg.AddEdge(lake_order[i], m.left_column, lake_order[j],
                    m.right_column, m.score)
            .Abort();
      }
    }
  }
  return drg;
}

void ExpectFoldMatchesOracle(const DrgMatchStore& store,
                             const std::vector<std::string>& lake_order) {
  auto built = store.BuildGraph(lake_order);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  DatasetRelationGraph oracle = ProbeEveryPairFold(store, lake_order);
  EXPECT_EQ(built->OrderedFingerprint(), oracle.OrderedFingerprint());
  EXPECT_EQ(built->AllEdges(), oracle.AllEdges());
}

std::vector<std::string> TableNames(size_t n) {
  std::vector<std::string> names;
  for (size_t i = 0; i < n; ++i) names.push_back("t" + std::to_string(i));
  return names;
}

// One to three matches per pair, with a tied score now and then so the
// stored (match-score) order decides the edge order.
std::vector<ColumnMatch> RandomMatches(Rng* rng) {
  std::vector<ColumnMatch> matches;
  const size_t count = 1 + rng->UniformIndex(3);
  for (size_t m = 0; m < count; ++m) {
    matches.push_back({"c" + std::to_string(rng->UniformIndex(4)),
                       "d" + std::to_string(rng->UniformIndex(4)),
                       0.5 + 0.125 * static_cast<double>(rng->UniformIndex(4))});
  }
  return matches;
}

// Stores a random third of the pairs over `names` in scrambled order, each
// under a random orientation; some pairs are stored twice, the second time
// flipped, which replaces the first.
DrgMatchStore SeededStore(const std::vector<std::string>& names, Rng* rng) {
  std::vector<std::pair<size_t, size_t>> pairs;
  for (size_t i = 0; i < names.size(); ++i) {
    for (size_t j = i + 1; j < names.size(); ++j) {
      if (rng->UniformIndex(3) == 0) pairs.emplace_back(i, j);
    }
  }
  rng->Shuffle(&pairs);
  DrgMatchStore store;
  for (auto [i, j] : pairs) {
    if (rng->Bernoulli(0.5)) std::swap(i, j);
    store.SetMatches(names[i], names[j], RandomMatches(rng));
    if (rng->UniformIndex(4) == 0) {
      store.SetMatches(names[j], names[i], RandomMatches(rng));
    }
  }
  return store;
}

TEST(DrgMatchStoreFoldTest, ScrambledInsertionOrderMatchesOracle) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    const std::vector<std::string> names = TableNames(2 + rng.UniformIndex(14));
    DrgMatchStore store = SeededStore(names, &rng);
    ExpectFoldMatchesOracle(store, names);
    // The same store folded under a shuffled lake order re-orients pairs.
    std::vector<std::string> shuffled = names;
    rng.Shuffle(&shuffled);
    ExpectFoldMatchesOracle(store, shuffled);
  }
}

TEST(DrgMatchStoreFoldTest, BothOrientationsFoldTheSameEdges) {
  DrgMatchStore forward;
  forward.SetMatches("a", "b", {{"x", "y", 0.9}, {"x", "z", 0.9}});
  DrgMatchStore backward;
  backward.SetMatches("b", "a", {{"y", "x", 0.9}, {"z", "x", 0.9}});
  const std::vector<std::string> order = {"a", "b"};
  ExpectFoldMatchesOracle(forward, order);
  ExpectFoldMatchesOracle(backward, order);
  EXPECT_EQ(forward.BuildGraph(order)->OrderedFingerprint(),
            backward.BuildGraph(order)->OrderedFingerprint());
}

TEST(DrgMatchStoreFoldTest, StalePairsOfDroppedTablesAreIgnored) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(100 + seed);
    const std::vector<std::string> names = TableNames(3 + rng.UniformIndex(12));
    DrgMatchStore store = SeededStore(names, &rng);
    // Drop a few tables from the lake without purging their pairs.
    std::vector<std::string> lake_order;
    for (const std::string& name : names) {
      if (rng.UniformIndex(4) != 0) lake_order.push_back(name);
    }
    ExpectFoldMatchesOracle(store, lake_order);
  }
}

TEST(DrgMatchStoreFoldTest, DropThenReAddMovesTheTablesPosition) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(200 + seed);
    std::vector<std::string> names = TableNames(3 + rng.UniformIndex(12));
    DrgMatchStore store = SeededStore(names, &rng);
    // A dropped table comes back at the end of the lake: its pairs with
    // every later table were stored the other way round.
    const size_t moved = rng.UniformIndex(names.size() - 1);
    const std::string table = names[moved];
    names.erase(names.begin() + static_cast<std::ptrdiff_t>(moved));
    ExpectFoldMatchesOracle(store, names);
    names.push_back(table);
    ExpectFoldMatchesOracle(store, names);
    // Re-matching it from scratch stores its pairs oriented to the new
    // position, mixed with pairs still stored under the old one.
    store.PurgeTable(table);
    for (size_t i = 0; i + 1 < names.size(); ++i) {
      if (rng.Bernoulli(0.5)) {
        store.SetMatches(names[i], table, RandomMatches(&rng));
      }
    }
    ExpectFoldMatchesOracle(store, names);
  }
}

TEST(DrgMatchStoreFoldTest, EmptyStoreGivesNodesOnly) {
  DrgMatchStore store;
  const std::vector<std::string> order = TableNames(5);
  ExpectFoldMatchesOracle(store, order);
  auto built = store.BuildGraph(order);
  ASSERT_TRUE(built.ok());
  EXPECT_EQ(built->num_nodes(), 5u);
  EXPECT_EQ(built->num_edges(), 0u);
}

}  // namespace
}  // namespace autofeat
