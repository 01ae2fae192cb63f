#include "graph/drg.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

namespace autofeat {
namespace {

// Base -- A -- C, Base -- B; A-B also connected (triangle-ish).
DatasetRelationGraph MakeGraph() {
  DatasetRelationGraph g;
  g.AddEdge("base", "id", "a", "base_id", 1.0).Abort();
  g.AddEdge("base", "id", "b", "base_id", 1.0).Abort();
  g.AddEdge("a", "c_code", "c", "code", 1.0).Abort();
  g.AddEdge("a", "x", "b", "y", 0.7).Abort();
  return g;
}

TEST(DrgTest, AddNodeIsIdempotent) {
  DatasetRelationGraph g;
  size_t a = g.AddNode("t");
  size_t b = g.AddNode("t");
  EXPECT_EQ(a, b);
  EXPECT_EQ(g.num_nodes(), 1u);
  EXPECT_EQ(g.NodeName(a), "t");
}

TEST(DrgTest, NodeIdLookup) {
  auto g = MakeGraph();
  EXPECT_TRUE(g.NodeId("base").ok());
  EXPECT_EQ(g.NodeId("missing").status().code(), StatusCode::kKeyError);
}

TEST(DrgTest, SelfLoopRejected) {
  DatasetRelationGraph g;
  EXPECT_EQ(g.AddEdge("t", "a", "t", "b", 1.0).code(),
            StatusCode::kInvalidArgument);
}

TEST(DrgTest, DuplicateEdgeKeepsMaxWeight) {
  DatasetRelationGraph g;
  g.AddEdge("x", "c1", "y", "c2", 0.5).Abort();
  g.AddEdge("x", "c1", "y", "c2", 0.9).Abort();
  g.AddEdge("y", "c2", "x", "c1", 0.2).Abort();  // Same edge, reversed.
  EXPECT_EQ(g.num_edges(), 1u);
  auto edges = g.EdgesBetween(*g.NodeId("x"), *g.NodeId("y"));
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_DOUBLE_EQ(edges[0].weight, 0.9);
}

TEST(DrgTest, MultigraphKeepsDistinctColumnPairs) {
  DatasetRelationGraph g;
  g.AddEdge("x", "c1", "y", "d1", 0.6).Abort();
  g.AddEdge("x", "c2", "y", "d2", 0.8).Abort();
  EXPECT_EQ(g.num_edges(), 2u);
  auto edges = g.EdgesBetween(*g.NodeId("x"), *g.NodeId("y"));
  EXPECT_EQ(edges.size(), 2u);
}

TEST(DrgTest, NeighborsUniqueAcrossMultiEdges) {
  DatasetRelationGraph g;
  g.AddEdge("x", "c1", "y", "d1", 0.6).Abort();
  g.AddEdge("x", "c2", "y", "d2", 0.8).Abort();
  auto n = g.Neighbors(*g.NodeId("x"));
  EXPECT_EQ(n.size(), 1u);
}

TEST(DrgTest, EdgesAreOrientedFromCaller) {
  auto g = MakeGraph();
  size_t a = *g.NodeId("a");
  size_t base = *g.NodeId("base");
  auto from_base = g.EdgesBetween(base, a);
  ASSERT_EQ(from_base.size(), 1u);
  EXPECT_EQ(from_base[0].from_column, "id");
  EXPECT_EQ(from_base[0].to_column, "base_id");
  auto from_a = g.EdgesBetween(a, base);
  ASSERT_EQ(from_a.size(), 1u);
  EXPECT_EQ(from_a[0].from_column, "base_id");
  EXPECT_EQ(from_a[0].to_column, "id");
}

TEST(DrgTest, BestEdgesKeepsTopWeightTies) {
  DatasetRelationGraph g;
  g.AddEdge("x", "a", "y", "a2", 0.9).Abort();
  g.AddEdge("x", "b", "y", "b2", 0.9).Abort();
  g.AddEdge("x", "c", "y", "c2", 0.5).Abort();
  auto best = g.BestEdgesBetween(*g.NodeId("x"), *g.NodeId("y"));
  EXPECT_EQ(best.size(), 2u);
  for (const auto& e : best) EXPECT_DOUBLE_EQ(e.weight, 0.9);
}

TEST(DrgTest, EnumeratePathsBfsOrderAndAcyclicity) {
  auto g = MakeGraph();
  size_t base = *g.NodeId("base");
  auto paths = g.EnumeratePaths(base, 3);
  // Length-1: base->a, base->b. Length-2: base->a->c, base->a->b,
  // base->b->a. Length-3: base->b->a->c.
  ASSERT_EQ(paths.size(), 6u);
  EXPECT_EQ(paths[0].length(), 1u);
  EXPECT_EQ(paths[1].length(), 1u);
  EXPECT_EQ(paths[5].length(), 3u);
  for (const auto& p : paths) {
    // No node revisits.
    std::vector<size_t> nodes{base};
    for (const auto& s : p.steps) nodes.push_back(s.to_node);
    std::sort(nodes.begin(), nodes.end());
    EXPECT_TRUE(std::adjacent_find(nodes.begin(), nodes.end()) == nodes.end());
  }
}

TEST(DrgTest, EnumeratePathsRespectsMaxHops) {
  auto g = MakeGraph();
  size_t base = *g.NodeId("base");
  auto paths = g.EnumeratePaths(base, 1);
  EXPECT_EQ(paths.size(), 2u);
  EXPECT_TRUE(g.EnumeratePaths(base, 0).empty());
}

TEST(DrgTest, EnumeratePathsMultiEdgeYieldsDistinctPaths) {
  DatasetRelationGraph g;
  g.AddEdge("s", "c1", "t", "d1", 0.9).Abort();
  g.AddEdge("s", "c2", "t", "d2", 0.4).Abort();
  auto all = g.EnumeratePaths(*g.NodeId("s"), 2);
  EXPECT_EQ(all.size(), 2u);
  auto pruned = g.EnumeratePaths(*g.NodeId("s"), 2,
                                 /*prune_to_best_edges=*/true);
  ASSERT_EQ(pruned.size(), 1u);
  EXPECT_DOUBLE_EQ(pruned[0].steps[0].weight, 0.9);
}

TEST(JoinPathTest, TerminalAndContains) {
  JoinPath p;
  EXPECT_EQ(p.Terminal(5), 5u);
  p = p.Extend(JoinStep{5, 7, "a", "b", 1.0});
  EXPECT_EQ(p.Terminal(5), 7u);
  EXPECT_TRUE(p.ContainsNode(5));
  EXPECT_TRUE(p.ContainsNode(7));
  EXPECT_FALSE(p.ContainsNode(9));
}

TEST(JoinAllCountTest, StarSchemaFactorial) {
  // A star with 15 satellites -> 15! paths (Eq. 3), log10(15!) ~ 12.1.
  DatasetRelationGraph g;
  for (int i = 0; i < 15; ++i) {
    g.AddEdge("base", "id", "t" + std::to_string(i), "id", 1.0).Abort();
  }
  double log_paths = g.JoinAllPathCountLog10(*g.NodeId("base"));
  EXPECT_NEAR(log_paths, std::log10(1307674368000.0), 1e-9);
}

TEST(JoinAllCountTest, ChainHasSinglePath) {
  DatasetRelationGraph g;
  g.AddEdge("a", "x", "b", "x", 1.0).Abort();
  g.AddEdge("b", "y", "c", "y", 1.0).Abort();
  EXPECT_DOUBLE_EQ(g.JoinAllPathCountLog10(*g.NodeId("a")), 0.0);  // 1 path.
}

TEST(JoinAllCountTest, TwoLevels) {
  // base - {a, b}; a - {c, d}: 2! * 2! * 1 = 4 paths.
  DatasetRelationGraph g;
  g.AddEdge("base", "k", "a", "k", 1.0).Abort();
  g.AddEdge("base", "k2", "b", "k2", 1.0).Abort();
  g.AddEdge("a", "m", "c", "m", 1.0).Abort();
  g.AddEdge("a", "n", "d", "n", 1.0).Abort();
  EXPECT_NEAR(g.JoinAllPathCountLog10(*g.NodeId("base")), std::log10(4.0),
              1e-12);
}


TEST(ReachabilityTest, ReachableFromFindsComponent) {
  auto g = MakeGraph();  // base-a-b-c all connected.
  size_t base = *g.NodeId("base");
  EXPECT_EQ(g.ReachableFrom(base).size(), 4u);
  EXPECT_TRUE(g.UnreachableFrom(base).empty());
}

TEST(ReachabilityTest, IsolatedNodesReported) {
  auto g = MakeGraph();
  size_t island = g.AddNode("island");
  size_t island2 = g.AddNode("island2");
  g.AddEdge("island", "x", "island2", "y", 0.9).Abort();
  size_t base = *g.NodeId("base");
  auto unreachable = g.UnreachableFrom(base);
  ASSERT_EQ(unreachable.size(), 2u);
  EXPECT_EQ(unreachable[0], island);
  EXPECT_EQ(unreachable[1], island2);
  // From the island, the main component is unreachable.
  EXPECT_EQ(g.ReachableFrom(island).size(), 2u);
  EXPECT_EQ(g.UnreachableFrom(island).size(), 4u);
}

TEST(ReachabilityTest, SingletonGraph) {
  DatasetRelationGraph g;
  size_t only = g.AddNode("only");
  EXPECT_EQ(g.ReachableFrom(only), (std::vector<size_t>{only}));
  EXPECT_TRUE(g.UnreachableFrom(only).empty());
}

}  // namespace
}  // namespace autofeat
