// Edits to a discovered DatasetRelationGraph: ReplaceNodeEdges and
// RemoveNode, as a served lake applies them for an add, an append or a drop,
// checked against a cold fold of the whole lake. The edited graph must be
// byte-identical to the cold one whatever the order of the edits, after a
// dropped table is re-added at the end of the lake (its pairs flip), and
// with tied scores or repeated column pairs.

#include "graph/drg.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace autofeat {
namespace {

// A model lake for the edits: table names in lake order, each with a
// version an append bumps. Two tables' matches are a pure function of the
// two (name, version) pairs, as a schema matcher's are: drawn once per
// unordered pair and flipped when asked in the other orientation. A third
// of the pairs match nothing; the rest carry one to four matches with
// scores from four values (ties are common) and now and then a repeated
// column pair, which AddEdge folds into its first edge at the max weight.
class EditModel {
 public:
  explicit EditModel(uint64_t seed) : rng_(seed) {}

  std::vector<std::string> names;
  std::vector<size_t> versions;

  // Matches of the tables at lake positions i < j, oriented i -> j.
  std::vector<ColumnMatch> Matches(size_t i, size_t j) {
    const std::string left = Key(i);
    const std::string right = Key(j);
    const bool flip = right < left;
    auto [it, fresh] = memo_.try_emplace(
        flip ? std::make_pair(right, left) : std::make_pair(left, right));
    if (fresh && rng_.UniformIndex(3) != 0) {
      const size_t count = 1 + rng_.UniformIndex(4);
      for (size_t m = 0; m < count; ++m) {
        it->second.push_back(
            {"c" + std::to_string(rng_.UniformIndex(3)),
             "d" + std::to_string(rng_.UniformIndex(3)),
             0.5 + 0.125 * static_cast<double>(rng_.UniformIndex(4))});
      }
    }
    std::vector<ColumnMatch> out = it->second;
    if (flip) {
      for (ColumnMatch& m : out) std::swap(m.left_column, m.right_column);
    }
    return out;
  }

  // The cold fold over the current lake: nodes in lake order, then every
  // pair's matches in ascending (i, j), as FoldPairMatches adds them.
  DatasetRelationGraph ColdFold() {
    DatasetRelationGraph drg;
    for (const std::string& name : names) drg.AddNode(name);
    for (size_t i = 0; i < names.size(); ++i) {
      for (size_t j = i + 1; j < names.size(); ++j) {
        for (const ColumnMatch& m : Matches(i, j)) {
          drg.AddEdge(names[i], m.left_column, names[j], m.right_column,
                      m.score)
              .Abort();
        }
      }
    }
    return drg;
  }

  // Hands the edit every matched pair touching `node` plus a random half
  // of its unmatched ones (scored candidates that found nothing), ascending.
  Status EditNode(DatasetRelationGraph* drg, size_t node) {
    std::vector<std::pair<size_t, size_t>> pairs;
    std::vector<std::vector<ColumnMatch>> matches;
    for (size_t u = 0; u < names.size(); ++u) {
      if (u == node) continue;
      const size_t i = std::min(u, node);
      const size_t j = std::max(u, node);
      std::vector<ColumnMatch> m = Matches(i, j);
      if (m.empty() && rng_.Bernoulli(0.5)) continue;
      pairs.emplace_back(i, j);
      matches.push_back(std::move(m));
    }
    return drg->ReplaceNodeEdges(node, pairs, matches);
  }

  Rng& rng() { return rng_; }

 private:
  std::string Key(size_t i) const {
    return names[i] + "#" + std::to_string(versions[i]);
  }

  Rng rng_;
  std::map<std::pair<std::string, std::string>, std::vector<ColumnMatch>>
      memo_;
};

std::string RenderPaths(const std::vector<JoinPath>& paths) {
  std::ostringstream out;
  out.precision(17);
  for (const JoinPath& path : paths) {
    for (const JoinStep& s : path.steps) {
      out << s.from_node << "." << s.from_column << ">" << s.to_node << "."
          << s.to_column << "=" << s.weight << " ";
    }
    out << "\n";
  }
  return out.str();
}

void ExpectSameAsColdFold(const DatasetRelationGraph& edited,
                          const DatasetRelationGraph& cold) {
  EXPECT_EQ(edited.OrderedFingerprint(), cold.OrderedFingerprint());
  EXPECT_EQ(edited.AllEdges(), cold.AllEdges());
  ASSERT_EQ(edited.num_nodes(), cold.num_nodes());
  for (size_t v = 0; v < cold.num_nodes(); ++v) {
    EXPECT_EQ(*edited.NodeId(cold.NodeName(v)), v);
    EXPECT_EQ(edited.Neighbors(v), cold.Neighbors(v));
  }
  if (cold.num_nodes() > 0) {
    const size_t start = cold.num_nodes() / 2;
    EXPECT_EQ(RenderPaths(edited.EnumeratePaths(start, 2)),
              RenderPaths(cold.EnumeratePaths(start, 2)));
  }
}

TEST(DrgEditTest, RandomEditSequencesMatchTheColdFold) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    EditModel model(seed);
    size_t next_name = 0;
    for (size_t t = 0, n = 2 + model.rng().UniformIndex(8); t < n; ++t) {
      model.names.push_back("t" + std::to_string(next_name++));
      model.versions.push_back(0);
    }
    DatasetRelationGraph drg = model.ColdFold();
    ExpectSameAsColdFold(drg, model.ColdFold());
    std::vector<std::string> dropped;
    for (int step = 0; step < 30; ++step) {
      const size_t n = model.names.size();
      const size_t op = n == 0 ? 0 : model.rng().UniformIndex(3);
      if (op == 0) {
        // Add: a new table, or a dropped one back at the end of the lake,
        // so its pairs with every table it used to precede flip.
        std::string name = "t" + std::to_string(next_name++);
        if (!dropped.empty() && model.rng().Bernoulli(0.5)) {
          name = dropped.back();
          dropped.pop_back();
        }
        model.names.push_back(name);
        model.versions.push_back(0);
        ASSERT_EQ(drg.AddNode(name), n);
        ASSERT_TRUE(model.EditNode(&drg, n).ok());
      } else if (op == 1) {
        // Append: the table's matches change, its position does not.
        const size_t node = model.rng().UniformIndex(n);
        ++model.versions[node];
        ASSERT_TRUE(model.EditNode(&drg, node).ok());
      } else {
        const size_t node = model.rng().UniformIndex(n);
        dropped.push_back(model.names[node]);
        model.names.erase(model.names.begin() +
                          static_cast<std::ptrdiff_t>(node));
        model.versions.erase(model.versions.begin() +
                             static_cast<std::ptrdiff_t>(node));
        drg.RemoveNode(node);
      }
      ExpectSameAsColdFold(drg, model.ColdFold());
    }
  }
}

TEST(DrgEditTest, TiedScoresKeepMatchOrder) {
  // Tied matches keep the order the matcher listed them in, flipped or
  // not; a repeated column pair keeps its first position at the max weight.
  DatasetRelationGraph drg;
  drg.AddNode("a");
  drg.AddNode("b");
  drg.AddNode("c");
  ASSERT_TRUE(drg.ReplaceNodeEdges(
                     2, {{0, 2}, {1, 2}},
                     {{{"x", "y", 0.9}, {"w", "z", 0.9}, {"x", "y", 0.95}},
                      {{"q", "r", 0.7}}})
                  .ok());
  DatasetRelationGraph cold;
  for (const char* name : {"a", "b", "c"}) cold.AddNode(name);
  cold.AddEdge("a", "x", "c", "y", 0.9).Abort();
  cold.AddEdge("a", "w", "c", "z", 0.9).Abort();
  cold.AddEdge("a", "x", "c", "y", 0.95).Abort();
  cold.AddEdge("b", "q", "c", "r", 0.7).Abort();
  ExpectSameAsColdFold(drg, cold);
  ASSERT_EQ(drg.num_edges(), 3u);
  EXPECT_EQ(drg.AllEdges()[0].weight, 0.95);
  EXPECT_EQ(drg.AllEdges()[1].a_column, "w");
}

TEST(DrgEditTest, MalformedPairsAreRejectedAndChangeNothing) {
  DatasetRelationGraph drg;
  for (const char* name : {"a", "b", "c", "d"}) drg.AddNode(name);
  drg.AddEdge("a", "x", "b", "y", 0.8).Abort();
  const std::string before = drg.OrderedFingerprint();
  const std::vector<ColumnMatch> one = {{"x", "y", 0.9}};
  struct Case {
    const char* label;
    size_t node;
    std::vector<std::pair<size_t, size_t>> pairs;
    std::vector<std::vector<ColumnMatch>> matches;
  };
  for (const Case& c :
       {Case{"scrambled", 2, {{2, 3}, {0, 2}}, {one, one}},
        Case{"repeated", 2, {{0, 2}, {0, 2}}, {one, one}},
        Case{"flipped", 2, {{2, 0}}, {one}},
        Case{"not touching", 2, {{0, 1}}, {one}},
        Case{"out of range", 2, {{2, 4}}, {one}},
        Case{"short match list", 2, {{0, 2}}, {}}}) {
    EXPECT_EQ(drg.ReplaceNodeEdges(c.node, c.pairs, c.matches).code(),
              StatusCode::kInvalidArgument)
        << c.label;
    EXPECT_EQ(drg.OrderedFingerprint(), before) << c.label;
  }
}

TEST(DrgEditTest, RemoveNodeShiftsLaterIds) {
  // Base -- A -- C, Base -- B, A -- B.
  DatasetRelationGraph g;
  g.AddEdge("base", "id", "a", "base_id", 1.0).Abort();
  g.AddEdge("base", "id", "b", "base_id", 1.0).Abort();
  g.AddEdge("a", "c_code", "c", "code", 1.0).Abort();
  g.AddEdge("a", "x", "b", "y", 0.7).Abort();
  g.RemoveNode(*g.NodeId("a"));
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.NodeName(1), "b");
  EXPECT_EQ(*g.NodeId("c"), 2u);
  EXPECT_FALSE(g.NodeId("a").ok());
  // Only base-b survives; c lost its one edge.
  ASSERT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.AllEdges()[0], (DrgEdge{0, 1, "id", "base_id", 1.0}));
  EXPECT_TRUE(g.Neighbors(2).empty());
}

}  // namespace
}  // namespace autofeat
