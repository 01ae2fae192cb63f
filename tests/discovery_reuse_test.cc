// Distinct-join reuse inside one discovery (DESIGN.md §4.15). The engine
// scores each (right table, composed row mapping) once and replays the
// memoised codes, relevance scores and redundancy terms for every other path
// that reaches the same rows. Names are not part of the key, so a path whose
// appended columns were collision-renamed must still report its own names
// with the scores its own columns earn, and a duplicate within one batch
// must not make the result depend on the thread count.
//
// The lake: base(id, id_copy, b, label) joins T(id, value, t_other) and
// A(id, value) on id, and T again on id_copy (equal to id). The first BFS
// round scores base->T via id, base->T via id_copy (a duplicate within the
// batch: same rows, same names) and base->A. The second reaches the same
// joins again: base->T->A maps every base row to the A row base->A does,
// but T already appended "value", so A's "value" arrives as "value#2".

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "core/autofeat.h"
#include "discovery/data_lake.h"
#include "fs/feature_view.h"
#include "fs/relevance.h"
#include "graph/drg.h"
#include "support/lake_fixtures.h"
#include "table/column.h"
#include "util/rng.h"

namespace autofeat {
namespace {

constexpr size_t kRows = 300;

struct ReuseLake {
  DataLake lake;
  DatasetRelationGraph drg;
};

ReuseLake MakeReuseLake() {
  Rng rng(11);
  std::vector<int64_t> ids(kRows);
  std::vector<int64_t> labels(kRows);
  std::vector<double> noise(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    ids[i] = static_cast<int64_t>(i);
    labels[i] = static_cast<int64_t>(i % 2);
    noise[i] = rng.Normal(0, 1);
  }
  Table base("base");
  base.AddColumn("id", Column::Int64s(ids)).Abort();
  base.AddColumn("id_copy", Column::Int64s(ids)).Abort();
  base.AddColumn("b", Column::Doubles(noise)).Abort();
  base.AddColumn("label", Column::Int64s(labels)).Abort();

  // Both satellites hold one row per key, in shuffled order.
  std::vector<size_t> perm = rng.Permutation(kRows);
  std::vector<int64_t> sat_ids(kRows);
  std::vector<double> hub_value(kRows);
  std::vector<double> signal(kRows);
  std::vector<double> weaker(kRows);
  for (size_t r = 0; r < kRows; ++r) {
    size_t i = perm[r];
    sat_ids[r] = static_cast<int64_t>(i);
    double y = static_cast<double>(labels[i]);
    hub_value[r] = 0.5 * y + rng.Normal(0, 1);
    signal[r] = 2.0 * y + rng.Normal(0, 1);
    weaker[r] = y + rng.Normal(0, 1);
  }
  Table hub("A");
  hub.AddColumn("id", Column::Int64s(sat_ids)).Abort();
  hub.AddColumn("value", Column::Doubles(hub_value)).Abort();
  Table target("T");
  target.AddColumn("id", Column::Int64s(sat_ids)).Abort();
  target.AddColumn("value", Column::Doubles(signal)).Abort();
  target.AddColumn("t_other", Column::Doubles(weaker)).Abort();

  ReuseLake out;
  out.lake.AddTable(std::move(base)).Abort();
  out.lake.AddTable(std::move(hub)).Abort();
  out.lake.AddTable(std::move(target)).Abort();
  out.drg.AddNode("base");
  out.drg.AddNode("A");
  out.drg.AddNode("T");
  // T's edges come first, so the first BFS round scores T before A: A's
  // "value" then finds that name already selected.
  out.drg.AddEdge("base", "id", "T", "id", 1.0).Abort();
  out.drg.AddEdge("base", "id_copy", "T", "id", 1.0).Abort();
  out.drg.AddEdge("base", "id", "A", "id", 1.0).Abort();
  out.drg.AddEdge("A", "id", "T", "id", 1.0).Abort();
  return out;
}

AutoFeatConfig ReuseConfig(size_t threads) {
  AutoFeatConfig config;
  config.sample_rows = 0;          // discovery scores the rows replayed below
  config.dedup_node_sets = false;  // keep both base->T edges in one batch
  config.max_hops = 2;
  config.num_threads = threads;
  return config;
}

std::string PathString(const DatasetRelationGraph& drg, const JoinPath& p) {
  std::string out = "base";
  for (const JoinStep& s : p.steps) {
    out += " -" + s.from_column + "-> " + drg.NodeName(s.to_node);
  }
  return out;
}

const RankedPath* FindPath(const DiscoveryResult& result,
                           const DatasetRelationGraph& drg,
                           const std::string& path) {
  for (const RankedPath& rp : result.ranked) {
    if (PathString(drg, rp.path) == path) return &rp;
  }
  return nullptr;
}

double ScoreOf(const RankedPath& rp, const std::string& name) {
  for (const FeatureScore& fs : rp.selected_features) {
    if (fs.name == name) return fs.score;
  }
  ADD_FAILURE() << "feature " << name << " not selected";
  return 0.0;
}

TEST(DiscoveryReuseTest, ReusedJoinReportsItsOwnNamesAndScores) {
  ReuseLake lk = MakeReuseLake();
  // Relevance-only ablation: every relevant feature whose name is not yet
  // selected is accepted with its relevance score.
  AutoFeatConfig config = ReuseConfig(1);
  config.use_redundancy = false;
  AutoFeat engine(&lk.lake, &lk.drg, config);
  auto result = engine.DiscoverFeatures("base", "label");
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  const RankedPath* direct = FindPath(*result, lk.drg, "base -id-> T");
  ASSERT_NE(direct, nullptr);
  ScoreOf(*direct, "value");
  // base -id_copy-> T brings the same columns under the same names, all
  // already selected, so it is never ranked.
  EXPECT_EQ(FindPath(*result, lk.drg, "base -id_copy-> T"), nullptr);
  // The reused A join reports A's value under this path's name.
  const RankedPath* reused =
      FindPath(*result, lk.drg, "base -id-> T -id-> A");
  ASSERT_NE(reused, nullptr);
  ScoreOf(*reused, "value#2");

  // Oracle: each ranked path's selected scores are the relevance its own
  // materialised columns earn under its own names.
  RelevanceOptions relevance;
  relevance.kind = config.relevance;
  relevance.seed = config.seed;
  for (const RankedPath& rp : result->ranked) {
    auto table = engine.MaterializeAugmentedTable("base", rp, "label");
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    auto view = FeatureView::FromTable(*table, "label");
    ASSERT_TRUE(view.ok());
    for (const FeatureScore& fs : rp.selected_features) {
      auto f = view->FeatureIndex(fs.name);
      ASSERT_TRUE(f.has_value()) << fs.name;
      double expected = ScoreRelevance(*view, {*f}, relevance)[0].score;
      EXPECT_EQ(std::bit_cast<uint64_t>(fs.score),
                std::bit_cast<uint64_t>(expected))
          << PathString(lk.drg, rp.path) << " " << fs.name;
    }
  }
}

TEST(DiscoveryReuseTest, FingerprintsIndependentOfThreadCount) {
  ReuseLake lk = MakeReuseLake();
  for (RedundancyKind kind :
       {RedundancyKind::kMifs, RedundancyKind::kMrmr, RedundancyKind::kCife,
        RedundancyKind::kJmi, RedundancyKind::kCmim}) {
    for (bool use_redundancy : {true, false}) {
      std::string expected;
      for (size_t threads : {1, 2, 8}) {
        AutoFeatConfig config = ReuseConfig(threads);
        config.redundancy = kind;
        config.use_redundancy = use_redundancy;
        AutoFeat engine(&lk.lake, &lk.drg, config);
        auto result = engine.DiscoverFeatures("base", "label");
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        std::string fingerprint = testsupport::RankedFingerprint(*result);
        if (threads == 1) {
          expected = fingerprint;
          EXPECT_FALSE(result->ranked.empty());
        } else {
          EXPECT_EQ(fingerprint, expected)
              << RedundancyKindName(kind) << " threads=" << threads;
        }
      }
    }
  }
}

}  // namespace
}  // namespace autofeat
