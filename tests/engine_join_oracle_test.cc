// Oracle test for the engine's join path: over randomized synthetic lakes,
// every ranked path that discovery reports is replayed with the
// string-keyed reference join (JoinStringKeyed). The replay must agree with
// what the engine scored through its interned index and gathered views:
// every hop matches rows and clears tau, every selected feature exists, the
// engine's materialisation equals the replay, and Augment's accuracy is the
// one a model trained on the replayed best path reaches. The generated
// lakes' satellite key columns are unique (permutation subsets), so the
// cardinality-normalisation representative is forced and the replay is
// exact, not approximate. sample_rows = 0 makes discovery see the same base
// rows the replay joins.

#include <gtest/gtest.h>

#include <string>
#include <unordered_set>
#include <vector>

#include "core/autofeat.h"
#include "datagen/lake_builder.h"
#include "discovery/data_lake.h"
#include "ml/trainer.h"
#include "relational/join.h"

namespace autofeat {
namespace {

struct LakeVariant {
  uint64_t seed;
  size_t rows;
  size_t joinable_tables;
  size_t total_features;
  bool star_schema;
};

// Replays `ranked` from the full base table with the reference join,
// asserting per hop that the join matched rows and cleared tau. Returns the
// fully joined table.
Table ReplayPath(const DataLake& lake, const DatasetRelationGraph& drg,
                 const Table& base, const RankedPath& ranked, double tau) {
  Table current = base;
  Rng rng(0);
  for (const JoinStep& step : ranked.path.steps) {
    auto right = lake.GetTable(drg.NodeName(step.to_node));
    EXPECT_TRUE(right.ok());
    if (!right.ok()) return current;
    auto joined = JoinStringKeyed(current, step.from_column, **right,
                                  step.to_column, &rng);
    EXPECT_TRUE(joined.ok()) << joined.status().ToString();
    if (!joined.ok()) return current;
    EXPECT_GT(joined->stats.matched_rows, 0u) << step.from_column;
    std::vector<std::string> appended;
    for (const std::string& name : joined->table.ColumnNames()) {
      if (!current.HasColumn(name)) appended.push_back(name);
    }
    auto completeness = JoinCompleteness(joined->table, appended);
    EXPECT_TRUE(completeness.ok());
    if (completeness.ok()) {
      EXPECT_GE(*completeness, tau) << step.from_column;
    }
    current = std::move(joined->table);
  }
  return current;
}

// Base columns plus the path's selected features, in the order
// MaterializeAugmentedTable keeps them.
Table RestrictToSelected(const Table& base, const Table& replay,
                         const RankedPath& ranked) {
  std::vector<std::string> keep = base.ColumnNames();
  std::unordered_set<std::string> seen(keep.begin(), keep.end());
  for (const FeatureScore& fs : ranked.selected_features) {
    if (seen.insert(fs.name).second) keep.push_back(fs.name);
  }
  auto restricted = replay.SelectColumns(keep);
  EXPECT_TRUE(restricted.ok()) << restricted.status().ToString();
  return restricted.ok() ? *restricted : Table();
}

TEST(EngineJoinOracleTest, RankedPathsReplayWithReferenceJoin) {
  const LakeVariant variants[] = {
      {7, 300, 4, 20, false},
      {11, 400, 6, 30, false},
      {23, 350, 5, 24, true},
      {101, 500, 7, 36, false},
      {977, 250, 3, 16, true},
  };

  for (const LakeVariant& variant : variants) {
    SCOPED_TRACE("lake seed " + std::to_string(variant.seed));
    datagen::LakeSpec spec;
    spec.seed = variant.seed;
    spec.rows = variant.rows;
    spec.joinable_tables = variant.joinable_tables;
    spec.total_features = variant.total_features;
    spec.star_schema = variant.star_schema;
    datagen::BuiltLake built = datagen::BuildLake(spec);
    auto drg = BuildDrgFromKfk(built.lake);
    ASSERT_TRUE(drg.ok());
    auto base = built.lake.GetTable(built.base_table);
    ASSERT_TRUE(base.ok());

    // The default tau prunes no join on these lakes; 0.85 prunes deeper
    // hops, so the replay's tau check also meets paths near the boundary.
    for (double tau : {AutoFeatConfig{}.tau, 0.85}) {
      SCOPED_TRACE("tau " + std::to_string(tau));
      AutoFeatConfig config;
      config.seed = variant.seed;
      config.sample_rows = 0;
      config.tau = tau;
      AutoFeat engine(&built.lake, &*drg, config);
      auto discovery =
          engine.DiscoverFeatures(built.base_table, built.label_column);
      ASSERT_TRUE(discovery.ok());
      if (tau == AutoFeatConfig{}.tau) {
        EXPECT_GT(discovery->ranked.size(), 0u);
      }

      for (const RankedPath& ranked : discovery->ranked) {
        Table replay = ReplayPath(built.lake, *drg, **base, ranked, tau);
        for (const FeatureScore& fs : ranked.selected_features) {
          EXPECT_TRUE(replay.HasColumn(fs.name)) << fs.name;
        }
        auto materialised = engine.MaterializeAugmentedTable(
            built.base_table, ranked, built.label_column);
        ASSERT_TRUE(materialised.ok());
        EXPECT_TRUE(
            materialised->Equals(RestrictToSelected(**base, replay, ranked)));
      }

      // End to end: the winning table's accuracy is reproduced by training
      // on the replayed best path (the bare base table when no path won).
      auto augmented = engine.Augment(built.base_table, built.label_column,
                                      ml::ModelKind::kKnn);
      ASSERT_TRUE(augmented.ok());
      Table best = RestrictToSelected(
          **base,
          ReplayPath(built.lake, *drg, **base, augmented->best_path, tau),
          augmented->best_path);
      ml::TrainerOptions trainer_options;
      trainer_options.seed = config.seed;
      auto replayed =
          ml::TrainAndEvaluate(best, built.label_column, ml::ModelKind::kKnn,
                               trainer_options);
      ASSERT_TRUE(replayed.ok());
      EXPECT_EQ(augmented->accuracy, replayed->accuracy);
    }
  }
}

}  // namespace
}  // namespace autofeat
