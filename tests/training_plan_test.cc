// Differential tests of Augment's one training path: a path model's inputs
// come from GatherSelectedColumns plus an ml::TrainingPlan of the base, and
// must equal, bit for bit, what encoding the materialised augmented table
// gives after the same split. MaterializeAugmentedTable itself must equal a
// replay of the full left-join chain that resolves every hop's left key by
// name in the accumulated table.

#include "ml/trainer.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/autofeat.h"
#include "datagen/registry.h"
#include "discovery/data_lake.h"
#include "discovery/join_index_cache.h"
#include "relational/join_index.h"
#include "util/rng.h"

namespace autofeat {
namespace {

// The full join of every column of every hop, then the base columns plus
// the selected features.
Table ReplayFullJoin(const DataLake& lake, const DatasetRelationGraph& drg,
                     uint64_t seed, const std::string& base_name,
                     const RankedPath& ranked) {
  JoinIndexCache cache(&lake, seed);
  const Table* base = lake.GetTable(base_name).ValueOrDie();
  Table current = *base;
  for (const JoinStep& step : ranked.path.steps) {
    const std::string& right_name = drg.NodeName(step.to_node);
    const Table* right = lake.GetTable(right_name).ValueOrDie();
    auto index = cache.GetOrBuild(right_name, step.to_column).ValueOrDie();
    current = LeftJoinWithIndex(current, step.from_column, *right, *index)
                  .ValueOrDie()
                  .table;
  }
  std::vector<std::string> keep = base->ColumnNames();
  std::unordered_set<std::string> seen(keep.begin(), keep.end());
  for (const FeatureScore& fs : ranked.selected_features) {
    if (seen.insert(fs.name).second && current.HasColumn(fs.name)) {
      keep.push_back(fs.name);
    }
  }
  return current.SelectColumns(keep).ValueOrDie();
}

void ExpectDatasetsEqual(const ml::Dataset& got, const ml::Dataset& want) {
  ASSERT_EQ(got.feature_names(), want.feature_names());
  ASSERT_EQ(got.labels(), want.labels());
  for (size_t f = 0; f < want.num_features(); ++f) {
    ASSERT_EQ(got.column(f).size(), want.column(f).size());
    for (size_t r = 0; r < want.column(f).size(); ++r) {
      ASSERT_EQ(std::bit_cast<uint64_t>(got.column(f)[r]),
                std::bit_cast<uint64_t>(want.column(f)[r]))
          << want.feature_names()[f] << " row " << r;
    }
  }
}

// Checks every path of `paths` on one lake: the materialisation against
// the replay, and the plan's datasets against the encoded materialisation.
void CheckPaths(const DataLake& lake, const DatasetRelationGraph& drg,
                const std::string& base_name, const std::string& label,
                const std::vector<RankedPath>& paths,
                const std::vector<ml::ModelKind>& kinds) {
  AutoFeatConfig config;
  AutoFeat engine(&lake, &drg, config);
  const Table* base = lake.GetTable(base_name).ValueOrDie();
  ml::TrainerOptions options;
  options.seed = config.seed;
  for (ml::ModelKind kind : kinds) {
    SCOPED_TRACE(ml::ModelKindName(kind));
    auto plan = ml::TrainingPlan::Make(*base, label, kind, options);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    for (size_t p = 0; p < paths.size(); ++p) {
      SCOPED_TRACE("path " + std::to_string(p));
      auto augmented =
          engine.MaterializeAugmentedTable(base_name, paths[p], label);
      ASSERT_TRUE(augmented.ok()) << augmented.status().ToString();
      EXPECT_TRUE(augmented->Equals(
          ReplayFullJoin(lake, drg, config.seed, base_name, paths[p])));

      auto selected = engine.GatherSelectedColumns(base_name, paths[p]);
      ASSERT_TRUE(selected.ok()) << selected.status().ToString();
      auto datasets = plan->Datasets(*selected);
      ASSERT_TRUE(datasets.ok()) << datasets.status().ToString();
      ml::Dataset full = ml::Dataset::FromTable(*augmented, label).MoveValue();
      ExpectDatasetsEqual(datasets->first, full.TakeRows(plan->split().train));
      ExpectDatasetsEqual(datasets->second, full.TakeRows(plan->split().test));

      auto planned = plan->Evaluate(*selected);
      auto direct = ml::TrainAndEvaluate(*augmented, label, kind, options);
      ASSERT_TRUE(planned.ok()) << planned.status().ToString();
      ASSERT_TRUE(direct.ok()) << direct.status().ToString();
      EXPECT_EQ(std::bit_cast<uint64_t>(planned->accuracy),
                std::bit_cast<uint64_t>(direct->accuracy));
      EXPECT_EQ(std::bit_cast<uint64_t>(planned->auc),
                std::bit_cast<uint64_t>(direct->auc));
    }
  }
}

TEST(TrainingPlanTest, RegistryLakesMatchTheMaterialisedTable) {
  for (datagen::DatasetSpec spec : datagen::PaperDatasets()) {
    SCOPED_TRACE(spec.name);
    spec.rows = 500;
    datagen::BuiltLake built = datagen::BuildPaperLake(spec, 7);
    auto drg = BuildDrgFromKfk(built.lake);
    ASSERT_TRUE(drg.ok());
    AutoFeatConfig config;
    config.sample_rows = 300;
    AutoFeat engine(&built.lake, &*drg, config);
    auto discovery =
        engine.DiscoverFeatures(built.base_table, built.label_column);
    ASSERT_TRUE(discovery.ok());
    ASSERT_FALSE(discovery->ranked.empty());
    // The GBDT bins its columns through the plan; KNN encodes them only.
    CheckPaths(built.lake, *drg, built.base_table, built.label_column,
               discovery->ranked,
               {ml::ModelKind::kLightGbm, ml::ModelKind::kKnn});
  }
}

// A lake whose join keys share names with earlier columns: t1's `id` and
// `code` arrive as `id#2` and `code#2`, a hop from t1 on `code` resolves to
// the base's `code` by name, and hops on `link`/`link2` read columns that
// earlier hops gathered, with unmatched rows, null keys, string keys and
// duplicate right keys along the way.
TEST(TrainingPlanTest, SharedColumnNamesResolveAsTheFullJoinDoes) {
  constexpr size_t kRows = 240;
  Rng rng(3);
  Table base("base"), t1("t1"), t2("t2"), t3("t3"), t4("t4");
  Column id(DataType::kInt64), code(DataType::kInt64), x(DataType::kDouble),
      label(DataType::kInt64);
  for (size_t i = 0; i < kRows; ++i) {
    const int y = static_cast<int>(rng.UniformIndex(2));
    id.AppendInt64(static_cast<int64_t>(i));
    code.AppendInt64(static_cast<int64_t>(i % 17));
    x.AppendDouble(rng.Normal(y, 1.0));
    label.AppendInt64(y);
  }
  base.AddColumn("id", std::move(id)).Abort();
  base.AddColumn("code", std::move(code)).Abort();
  base.AddColumn("x", std::move(x)).Abort();
  base.AddColumn("label", std::move(label)).Abort();

  Column t1_id(DataType::kInt64), t1_code(DataType::kInt64),
      link(DataType::kString), f1(DataType::kDouble);
  for (size_t i = 0; i < kRows; i += 1 + i % 3) {  // some ids unmatched
    t1_id.AppendInt64(static_cast<int64_t>(i));
    t1_code.AppendInt64(static_cast<int64_t>((i * 7) % 23));
    if (i % 11 == 0) {
      link.AppendNull();
    } else {
      link.AppendString("k" + std::to_string(i % 29));
    }
    f1.AppendDouble(rng.Normal(0, 1));
  }
  t1.AddColumn("id", std::move(t1_id)).Abort();
  t1.AddColumn("code", std::move(t1_code)).Abort();
  t1.AddColumn("link", std::move(link)).Abort();
  t1.AddColumn("f1", std::move(f1)).Abort();

  Column t2_link(DataType::kString), feat(DataType::kDouble),
      link2(DataType::kInt64);
  for (size_t i = 0; i < 60; ++i) {  // duplicate keys: one representative
    t2_link.AppendString("k" + std::to_string(i % 25));
    feat.AppendDouble(rng.Normal(0, 1));
    link2.AppendInt64(static_cast<int64_t>(i % 13));
  }
  t2.AddColumn("link", std::move(t2_link)).Abort();
  t2.AddColumn("feat", std::move(feat)).Abort();
  t2.AddColumn("link2", std::move(link2)).Abort();

  Column t3_code(DataType::kInt64), g(DataType::kString);
  for (size_t i = 0; i < 20; ++i) {
    t3_code.AppendInt64(static_cast<int64_t>(i));
    g.AppendString(i % 3 == 0 ? "a" : "b");
  }
  t3.AddColumn("code", std::move(t3_code)).Abort();
  t3.AddColumn("g", std::move(g)).Abort();

  Column t4_link2(DataType::kInt64), h(DataType::kDouble);
  for (size_t i = 0; i < 10; ++i) {
    t4_link2.AppendInt64(static_cast<int64_t>(i));
    h.AppendDouble(static_cast<double>(i) / 3.0);
  }
  t4.AddColumn("link2", std::move(t4_link2)).Abort();
  t4.AddColumn("h", std::move(h)).Abort();

  DataLake lake;
  for (Table* t : {&base, &t1, &t2, &t3, &t4}) {
    ASSERT_TRUE(lake.AddTable(*t).ok());
  }
  lake.AddKfk({"base", "id", "t1", "id"});
  lake.AddKfk({"t1", "link", "t2", "link"});
  lake.AddKfk({"t1", "code", "t3", "code"});
  lake.AddKfk({"t2", "link2", "t4", "link2"});
  auto drg = BuildDrgFromKfk(lake);
  ASSERT_TRUE(drg.ok());
  auto node = [&](const char* name) { return drg->NodeId(name).ValueOrDie(); };
  const JoinStep to_t1{node("base"), node("t1"), "id", "id"};
  const JoinStep to_t2{node("t1"), node("t2"), "link", "link"};
  const JoinStep to_t3{node("t1"), node("t3"), "code", "code"};
  const JoinStep to_t4{node("t2"), node("t4"), "link2", "link2"};
  auto path = [](std::vector<JoinStep> steps,
                 std::vector<std::string> selected) {
    RankedPath ranked;
    ranked.path.steps = std::move(steps);
    for (std::string& name : selected) {
      ranked.selected_features.push_back(FeatureScore{std::move(name), 1.0});
    }
    return ranked;
  };
  const std::vector<RankedPath> paths = {
      path({}, {}),
      path({to_t1}, {"f1", "code#2", "x", "f1", "absent"}),
      path({to_t1, to_t2}, {"feat", "link#2", "id#2", "link"}),
      path({to_t1, to_t3}, {"g", "code#3", "code#2"}),
      path({to_t1, to_t2, to_t4}, {"h", "link2", "feat", "f1"}),
  };
  CheckPaths(lake, *drg, "base", "label", paths,
             {ml::ModelKind::kLightGbm, ml::ModelKind::kRandomForest,
              ml::ModelKind::kExtraTrees, ml::ModelKind::kXgBoost,
              ml::ModelKind::kKnn, ml::ModelKind::kLogRegL1});

  // The replay above resolves the t3 hop's `code` to the base's column:
  // the gathered `code#3` follows base.code, not t1's `code#2`.
  AutoFeat engine(&lake, &*drg, AutoFeatConfig{});
  auto gathered = engine.GatherSelectedColumns("base", paths[3]);
  ASSERT_TRUE(gathered.ok());
  ASSERT_EQ(gathered->ColumnNames(),
            (std::vector<std::string>{"g", "code#3", "code#2"}));
  const Column& via_base = gathered->column(1);
  for (size_t i = 0; i < kRows; ++i) {
    ASSERT_FALSE(via_base.IsNull(i)) << i;  // every base code 0..16 is in t3
    EXPECT_EQ(via_base.GetInt64(i), static_cast<int64_t>(i % 17));
  }
}

TEST(TrainingPlanTest, ExtraColumnsMustCoverTheBaseRows) {
  Table base("base");
  base.AddColumn("x", Column::Doubles({1, 2, 3, 4, 5, 6})).Abort();
  base.AddColumn("label", Column::Int64s({0, 1, 0, 1, 0, 1})).Abort();
  auto plan = ml::TrainingPlan::Make(base, "label", ml::ModelKind::kKnn);
  ASSERT_TRUE(plan.ok());
  Table short_extra("extra");
  short_extra.AddColumn("y", Column::Doubles({1, 2})).Abort();
  EXPECT_EQ(plan->Evaluate(short_extra).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(plan->Evaluate(Table()).ok());
}

}  // namespace
}  // namespace autofeat
