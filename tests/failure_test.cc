// Failure-injection tests: malformed inputs, broken graphs and degenerate
// lakes must produce clean Status errors (or graceful skips), never
// crashes or silent corruption.

#include <cmath>
#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "core/autofeat.h"
#include "core/tuning.h"
#include "datagen/lake_builder.h"
#include "discovery/data_lake.h"
#include "graph/drg.h"
#include "relational/join.h"
#include "table/csv.h"

namespace autofeat {
namespace {

// ---- Malformed CSV inputs ---------------------------------------------------

TEST(CsvFailureTest, VariousMalformedInputs) {
  // Header only: zero rows is valid.
  auto empty = ReadCsvString("a,b\n", "t");
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->num_rows(), 0u);
  // Too many fields.
  EXPECT_FALSE(ReadCsvString("a,b\n1,2,3\n", "t").ok());
  // Too few fields.
  EXPECT_FALSE(ReadCsvString("a,b,c\n1,2\n", "t").ok());
}

TEST(CsvFailureTest, MalformedRowDeepInFileIsAnErrorNotTruncation) {
  // A bad row after many good ones must fail the whole parse — silently
  // keeping the prefix would corrupt downstream joins.
  std::string csv = "a,b\n";
  for (int i = 0; i < 20; ++i) {
    csv += std::to_string(i) + "," + std::to_string(i * 2) + "\n";
  }
  csv += "21\n";  // too few fields, row 22
  auto t = ReadCsvString(csv, "t");
  EXPECT_FALSE(t.ok());
}

TEST(CsvFailureTest, RowOfOnlyCommasParsesAsNulls) {
  // Degenerate but well-formed: correct field count, all fields empty.
  auto t = ReadCsvString("a,b,c\n,,\n", "t");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->num_rows(), 1u);
  for (size_t c = 0; c < t->num_columns(); ++c) {
    EXPECT_TRUE(t->column(c).IsNull(0));
  }
}

TEST(CsvFailureTest, UnterminatedQuoteStillTerminates) {
  // Parser must not hang or crash on a dangling quote.
  auto t = ReadCsvString("a\n\"unterminated\n", "t");
  // Either parse (content swallowed to EOL) or error; both acceptable,
  // crash is not.
  (void)t;
  SUCCEED();
}

// ---- JoinCompleteness column validation --------------------------------------

TEST(JoinCompletenessFailureTest, MissingColumnIsKeyError) {
  Table joined("j");
  joined.AddColumn("x", Column::Doubles({1, 2, 3})).Abort();
  auto r = JoinCompleteness(joined, {"x", "no_such_column"});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kKeyError);
}

TEST(JoinCompletenessFailureTest, EmptyJoinStillValidatesColumns) {
  // Regression (found by the lake fuzzer, join.completeness_bounds): the
  // zero-row early return used to skip column validation, silently scoring
  // a misnamed column as perfectly complete.
  Table joined("j");
  joined.AddColumn("x", Column(DataType::kDouble)).Abort();  // zero rows
  auto missing = JoinCompleteness(joined, {"no_such_column"});
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kKeyError);
  // Valid columns on an empty join still score 1.0 (nothing is missing).
  auto valid = JoinCompleteness(joined, {"x"});
  ASSERT_TRUE(valid.ok());
  EXPECT_EQ(*valid, 1.0);
}

// ---- Unreadable lake directory -----------------------------------------------

// The CLI pipeline: load a lake from disk, build the DRG, discover. Each
// AF_ASSIGN_OR_RETURN hop must propagate the original load failure.
Result<DiscoveryResult> DiscoverFromDirectory(const std::string& directory) {
  AF_ASSIGN_OR_RETURN(DataLake lake, DataLake::FromCsvDirectory(directory));
  AF_ASSIGN_OR_RETURN(DatasetRelationGraph drg, BuildDrgFromKfk(lake));
  AutoFeat engine(&lake, &drg, AutoFeatConfig{});
  return engine.DiscoverFeatures("base", "label");
}

TEST(EngineFailureTest, UnreadableLakeDirectoryPropagatesThroughDiscover) {
  auto missing = DiscoverFromDirectory("/no/such/lake/directory");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kIOError);

  // A file path where a directory is expected is just as unreadable.
  auto not_a_dir = DiscoverFromDirectory("/dev/null");
  EXPECT_FALSE(not_a_dir.ok());
}

// ---- DRG referencing tables missing from the lake ---------------------------

TEST(EngineFailureTest, DrgNodeWithoutLakeTableIsSkipped) {
  datagen::LakeSpec spec;
  spec.name = "ghost";
  spec.rows = 300;
  spec.joinable_tables = 3;
  spec.seed = 5;
  auto built = datagen::BuildLake(spec);
  auto drg = BuildDrgFromKfk(built.lake).MoveValue();
  // An edge to a table that is in the graph but not in the lake.
  drg.AddEdge("ghost_base", "ghost_id", "phantom", "ghost_id", 1.0).Abort();

  AutoFeatConfig config;
  config.sample_rows = 200;
  AutoFeat engine(&built.lake, &drg, config);
  auto result = engine.DiscoverFeatures(built.base_table, built.label_column);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // The phantom neighbour is skipped; real paths still come back.
  EXPECT_FALSE(result->ranked.empty());
  for (const auto& rp : result->ranked) {
    for (const auto& step : rp.path.steps) {
      EXPECT_NE(drg.NodeName(step.to_node), "phantom");
    }
  }
}

TEST(EngineFailureTest, EdgeWithWrongColumnIsInfeasible) {
  datagen::LakeSpec spec;
  spec.name = "wrongcol";
  spec.rows = 300;
  spec.joinable_tables = 2;
  spec.seed = 6;
  auto built = datagen::BuildLake(spec);
  DatasetRelationGraph drg;
  // Edge claims a join column the base table does not have.
  drg.AddNode(built.base_table);
  drg.AddEdge(built.base_table, "no_such_column", "wrongcol_t0",
              "wrongcol_id", 0.9).Abort();
  AutoFeatConfig config;
  config.sample_rows = 200;
  AutoFeat engine(&built.lake, &drg, config);
  auto result = engine.DiscoverFeatures(built.base_table, built.label_column);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->ranked.empty());
  EXPECT_GT(result->paths_pruned_infeasible, 0u);
}

TEST(EngineFailureTest, IsolatedBaseTableYieldsEmptyRanking) {
  datagen::LakeSpec spec;
  spec.name = "island";
  spec.rows = 300;
  spec.joinable_tables = 2;
  spec.seed = 7;
  auto built = datagen::BuildLake(spec);
  DatasetRelationGraph drg;
  for (const auto& t : built.lake.tables()) drg.AddNode(t.name());
  // No edges at all.
  AutoFeatConfig config;
  config.sample_rows = 200;
  AutoFeat engine(&built.lake, &drg, config);
  auto result = engine.DiscoverFeatures(built.base_table, built.label_column);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->ranked.empty());
  EXPECT_EQ(result->paths_explored, 0u);
  // Augment falls back to the base table without error.
  auto augmented = engine.Augment(built.base_table, built.label_column,
                                  ml::ModelKind::kKnn);
  ASSERT_TRUE(augmented.ok());
  EXPECT_EQ(augmented->best_path.path.length(), 0u);
}

// ---- Degenerate data ---------------------------------------------------------

TEST(DegenerateDataTest, SingleClassLabelIsCleanError) {
  DataLake lake;
  Table base("b");
  base.AddColumn("id", Column::Int64s({1, 2, 3})).Abort();
  base.AddColumn("label", Column::Int64s({1, 1, 1})).Abort();
  lake.AddTable(std::move(base)).Abort();
  DatasetRelationGraph drg;
  drg.AddNode("b");
  AutoFeat engine(&lake, &drg, AutoFeatConfig{});
  // Discovery itself works (no ML involved)...
  auto discovery = engine.DiscoverFeatures("b", "label");
  EXPECT_TRUE(discovery.ok());
  // ...but training on a single-class label fails with a Status, not a
  // crash.
  auto augmented = engine.Augment("b", "label", ml::ModelKind::kKnn);
  EXPECT_FALSE(augmented.ok());
}

TEST(DegenerateDataTest, TinyTableStillRuns) {
  DataLake lake;
  Table base("tiny");
  base.AddColumn("id", Column::Int64s({1, 2, 3, 4})).Abort();
  base.AddColumn("x", Column::Doubles({0.1, 0.9, 0.2, 0.8})).Abort();
  base.AddColumn("label", Column::Int64s({0, 1, 0, 1})).Abort();
  lake.AddTable(std::move(base)).Abort();
  Table sat("sat");
  sat.AddColumn("id", Column::Int64s({1, 2, 3, 4})).Abort();
  sat.AddColumn("y", Column::Doubles({1.0, 2.0, 1.1, 2.1})).Abort();
  lake.AddTable(std::move(sat)).Abort();
  lake.AddKfk(KfkConstraint{"tiny", "id", "sat", "id"});
  auto drg = BuildDrgFromKfk(lake);
  ASSERT_TRUE(drg.ok());
  AutoFeat engine(&lake, &*drg, AutoFeatConfig{});
  auto result = engine.Augment("tiny", "label", ml::ModelKind::kKnn);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
}

TEST(DegenerateDataTest, AllConstantFeaturesRankNothing) {
  DataLake lake;
  Table base("c");
  base.AddColumn("id", Column::Int64s({1, 2, 3, 4, 5, 6})).Abort();
  base.AddColumn("label", Column::Int64s({0, 1, 0, 1, 0, 1})).Abort();
  lake.AddTable(std::move(base)).Abort();
  Table sat("consts");
  sat.AddColumn("id", Column::Int64s({1, 2, 3, 4, 5, 6})).Abort();
  sat.AddColumn("k1", Column::Doubles(std::vector<double>(6, 3.14))).Abort();
  sat.AddColumn("k2", Column::Doubles(std::vector<double>(6, 2.72))).Abort();
  lake.AddTable(std::move(sat)).Abort();
  lake.AddKfk(KfkConstraint{"c", "id", "consts", "id"});
  auto drg = BuildDrgFromKfk(lake);
  AutoFeat engine(&lake, &*drg, AutoFeatConfig{});
  auto result = engine.DiscoverFeatures("c", "label");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->ranked.empty());  // All features irrelevant.
}

TEST(DegenerateDataTest, InfiniteCsvCellsKeepPearsonScoresFinite) {
  // strtod parses "inf", so a CSV lake can hold infinite cells. Pearson
  // relevance treats them as missing; a NaN score would break SelectKBest's
  // ordering and leak into the path score.
  namespace fs = std::filesystem;
  const std::string dir = ::testing::TempDir() + "/autofeat_inf_lake";
  fs::remove_all(dir);
  fs::create_directories(dir);
  {
    std::ofstream base(dir + "/base.csv");
    base << "id,x,label\n";
    for (int i = 0; i < 120; ++i) {
      base << i << ',' << (i * 7 % 11) << ',' << (i % 2) << '\n';
    }
    std::ofstream sat(dir + "/sat.csv");
    sat << "id,y,z\n";
    for (int i = 0; i < 120; ++i) {
      const char* y = i == 3 ? "inf" : i == 8 ? "-inf" : nullptr;
      sat << i << ',';
      if (y != nullptr) {
        sat << y;
      } else {
        sat << (i % 2) * 2.0 + (i % 5) * 0.1;
      }
      sat << ',' << (i % 3) << '\n';
    }
  }
  auto lake = DataLake::FromCsvDirectory(dir);
  ASSERT_TRUE(lake.ok()) << lake.status().ToString();
  const Column* y = *(*lake->GetTable("sat"))->GetColumn("y");
  ASSERT_TRUE(std::isinf(y->ToNumeric()[3]));
  lake->AddKfk(KfkConstraint{"base", "id", "sat", "id"});
  auto drg = BuildDrgFromKfk(*lake);
  ASSERT_TRUE(drg.ok());
  AutoFeatConfig config;
  config.relevance = RelevanceKind::kPearson;
  AutoFeat engine(&*lake, &*drg, config);
  auto result = engine.DiscoverFeatures("base", "label");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_FALSE(result->ranked.empty());
  for (const auto& rp : result->ranked) {
    EXPECT_TRUE(std::isfinite(rp.score));
    for (const auto& f : rp.selected_features) {
      EXPECT_TRUE(std::isfinite(f.score)) << f.name;
    }
  }
  fs::remove_all(dir);
}

// ---- Tuning over a broken lake -----------------------------------------------

TEST(TuningFailureTest, PropagatesEngineErrors) {
  DataLake lake;
  Table base("b");
  base.AddColumn("id", Column::Int64s({1, 2})).Abort();
  base.AddColumn("label", Column::Int64s({1, 1})).Abort();  // Single class.
  lake.AddTable(std::move(base)).Abort();
  DatasetRelationGraph drg;
  drg.AddNode("b");
  auto result = TuneHyperParameters(lake, drg, "b", "label",
                                    AutoFeatConfig{}, TuningOptions{});
  EXPECT_FALSE(result.ok());
}

}  // namespace
}  // namespace autofeat
