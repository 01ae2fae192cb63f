// Microbenchmarks of the substrate hot paths (google-benchmark):
// hash left join, cardinality normalisation, Spearman, candidate scoring
// (feature view + Spearman relevance), corrected MI, GBDT training, DRG path
// enumeration, schema matching.

#include <benchmark/benchmark.h>

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "datagen/generator.h"
#include "datagen/lake_builder.h"
#include "discovery/schema_matcher.h"
#include "fs/feature_view.h"
#include "fs/relevance.h"
#include "graph/drg.h"
#include "ml/gbdt.h"
#include "relational/join.h"
#include "stats/correlation.h"
#include "stats/discretize.h"
#include "stats/information.h"
#include "util/rng.h"

namespace autofeat {
namespace {

Table MakeKeyedTable(size_t rows, size_t features, uint64_t seed) {
  Rng rng(seed);
  Table t("t");
  std::vector<int64_t> keys(rows);
  for (size_t i = 0; i < rows; ++i) keys[i] = static_cast<int64_t>(i);
  rng.Shuffle(&keys);
  t.AddColumn("key", Column::Int64s(std::move(keys))).Abort();
  for (size_t f = 0; f < features; ++f) {
    std::vector<double> values(rows);
    for (auto& v : values) v = rng.Normal(0, 1);
    t.AddColumn("f" + std::to_string(f), Column::Doubles(std::move(values)))
        .Abort();
  }
  return t;
}

void BM_LeftJoin(benchmark::State& state) {
  size_t rows = static_cast<size_t>(state.range(0));
  Table left = MakeKeyedTable(rows, 4, 1);
  Table right = MakeKeyedTable(rows, 8, 2);
  for (auto _ : state) {
    Rng rng(3);
    auto result = LeftJoin(left, "key", right, "key", &rng);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(rows));
}
BENCHMARK(BM_LeftJoin)->Arg(1000)->Arg(10000);

void BM_NormalizeCardinality(benchmark::State& state) {
  size_t rows = static_cast<size_t>(state.range(0));
  Rng rng(4);
  Table t("dup");
  std::vector<int64_t> keys(rows);
  for (size_t i = 0; i < rows; ++i) {
    keys[i] = static_cast<int64_t>(rng.UniformIndex(rows / 4 + 1));
  }
  t.AddColumn("key", Column::Int64s(std::move(keys))).Abort();
  for (auto _ : state) {
    Rng pick(5);
    auto result = NormalizeJoinCardinality(t, "key", &pick);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(rows));
}
BENCHMARK(BM_NormalizeCardinality)->Arg(10000);

void BM_Spearman(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Rng rng(6);
  std::vector<double> x(n), y(n);
  for (size_t i = 0; i < n; ++i) {
    x[i] = rng.Normal(0, 1);
    y[i] = x[i] + rng.Normal(0, 1);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(SpearmanCorrelation(x, y));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_Spearman)->Arg(1000)->Arg(10000);

// One BFS candidate's relevance stage: FeatureView::FromColumns over its
// gathered columns (sort, discretise) plus Spearman ScoreRelevance against
// a label block shared by every candidate of a discovery.
void BM_CandidateScoring(benchmark::State& state) {
  constexpr size_t kRows = 2000;
  constexpr size_t kFeatures = 5;
  Rng rng(8);
  std::vector<double> label(kRows);
  for (auto& v : label) v = static_cast<double>(rng.UniformIndex(2));
  std::shared_ptr<const LabelBlock> block = LabelBlock::Build(label);
  std::vector<std::string> names;
  std::vector<std::vector<double>> columns;
  for (size_t f = 0; f < kFeatures; ++f) {
    names.push_back("f" + std::to_string(f));
    std::vector<double> values(kRows);
    for (size_t i = 0; i < kRows; ++i) {
      // A tenth unmatched (NaN), as a left join leaves them.
      values[i] = rng.Uniform() < 0.1 ? std::numeric_limits<double>::quiet_NaN()
                                      : label[i] + rng.Normal(0, 1 + f);
    }
    columns.push_back(std::move(values));
  }
  RelevanceOptions options;
  options.kind = RelevanceKind::kSpearman;
  for (auto _ : state) {
    auto view = FeatureView::FromColumns(names, columns, block);
    benchmark::DoNotOptimize(ScoreRelevance(*view, {}, options));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kRows * kFeatures));
}
BENCHMARK(BM_CandidateScoring);

void BM_MutualInformationCorrected(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Rng rng(7);
  std::vector<double> x(n), y(n);
  for (size_t i = 0; i < n; ++i) {
    x[i] = rng.Normal(0, 1);
    y[i] = x[i] + rng.Normal(0, 1);
  }
  auto cx = DiscretizeEqualFrequency(x, 10);
  auto cy = DiscretizeEqualFrequency(y, 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MutualInformationCorrected(cx, cy));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_MutualInformationCorrected)->Arg(1000)->Arg(10000);

void BM_GbdtFit(benchmark::State& state) {
  datagen::GeneratorOptions options;
  options.rows = static_cast<size_t>(state.range(0));
  options.informative_features = 5;
  options.noise_features = 10;
  Table table = datagen::GenerateClassification(options, "bench");
  auto data = ml::Dataset::FromTable(table, "label");
  data.status().Abort();
  for (auto _ : state) {
    ml::GbdtOptions gbdt_options;
    gbdt_options.num_rounds = 20;
    ml::Gbdt model(gbdt_options);
    model.Fit(*data).Abort();
    benchmark::DoNotOptimize(model);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_GbdtFit)->Arg(1000)->Arg(4000);

void BM_EnumeratePaths(benchmark::State& state) {
  datagen::LakeSpec spec;
  spec.rows = 50;  // Graph shape is what matters here.
  spec.joinable_tables = static_cast<size_t>(state.range(0));
  datagen::BuiltLake built = datagen::BuildLake(spec);
  auto drg = BuildDrgFromKfk(built.lake);
  drg.status().Abort();
  size_t base = *drg->NodeId(built.base_table);
  for (auto _ : state) {
    benchmark::DoNotOptimize(drg->EnumeratePaths(base, 4));
  }
}
BENCHMARK(BM_EnumeratePaths)->Arg(8)->Arg(16);

void BM_SchemaMatch(benchmark::State& state) {
  Table a = MakeKeyedTable(static_cast<size_t>(state.range(0)), 10, 8);
  Table b = MakeKeyedTable(static_cast<size_t>(state.range(0)), 10, 9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatchSchemas(a, b));
  }
}
BENCHMARK(BM_SchemaMatch)->Arg(1000)->Arg(5000);

}  // namespace
}  // namespace autofeat

BENCHMARK_MAIN();
