#include "discovery/data_lake.h"

#include <algorithm>
#include <filesystem>
#include <utility>

#include "discovery/lsh_index.h"
#include "discovery/sketch_cache.h"
#include "obs/metrics.h"
#include "table/columnar.h"
#include "table/csv.h"
#include "util/string_utils.h"
#include "util/thread_pool.h"

namespace autofeat {

Result<LakeFormat> ParseLakeFormat(const std::string& name) {
  const std::string lower = ToLower(Trim(name));
  if (lower == "csv") return LakeFormat::kCsv;
  if (lower == "columnar") return LakeFormat::kColumnar;
  return Status::InvalidArgument("unknown lake format: \"" + name +
                                 "\" (valid values: csv, columnar)");
}

namespace {

// Shared directory walk: every regular `extension` file, sorted — the
// lake's table order must not depend on directory enumeration order.
Result<std::vector<std::string>> SortedFilesWithExtension(
    const std::string& directory, const std::string& extension) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(directory, ec)) {
    return Status::IOError("not a directory: " + directory);
  }
  std::vector<std::string> paths;
  for (const auto& entry : fs::directory_iterator(directory)) {
    if (entry.is_regular_file() && entry.path().extension() == extension) {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

}  // namespace

Status DataLake::AddTable(Table table) {
  return AddTable(std::make_shared<const Table>(std::move(table)));
}

Status DataLake::AddTable(std::shared_ptr<const Table> table) {
  if (table == nullptr || table->name().empty()) {
    return Status::InvalidArgument("lake tables must be named");
  }
  if (index_.count(table->name()) > 0) {
    return Status::InvalidArgument("duplicate table name: " + table->name());
  }
  index_[table->name()] = tables_.size();
  tables_.push_back(std::move(table));
  return Status::OK();
}

Status DataLake::ReplaceTable(Table table) {
  auto it = index_.find(table.name());
  if (it == index_.end()) {
    return Status::KeyError("no such table to replace: " + table.name());
  }
  tables_[it->second] = std::make_shared<const Table>(std::move(table));
  return Status::OK();
}

Status DataLake::RemoveTable(const std::string& name) {
  auto it = index_.find(name);
  if (it == index_.end()) {
    return Status::KeyError("no such table to remove: " + name);
  }
  tables_.erase(tables_.begin() + static_cast<ptrdiff_t>(it->second));
  index_.clear();
  for (size_t i = 0; i < tables_.size(); ++i) index_[tables_[i]->name()] = i;
  kfk_.erase(std::remove_if(kfk_.begin(), kfk_.end(),
                            [&](const KfkConstraint& k) {
                              return k.from_table == name ||
                                     k.to_table == name;
                            }),
             kfk_.end());
  return Status::OK();
}

Status DataLake::AppendRows(const std::string& name, const Table& rows) {
  auto it = index_.find(name);
  if (it == index_.end()) {
    return Status::KeyError("no such table to append to: " + name);
  }
  const Table& current = *tables_[it->second];
  if (!(current.schema().fields() == rows.schema().fields())) {
    return Status::InvalidArgument(
        "append schema mismatch for table " + name +
        ": column names and types must match the stored table exactly");
  }
  Table updated(current.name());
  for (size_t c = 0; c < current.num_columns(); ++c) {
    Column merged = current.column(c);
    merged.Reserve(current.num_rows() + rows.num_rows());
    const Column& extra = rows.column(c);
    for (size_t r = 0; r < rows.num_rows(); ++r) merged.AppendFrom(extra, r);
    AF_RETURN_NOT_OK(
        updated.AddColumn(current.schema().field(c).name, std::move(merged)));
  }
  tables_[it->second] = std::make_shared<const Table>(std::move(updated));
  return Status::OK();
}

Result<const Table*> DataLake::GetTable(const std::string& name) const {
  auto it = index_.find(name);
  if (it == index_.end()) {
    return Status::KeyError("no such table in lake: " + name);
  }
  return tables_[it->second].get();
}

Result<std::shared_ptr<const Table>> DataLake::GetTableShared(
    const std::string& name) const {
  auto it = index_.find(name);
  if (it == index_.end()) {
    return Status::KeyError("no such table in lake: " + name);
  }
  return tables_[it->second];
}

std::vector<std::string> DataLake::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& t : tables_) names.push_back(t->name());
  return names;
}

Result<DataLake> DataLake::FromCsvDirectory(const std::string& directory) {
  AF_ASSIGN_OR_RETURN(std::vector<std::string> paths,
                      SortedFilesWithExtension(directory, ".csv"));
  DataLake lake;
  for (const auto& path : paths) {
    AF_ASSIGN_OR_RETURN(Table table, ReadCsvFile(path));
    AF_RETURN_NOT_OK(lake.AddTable(std::move(table)));
  }
  return lake;
}

Result<DataLake> DataLake::FromColumnarDirectory(
    const std::string& directory) {
  AF_ASSIGN_OR_RETURN(std::vector<std::string> paths,
                      SortedFilesWithExtension(directory, kColumnarExtension));
  DataLake lake;
  for (const auto& path : paths) {
    AF_ASSIGN_OR_RETURN(Table table, ReadColumnarFile(path));
    AF_RETURN_NOT_OK(lake.AddTable(std::move(table)));
  }
  return lake;
}

Result<DataLake> DataLake::FromDirectory(const std::string& directory,
                                         LakeFormat format) {
  switch (format) {
    case LakeFormat::kCsv:
      return FromCsvDirectory(directory);
    case LakeFormat::kColumnar:
      return FromColumnarDirectory(directory);
  }
  return Status::InvalidArgument("unhandled lake format");
}

Result<DatasetRelationGraph> BuildDrgFromKfk(const DataLake& lake,
                                             obs::MetricsRegistry* metrics) {
  obs::Counter* edges_added = obs::GetCounter(metrics, "drg.edges_added");
  DatasetRelationGraph drg;
  for (const auto& table : lake.tables()) drg.AddNode(table.name());
  for (const auto& kfk : lake.kfk_constraints()) {
    // Validate the constraint against the lake before ingesting it.
    AF_ASSIGN_OR_RETURN(const Table* from, lake.GetTable(kfk.from_table));
    AF_ASSIGN_OR_RETURN(const Table* to, lake.GetTable(kfk.to_table));
    if (!from->HasColumn(kfk.from_column)) {
      return Status::KeyError("KFK references missing column " +
                              kfk.from_table + "." + kfk.from_column);
    }
    if (!to->HasColumn(kfk.to_column)) {
      return Status::KeyError("KFK references missing column " +
                              kfk.to_table + "." + kfk.to_column);
    }
    AF_RETURN_NOT_OK(drg.AddEdge(kfk.from_table, kfk.from_column,
                                 kfk.to_table, kfk.to_column,
                                 /*weight=*/1.0));
    obs::Increment(edges_added);
  }
  return drg;
}

namespace {

// Every (i, j) pair of the upper triangle, ascending. The triangle above
// the diagonal has n(n-1)/2 pairs.
std::vector<std::pair<size_t, size_t>> AllTablePairs(size_t n) {
  std::vector<std::pair<size_t, size_t>> pairs;
  if (n > 1) pairs.reserve(n * (n - 1) / 2);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) pairs.emplace_back(i, j);
  }
  return pairs;
}

// Folds `matches[p]`, the scored matches of `pairs[p]` (ascending (i, j)
// table-index pairs — the full upper triangle or an LSH candidate subset of
// it), into a DRG sequentially in pair order, so edge insertion order (and
// thus the graph) is independent of the thread count that scored them.
Result<DatasetRelationGraph> FoldPairMatches(
    const DataLake& lake, const std::vector<std::pair<size_t, size_t>>& pairs,
    const std::vector<std::vector<ColumnMatch>>& matches,
    obs::MetricsRegistry* metrics) {
  obs::Counter* pairs_matched = obs::GetCounter(metrics, "drg.pairs_matched");
  obs::Counter* edges_added = obs::GetCounter(metrics, "drg.edges_added");
  obs::Increment(obs::GetCounter(metrics, "drg.pairs_scored"), pairs.size());
  DatasetRelationGraph drg;
  for (const auto& table : lake.tables()) drg.AddNode(table.name());
  const auto& tables = lake.tables();
  for (size_t p = 0; p < pairs.size(); ++p) {
    const auto& [i, j] = pairs[p];
    if (!matches[p].empty()) obs::Increment(pairs_matched);
    for (const auto& match : matches[p]) {
      AF_RETURN_NOT_OK(drg.AddEdge(tables[i].name(), match.left_column,
                                   tables[j].name(), match.right_column,
                                   match.score));
      obs::Increment(edges_added);
    }
  }
  return drg;
}

}  // namespace

bool UsesLshCandidates(const MatchOptions& options) {
  return options.candidate_mode == CandidateMode::kLsh &&
         options.threshold > options.name_weight;
}

std::vector<std::pair<size_t, size_t>> CandidateTablePairs(
    const DataLake& lake, LakeSketchCache& cache, const MatchOptions& options,
    ThreadPool* pool, obs::MetricsRegistry* metrics,
    std::vector<std::vector<ColumnLshProfile>>* profiles) {
  const size_t n = lake.num_tables();
  std::vector<std::pair<size_t, size_t>> pairs;
  if (UsesLshCandidates(options)) {
    LshCandidateIndex index =
        LshCandidateIndex::Build(lake, cache, options.lsh, pool, metrics);
    pairs = index.candidate_table_pairs();
    if (profiles != nullptr) *profiles = index.TakeTableProfiles();
  } else {
    pairs = AllTablePairs(n);
  }
  const size_t total_pairs = n > 1 ? n * (n - 1) / 2 : 0;
  obs::Increment(obs::GetCounter(metrics, "drg.candidate_pairs"),
                 pairs.size());
  obs::Increment(obs::GetCounter(metrics, "drg.pairs_pruned"),
                 total_pairs - pairs.size());
  return pairs;
}

std::vector<std::vector<ColumnMatch>> ScoreTablePairs(
    const DataLake& lake, LakeSketchCache& cache,
    const std::vector<std::pair<size_t, size_t>>& pairs,
    const MatchOptions& options, ThreadPool* pool) {
  const auto& tables = lake.tables();
  return ParallelMap<std::vector<ColumnMatch>>(
      pool, pairs.size(), /*grain=*/1, [&](size_t p) {
        const auto& [i, j] = pairs[p];
        // Pins keep both entries alive for the duration of the match even
        // if a concurrent pair's rebuild evicts them under a budget.
        LakeSketchCache::TableSketchesPin left = cache.GetOrBuild(i);
        LakeSketchCache::TableSketchesPin right = cache.GetOrBuild(j);
        return MatchSchemas(tables[i], *left, tables[j], *right, options);
      });
}

Result<DatasetRelationGraph> BuildDrgByDiscovery(const DataLake& lake,
                                                 const MatchOptions& options,
                                                 ThreadPool* pool,
                                                 obs::MetricsRegistry* metrics) {
  // Sketch every column once (in parallel over tables), then score pairs
  // over the shared cache instead of re-scanning column values per pair.
  LakeSketchCache cache =
      LakeSketchCache::Build(lake, options.max_sample_values, pool, metrics,
                             options.memory_budget_bytes);
  const std::vector<std::pair<size_t, size_t>> pairs =
      CandidateTablePairs(lake, cache, options, pool, metrics);

  // Each pair served from the cache would have re-sketched both tables'
  // columns under the naive formulation — that saved work is the hit count.
  const auto& tables = lake.tables();
  size_t sketch_hits = 0;
  for (const auto& [i, j] : pairs) {
    sketch_hits += tables[i].num_columns() + tables[j].num_columns();
  }
  obs::Increment(obs::GetCounter(metrics, "sketch_cache.hits"), sketch_hits);
  return FoldPairMatches(lake, pairs,
                         ScoreTablePairs(lake, cache, pairs, options, pool),
                         metrics);
}

Result<DatasetRelationGraph> BuildDrgWithMatcher(
    const DataLake& lake,
    const std::function<std::vector<ColumnMatch>(const Table&, const Table&)>&
        matcher,
    ThreadPool* pool, obs::MetricsRegistry* metrics) {
  const auto& tables = lake.tables();
  const std::vector<std::pair<size_t, size_t>> pairs =
      AllTablePairs(tables.size());
  return FoldPairMatches(
      lake, pairs,
      ParallelMap<std::vector<ColumnMatch>>(
          pool, pairs.size(), /*grain=*/1,
          [&](size_t p) {
            return matcher(tables[pairs[p].first], tables[pairs[p].second]);
          }),
      metrics);
}

}  // namespace autofeat
