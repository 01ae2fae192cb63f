// DataLake: the dataset collection AutoFeat explores, plus DRG construction
// for the paper's two evaluation settings (§VII-A):
//
//  * benchmark setting — known KFK constraints become edges of weight 1
//    (snowflake schemata);
//  * data-lake setting — KFK metadata is discarded and edges are discovered
//    by the schema matcher (dense multigraph, weight = similarity score).

#ifndef AUTOFEAT_DISCOVERY_DATA_LAKE_H_
#define AUTOFEAT_DISCOVERY_DATA_LAKE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "discovery/schema_matcher.h"
#include "graph/drg.h"
#include "table/table.h"
#include "util/status.h"

namespace autofeat {

class ThreadPool;

namespace obs {
class MetricsRegistry;
}  // namespace obs

/// \brief On-disk representation of a lake directory.
enum class LakeFormat {
  /// One *.csv file per table (text; types inferred on load).
  kCsv,
  /// One *.afc file per table (the binary columnar format of
  /// table/columnar.h: dictionary-encoded, null bitmaps, checksummed).
  kColumnar,
};

/// Parses "csv" / "columnar" (the --lake-format CLI values),
/// case-insensitively.
Result<LakeFormat> ParseLakeFormat(const std::string& name);

/// \brief Read-only, indexable view over the lake's tables.
///
/// The lake stores tables behind shared_ptr so that copying a DataLake is
/// O(tables) pointer copies rather than a deep copy of every column — the
/// property the serving layer's snapshot-per-mutation scheme depends on.
/// This view keeps the historical `for (const Table& t : lake.tables())`
/// and `lake.tables()[i]` call shapes working over that storage.
class TableListView {
 public:
  explicit TableListView(const std::vector<std::shared_ptr<const Table>>* t)
      : tables_(t) {}

  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Table;
    using difference_type = std::ptrdiff_t;
    using pointer = const Table*;
    using reference = const Table&;

    iterator(const std::vector<std::shared_ptr<const Table>>* t, size_t i)
        : tables_(t), i_(i) {}
    const Table& operator*() const { return *(*tables_)[i_]; }
    const Table* operator->() const { return (*tables_)[i_].get(); }
    iterator& operator++() {
      ++i_;
      return *this;
    }
    iterator operator++(int) {
      iterator copy = *this;
      ++i_;
      return copy;
    }
    bool operator==(const iterator& o) const { return i_ == o.i_; }
    bool operator!=(const iterator& o) const { return i_ != o.i_; }

   private:
    const std::vector<std::shared_ptr<const Table>>* tables_;
    size_t i_;
  };

  iterator begin() const { return iterator(tables_, 0); }
  iterator end() const { return iterator(tables_, tables_->size()); }
  const Table& operator[](size_t i) const { return *(*tables_)[i]; }
  size_t size() const { return tables_->size(); }
  bool empty() const { return tables_->empty(); }

  /// Deep-copies every table (for callers that mutate, e.g. the shrinker).
  std::vector<Table> Materialize() const {
    std::vector<Table> out;
    out.reserve(tables_->size());
    for (const auto& t : *tables_) out.push_back(*t);
    return out;
  }

 private:
  const std::vector<std::shared_ptr<const Table>>* tables_;
};

/// \brief A declared key/foreign-key relationship between two tables.
struct KfkConstraint {
  std::string from_table;
  std::string from_column;
  std::string to_table;
  std::string to_column;
};

/// \brief Named collection of tables with optional KFK metadata.
class DataLake {
 public:
  /// Adds a table (name taken from table.name()); fails on duplicates.
  Status AddTable(Table table);

  /// Adds an already-shared table without copying its columns.
  Status AddTable(std::shared_ptr<const Table> table);

  /// Replaces an existing table of the same name.
  Status ReplaceTable(Table table);

  /// Removes a table by name. Later tables shift down one position (lake
  /// order stays the relative insertion order of the survivors). KFK
  /// constraints referencing the table are dropped with it.
  Status RemoveTable(const std::string& name);

  /// Appends the rows of `rows` to an existing table. The schemas must
  /// match exactly (same column names and types, in order). The stored
  /// table is replaced, not mutated — snapshots sharing the old version
  /// are unaffected.
  Status AppendRows(const std::string& name, const Table& rows);

  Result<const Table*> GetTable(const std::string& name) const;

  /// Shared handle to a table — keeps it alive past RemoveTable/AppendRows.
  Result<std::shared_ptr<const Table>> GetTableShared(
      const std::string& name) const;

  bool HasTable(const std::string& name) const {
    return index_.count(name) > 0;
  }
  size_t num_tables() const { return tables_.size(); }
  TableListView tables() const { return TableListView(&tables_); }
  std::vector<std::string> TableNames() const;

  void AddKfk(KfkConstraint constraint) {
    kfk_.push_back(std::move(constraint));
  }
  const std::vector<KfkConstraint>& kfk_constraints() const { return kfk_; }

  /// Loads every *.csv file of a directory as a table.
  static Result<DataLake> FromCsvDirectory(const std::string& directory);

  /// Loads every *.afc (binary columnar) file of a directory as a table.
  static Result<DataLake> FromColumnarDirectory(const std::string& directory);

  /// Loads a directory in the given format (sorted file order either way,
  /// so the lake's table order is format-independent).
  static Result<DataLake> FromDirectory(const std::string& directory,
                                        LakeFormat format);

 private:
  // shared_ptr<const Table> so lake copies (serving snapshots) share table
  // storage; every mutation path replaces pointers instead of editing
  // tables in place.
  std::vector<std::shared_ptr<const Table>> tables_;
  std::unordered_map<std::string, size_t> index_;
  std::vector<KfkConstraint> kfk_;
};

/// Benchmark setting: DRG whose edges are exactly the declared KFK
/// constraints with weight 1. A non-null `metrics` counts
/// `drg.edges_added`.
Result<DatasetRelationGraph> BuildDrgFromKfk(
    const DataLake& lake, obs::MetricsRegistry* metrics = nullptr);

/// Data-lake setting: ignores KFK metadata and runs the schema matcher over
/// candidate table pairs; matches at or above options.threshold become
/// edges weighted by their similarity score.
///
/// Every column is sketched exactly once (LakeSketchCache) before the pair
/// sweep. CandidateTablePairs picks the pairs: with the default
/// options.candidate_mode (kAllPairs) every pair of the upper triangle —
/// O(n²) in the table count; with kLsh only the pairs whose MinHash-LSH
/// bucket keys over the sketches intersect (see lsh_index.h).
/// ScoreTablePairs scores them. With a `pool`, sketching fans out over
/// tables and pair scoring over (candidate) table pairs; matches are folded
/// into the DRG in deterministic (i, j) pair order, so the graph is
/// byte-identical at any thread count in either mode.
///
/// A non-null `metrics` records the DRG-construction counters:
/// `sketch_cache.builds` (sketches computed once), `sketch_cache.hits`
/// (sketch reuses the per-pair formulation would have recomputed),
/// `drg.candidate_pairs` / `drg.pairs_pruned` (candidate-generation
/// effect; pruned is 0 under kAllPairs), `drg.pairs_scored`,
/// `drg.pairs_matched`, `drg.edges_added`, plus the `lsh.*` counters and
/// `lsh_index.bytes` gauges under kLsh.
Result<DatasetRelationGraph> BuildDrgByDiscovery(
    const DataLake& lake, const MatchOptions& options = {},
    ThreadPool* pool = nullptr, obs::MetricsRegistry* metrics = nullptr);

/// True when the table pairs to score may come from LSH candidates:
/// options.candidate_mode is kLsh and options.threshold > name_weight. Only
/// then does every reportable edge need value overlap, which is what an LSH
/// collision witnesses; when name evidence alone can reach the threshold,
/// every pair must be scored or name-only edges would be silently dropped.
bool UsesLshCandidates(const MatchOptions& options);

/// The table pairs a whole-lake discovery build scores, as ascending (i, j)
/// lake positions with i < j: when UsesLshCandidates(options), the pairs
/// whose bucket-key sets intersect (TableBucketKeys per table, fanning out
/// over `pool`, then LshCandidatePairs), else the full upper triangle. Key
/// sets build over the sketches in `cache`, so the list is identical at any
/// thread count. A non-null `metrics` records `drg.candidate_pairs`,
/// `drg.pairs_pruned` and, under LSH, `lsh.columns_indexed` /
/// `lsh.columns_skipped` (columns with an empty sketch) plus
/// LshCandidatePairs' `lsh.bucket_collisions` and `lsh_index.bytes`
/// gauges. A non-null `bucket_keys` receives every table's key set (lake
/// order) under LSH and is left empty otherwise.
std::vector<std::pair<size_t, size_t>> CandidateTablePairs(
    const DataLake& lake, LakeSketchCache& cache, const MatchOptions& options,
    ThreadPool* pool = nullptr, obs::MetricsRegistry* metrics = nullptr,
    std::vector<std::vector<uint64_t>>* bucket_keys = nullptr);

/// Scores every (i, j) of `pairs` with MatchSchemas over the sketches in
/// `cache`, fanning the pairs out over `pool`, and returns each pair's
/// matches (oriented table i -> table j) in pair order. Each result is a
/// pure function of the two tables, so the output is identical at any
/// thread count.
std::vector<std::vector<ColumnMatch>> ScoreTablePairs(
    const DataLake& lake, LakeSketchCache& cache,
    const std::vector<std::pair<size_t, size_t>>& pairs,
    const MatchOptions& options, ThreadPool* pool = nullptr);

/// The one whole-lake fold of scored pairs into a discovered DRG: a node per
/// table in lake order, then for each (i, j) of `pairs` (ascending lake
/// positions, i < j — the full upper triangle or a candidate subset of it)
/// the edges of `matches[p]` (oriented table i -> table j) in match order.
/// The fold is sequential, so the graph is independent of the thread count
/// that scored the pairs; DatasetRelationGraph's discovered-graph edits
/// keep this shape. A non-null `metrics` counts `drg.pairs_scored`,
/// `drg.pairs_matched` and `drg.edges_added`.
Result<DatasetRelationGraph> FoldPairMatches(
    const DataLake& lake, const std::vector<std::pair<size_t, size_t>>& pairs,
    const std::vector<std::vector<ColumnMatch>>& matches,
    obs::MetricsRegistry* metrics = nullptr);

/// Generic DRG construction with a pluggable matcher — "DRG construction is
/// independent of the dataset discovery algorithm" (§IV). The matcher maps
/// two tables to scored column pairs; every reported match becomes an edge.
/// With a `pool`, pairs are matched concurrently (the matcher must be a
/// pure function of its arguments) and merged in deterministic pair order.
Result<DatasetRelationGraph> BuildDrgWithMatcher(
    const DataLake& lake,
    const std::function<std::vector<ColumnMatch>(const Table&, const Table&)>&
        matcher,
    ThreadPool* pool = nullptr, obs::MetricsRegistry* metrics = nullptr);

}  // namespace autofeat

#endif  // AUTOFEAT_DISCOVERY_DATA_LAKE_H_
