// Dataset-discovery substitute for COMA (paper §IV, §VII-A).
//
// The paper builds the data-lake DRG with the COMA schema matcher (via
// Valentine), thresholded at 0.55 "to encourage spurious, but not
// irrelevant, connections". COMA combines name-based and instance-based
// matchers into a similarity score in [0, 1]; AutoFeat consumes only that
// score. This module reproduces that contract with a combination of
// column-name similarity (Levenshtein + q-gram Jaccard) and instance
// value-overlap (containment of sampled distinct values).

#ifndef AUTOFEAT_DISCOVERY_SCHEMA_MATCHER_H_
#define AUTOFEAT_DISCOVERY_SCHEMA_MATCHER_H_

#include <string>
#include <string_view>
#include <vector>

#include "discovery/lsh_index.h"
#include "discovery/sketch_cache.h"
#include "graph/drg_delta.h"
#include "table/table.h"

namespace autofeat {

/// How whole-lake DRG builds (CandidateTablePairs in data_lake.h) enumerate
/// the table pairs to score exactly.
enum class CandidateMode {
  /// Score the full upper triangle — O(n²) pairs, exhaustive.
  kAllPairs,
  /// MinHash-LSH candidate generation (see lsh_index.h): exact scoring runs
  /// only on table pairs with a signature-band or small-column collision.
  /// Requires `threshold > name_weight` (UsesLshCandidates); otherwise
  /// discovery silently falls back to kAllPairs rather than drop
  /// name-only edges.
  kLsh,
};

struct MatchOptions {
  /// Relative weight of name similarity vs value overlap. Equal weights
  /// mean pure value containment (similarity 0.5) stays below the 0.55
  /// threshold on its own; some name evidence is required, which keeps the
  /// discovered graph spurious-but-plausible rather than complete.
  double name_weight = 0.5;
  double value_weight = 0.5;
  /// Minimum combined score for a match to be reported (paper: 0.55).
  double threshold = 0.55;
  /// Distinct values kept per column for the overlap estimate (a bottom-k
  /// by-hash sketch, so the same values survive on both sides).
  size_t max_sample_values = 4096;
  /// Columns with fewer distinct values than this have their value-overlap
  /// evidence discounted proportionally: containment of a two-value column
  /// (e.g. a binary label) in a key range is meaningless.
  size_t min_distinct_for_overlap = 16;
  /// Candidate generation strategy for BuildDrgByDiscovery. kAllPairs is a
  /// drop-in exhaustive default; kLsh makes DRG construction sub-quadratic
  /// in the number of tables on sparsely joinable lakes.
  CandidateMode candidate_mode = CandidateMode::kAllPairs;
  /// MinHash-LSH tuning (only read when candidate_mode == kLsh).
  LshOptions lsh;
  /// Memory budget in bytes for the column-sketch cache during DRG
  /// construction (0 = unbounded): under a budget the cache evicts
  /// least-recently-used table entries and rebuilds them on the next
  /// request. Sketches are pure functions of (table, max_sample_values), so
  /// the discovered DRG is byte-identical at any budget. Callers plumb
  /// AutoFeatConfig::memory_budget_bytes here (autofeat_cli does).
  size_t memory_budget_bytes = 0;
};

/// Name similarity in [0, 1]: max of normalised Levenshtein similarity and
/// 3-gram Jaccard over lower-cased names (1.0 for equal names).
double NameSimilarity(std::string_view a, std::string_view b);

/// Instance similarity in [0, 1]: containment |A ∩ B| / min(|A|, |B|) of the
/// (up to max_sample) distinct non-null values of the two columns.
double ValueOverlap(const Column& a, const Column& b, size_t max_sample);

/// All column pairs between `left` and `right` whose combined score reaches
/// options.threshold, sorted by descending score. Only columns of
/// join-plausible types are compared (string/int64 join keys; double columns
/// are compared with each other only).
std::vector<ColumnMatch> MatchSchemas(const Table& left, const Table& right,
                                      const MatchOptions& options = {});

/// MatchSchemas over precomputed column sketches (one per column, aligned
/// with the tables' column order, built with options.max_sample_values).
/// All-pairs DRG construction sketches each column once and calls this per
/// pair instead of re-scanning column values quadratically. Pure function of
/// its arguments — safe to call concurrently for different pairs.
std::vector<ColumnMatch> MatchSchemas(
    const Table& left, const std::vector<ColumnSketch>& left_sketches,
    const Table& right, const std::vector<ColumnSketch>& right_sketches,
    const MatchOptions& options = {});

}  // namespace autofeat

#endif  // AUTOFEAT_DISCOVERY_SCHEMA_MATCHER_H_
