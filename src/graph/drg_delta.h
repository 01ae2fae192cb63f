// Incremental DRG maintenance: a canonical per-table-pair match store that
// a mutation path updates in place and rebuilds a DatasetRelationGraph from.
//
// Why a store + rebuild rather than editing the graph? Edge *insertion
// order* is observable: Neighbors() lists nodes in first-edge order, BFS
// path enumeration follows it, and discovery ranking breaks ties by BFS
// order. A cold BuildDrgByDiscovery folds matches in ascending (i, j)
// lake-order — so an incrementally maintained graph is byte-identical to a
// cold rebuild only if its edges are folded in exactly that order too.
// Appending "just the new edges" to a live graph would diverge.
//
// The store therefore keeps matches keyed by *table-name pair* and rebuilds
// the graph object canonically (nodes in lake order, pair edges ascending
// (i, j)) after every mutation, while the expensive part (scoring) stays
// incremental: a mutation re-scores only pairs touching mutated tables.
// Rebuilding probes every (i, j) name pair, O(nodes² + edges); at 1,000
// tables that is a few tens of milliseconds, about the cost of a whole
// mutation.

#ifndef AUTOFEAT_GRAPH_DRG_DELTA_H_
#define AUTOFEAT_GRAPH_DRG_DELTA_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "graph/drg.h"
#include "util/status.h"

namespace autofeat {

/// \brief A discovered join opportunity: one scored column pair between two
/// tables. Schema matchers (discovery layer) produce it and DrgMatchStore
/// keeps it per table pair; it lives here so graph does not depend on
/// discovery.
struct ColumnMatch {
  std::string left_column;
  std::string right_column;
  double score = 0.0;
};

/// \brief Canonical store of per-pair schema matches, the source of truth
/// the serving layer rebuilds its DRG from after each mutation.
class DrgMatchStore {
 public:
  /// Replaces the matches for the unordered pair {left, right}. `matches`
  /// must be oriented left -> right where `left` precedes `right` in lake
  /// order *at call time*; the store keys pairs order-insensitively and
  /// re-orients at build time, so later mutations shifting relative order
  /// (drop + re-add) stay correct. An empty vector erases the pair.
  void SetMatches(const std::string& left, const std::string& right,
                  std::vector<ColumnMatch> matches);

  /// Drops every pair involving `table` (table dropped or about to be
  /// re-matched from scratch).
  void PurgeTable(const std::string& table);

  /// The stored matches for {a, b} oriented a -> b (empty if none).
  std::vector<ColumnMatch> MatchesFor(const std::string& a,
                                      const std::string& b) const;

  /// Rebuilds the graph canonically: one node per lake table in
  /// `lake_order`, then for ascending (i, j) the stored matches of pair
  /// (table i, table j) as edges, in stored (match-score) order — exactly
  /// the fold order of a cold BuildDrgByDiscovery. Stored pairs whose
  /// tables are absent from `lake_order` are ignored (they belong to
  /// dropped tables awaiting purge).
  Result<DatasetRelationGraph> BuildGraph(
      const std::vector<std::string>& lake_order) const;

  size_t num_pairs() const { return pairs_.size(); }

 private:
  struct StoredPair {
    // Orientation the matches were stored under.
    std::string left;
    std::string right;
    std::vector<ColumnMatch> matches;
  };

  static std::string PairKey(const std::string& a, const std::string& b);

  std::unordered_map<std::string, StoredPair> pairs_;
};

}  // namespace autofeat

#endif  // AUTOFEAT_GRAPH_DRG_DELTA_H_
