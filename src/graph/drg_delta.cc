#include "graph/drg_delta.h"

#include <algorithm>
#include <utility>

namespace autofeat {

std::string DrgMatchStore::PairKey(const std::string& a,
                                   const std::string& b) {
  // Order-insensitive key; '\0' cannot occur inside a table name loaded
  // from disk and keeps "ab"+"c" distinct from "a"+"bc".
  return a < b ? a + '\0' + b : b + '\0' + a;
}

void DrgMatchStore::SetMatches(const std::string& left,
                               const std::string& right,
                               std::vector<ColumnMatch> matches) {
  const std::string key = PairKey(left, right);
  if (matches.empty()) {
    pairs_.erase(key);
    return;
  }
  pairs_[key] = StoredPair{left, right, std::move(matches)};
}

void DrgMatchStore::PurgeTable(const std::string& table) {
  for (auto it = pairs_.begin(); it != pairs_.end();) {
    if (it->second.left == table || it->second.right == table) {
      it = pairs_.erase(it);
    } else {
      ++it;
    }
  }
}

std::vector<ColumnMatch> DrgMatchStore::MatchesFor(const std::string& a,
                                                   const std::string& b) const {
  auto it = pairs_.find(PairKey(a, b));
  if (it == pairs_.end()) return {};
  if (it->second.left == a) return it->second.matches;
  std::vector<ColumnMatch> flipped;
  flipped.reserve(it->second.matches.size());
  for (const ColumnMatch& m : it->second.matches) {
    flipped.push_back({m.right_column, m.left_column, m.score});
  }
  return flipped;
}

Result<DatasetRelationGraph> DrgMatchStore::BuildGraph(
    const std::vector<std::string>& lake_order) const {
  DatasetRelationGraph drg;
  for (const std::string& name : lake_order) drg.AddNode(name);
  for (size_t i = 0; i < lake_order.size(); ++i) {
    for (size_t j = i + 1; j < lake_order.size(); ++j) {
      for (const ColumnMatch& m : MatchesFor(lake_order[i], lake_order[j])) {
        AF_RETURN_NOT_OK(drg.AddEdge(lake_order[i], m.left_column,
                                     lake_order[j], m.right_column, m.score));
      }
    }
  }
  return drg;
}

}  // namespace autofeat
