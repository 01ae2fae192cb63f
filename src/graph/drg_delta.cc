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
  std::unordered_map<std::string, size_t> position;
  for (const std::string& name : lake_order) {
    position.emplace(name, drg.AddNode(name));
  }
  // Each stored pair at its lake positions i < j, ascending: the fold order
  // of a cold BuildDrgByDiscovery, without probing every name pair.
  struct Placed {
    size_t i;
    size_t j;
    bool flip;  // stored right -> left of lake order
    const StoredPair* pair;
  };
  std::vector<Placed> placed;
  placed.reserve(pairs_.size());
  for (const auto& [key, pair] : pairs_) {
    auto left = position.find(pair.left);
    auto right = position.find(pair.right);
    if (left == position.end() || right == position.end() ||
        left->second == right->second) {
      continue;
    }
    const bool flip = left->second > right->second;
    placed.push_back({flip ? right->second : left->second,
                      flip ? left->second : right->second, flip, &pair});
  }
  std::sort(placed.begin(), placed.end(),
            [](const Placed& x, const Placed& y) {
              return x.i != y.i ? x.i < y.i : x.j < y.j;
            });
  for (const Placed& p : placed) {
    for (const ColumnMatch& m : p.pair->matches) {
      AF_RETURN_NOT_OK(drg.AddEdge(
          drg.NodeName(p.i), p.flip ? m.right_column : m.left_column,
          drg.NodeName(p.j), p.flip ? m.left_column : m.right_column,
          m.score));
    }
  }
  return drg;
}

}  // namespace autofeat
