#include "graph/drg.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <iterator>
#include <sstream>
#include <unordered_set>

namespace autofeat {

size_t DatasetRelationGraph::AddNode(const std::string& dataset_name) {
  auto it = node_index_.find(dataset_name);
  if (it != node_index_.end()) return it->second;
  size_t id = node_names_.size();
  node_names_.push_back(dataset_name);
  node_index_[dataset_name] = id;
  incidence_.emplace_back();
  return id;
}

Result<size_t> DatasetRelationGraph::NodeId(
    const std::string& dataset_name) const {
  auto it = node_index_.find(dataset_name);
  if (it == node_index_.end()) {
    return Status::KeyError("unknown dataset: " + dataset_name);
  }
  return it->second;
}

Status DatasetRelationGraph::AddEdge(const std::string& from_dataset,
                                     const std::string& from_column,
                                     const std::string& to_dataset,
                                     const std::string& to_column,
                                     double weight) {
  if (from_dataset == to_dataset) {
    return Status::InvalidArgument("self-joins are not modelled in the DRG");
  }
  size_t a = AddNode(from_dataset);
  size_t b = AddNode(to_dataset);
  // Deduplicate: an undirected edge with the same endpoints+columns.
  for (size_t e : incidence_[a]) {
    EdgeRecord& rec = edges_[e];
    bool same_forward = rec.a == a && rec.b == b &&
                        rec.a_column == from_column &&
                        rec.b_column == to_column;
    bool same_backward = rec.a == b && rec.b == a &&
                         rec.a_column == to_column &&
                         rec.b_column == from_column;
    if (same_forward || same_backward) {
      rec.weight = std::max(rec.weight, weight);
      return Status::OK();
    }
  }
  size_t idx = edges_.size();
  edges_.push_back(EdgeRecord{a, b, from_column, to_column, weight});
  incidence_[a].push_back(idx);
  incidence_[b].push_back(idx);
  return Status::OK();
}

void DatasetRelationGraph::RemoveNode(size_t id) {
  node_index_.erase(node_names_[id]);
  node_names_.erase(node_names_.begin() + static_cast<std::ptrdiff_t>(id));
  for (auto& [name, index] : node_index_) {
    if (index > id) --index;
  }
  edges_.erase(std::remove_if(edges_.begin(), edges_.end(),
                              [id](const EdgeRecord& e) {
                                return e.a == id || e.b == id;
                              }),
               edges_.end());
  // Relabelling is monotone, so the list stays ascending by (a, b).
  for (EdgeRecord& e : edges_) {
    if (e.a > id) --e.a;
    if (e.b > id) --e.b;
  }
  RebuildIncidence();
}

Status DatasetRelationGraph::ReplaceNodeEdges(
    size_t node, const std::vector<std::pair<size_t, size_t>>& pairs,
    const std::vector<std::vector<ColumnMatch>>& matches) {
  if (pairs.size() != matches.size()) {
    return Status::InvalidArgument("one match list per table pair expected");
  }
  std::vector<EdgeRecord> added;
  for (size_t p = 0; p < pairs.size(); ++p) {
    const auto& [i, j] = pairs[p];
    if (i >= j || j >= num_nodes() || (i != node && j != node) ||
        (p > 0 && pairs[p - 1] >= pairs[p])) {
      return Status::InvalidArgument(
          "edge edit pairs must ascend with i < j and touch the node");
    }
    // AddEdge's de-duplication within the pair: first position, max weight.
    const size_t first = added.size();
    for (const ColumnMatch& m : matches[p]) {
      auto same = std::find_if(
          added.begin() + static_cast<std::ptrdiff_t>(first), added.end(),
          [&](const EdgeRecord& e) {
            return e.a_column == m.left_column && e.b_column == m.right_column;
          });
      if (same != added.end()) {
        same->weight = std::max(same->weight, m.score);
      } else {
        added.push_back(EdgeRecord{i, j, m.left_column, m.right_column,
                                   m.score});
      }
    }
  }
  edges_.erase(std::remove_if(edges_.begin(), edges_.end(),
                              [node](const EdgeRecord& e) {
                                return e.a == node || e.b == node;
                              }),
               edges_.end());
  // No kept edge shares a pair with an added one, so the merge by (a, b)
  // is the fold order.
  std::vector<EdgeRecord> merged;
  merged.reserve(edges_.size() + added.size());
  std::merge(std::make_move_iterator(edges_.begin()),
             std::make_move_iterator(edges_.end()),
             std::make_move_iterator(added.begin()),
             std::make_move_iterator(added.end()), std::back_inserter(merged),
             [](const EdgeRecord& x, const EdgeRecord& y) {
               return x.a != y.a ? x.a < y.a : x.b < y.b;
             });
  edges_ = std::move(merged);
  RebuildIncidence();
  return Status::OK();
}

void DatasetRelationGraph::RebuildIncidence() {
  // Clearing in place keeps each list's capacity across edits.
  incidence_.resize(node_names_.size());
  for (std::vector<size_t>& list : incidence_) list.clear();
  for (size_t e = 0; e < edges_.size(); ++e) {
    incidence_[edges_[e].a].push_back(e);
    incidence_[edges_[e].b].push_back(e);
  }
}

std::vector<size_t> DatasetRelationGraph::Neighbors(size_t node) const {
  std::vector<size_t> out;
  std::unordered_set<size_t> seen;
  for (size_t e : incidence_[node]) {
    const EdgeRecord& rec = edges_[e];
    size_t other = rec.a == node ? rec.b : rec.a;
    if (seen.insert(other).second) out.push_back(other);
  }
  return out;
}

std::vector<JoinStep> DatasetRelationGraph::EdgesBetween(size_t a,
                                                         size_t b) const {
  std::vector<JoinStep> out;
  for (size_t e : incidence_[a]) {
    const EdgeRecord& rec = edges_[e];
    if (rec.a == a && rec.b == b) {
      out.push_back(JoinStep{a, b, rec.a_column, rec.b_column, rec.weight});
    } else if (rec.a == b && rec.b == a) {
      out.push_back(JoinStep{a, b, rec.b_column, rec.a_column, rec.weight});
    }
  }
  return out;
}

std::vector<JoinStep> DatasetRelationGraph::BestEdgesBetween(size_t a,
                                                             size_t b) const {
  std::vector<JoinStep> all = EdgesBetween(a, b);
  if (all.empty()) return all;
  double best = 0.0;
  for (const auto& s : all) best = std::max(best, s.weight);
  std::vector<JoinStep> out;
  for (auto& s : all) {
    if (s.weight == best) out.push_back(std::move(s));
  }
  return out;
}

std::vector<JoinPath> DatasetRelationGraph::EnumeratePaths(
    size_t start, size_t max_hops, bool prune_to_best_edges) const {
  std::vector<JoinPath> out;
  if (max_hops == 0) return out;
  // Level-order (BFS) expansion of partial paths, matching AutoFeat's
  // traversal order (§IV-A).
  std::deque<JoinPath> frontier;
  frontier.push_back(JoinPath{});
  while (!frontier.empty()) {
    JoinPath path = std::move(frontier.front());
    frontier.pop_front();
    if (path.length() >= max_hops) continue;
    size_t tail = path.Terminal(start);
    for (size_t neighbor : Neighbors(tail)) {
      if (neighbor == start || path.ContainsNode(neighbor)) continue;
      std::vector<JoinStep> edges = prune_to_best_edges
                                        ? BestEdgesBetween(tail, neighbor)
                                        : EdgesBetween(tail, neighbor);
      for (auto& step : edges) {
        JoinPath extended = path.Extend(std::move(step));
        out.push_back(extended);
        frontier.push_back(std::move(extended));
      }
    }
  }
  return out;
}

std::vector<size_t> DatasetRelationGraph::ReachableFrom(
    size_t start, size_t max_hops) const {
  std::vector<bool> visited(num_nodes(), false);
  visited[start] = true;
  std::vector<size_t> out{start};
  // BFS one level per hop: out[level_begin, end) holds the current level.
  for (size_t level_begin = 0, hop = 0;
       level_begin < out.size() && hop < max_hops; ++hop) {
    const size_t level_end = out.size();
    for (size_t k = level_begin; k < level_end; ++k) {
      for (size_t n : Neighbors(out[k])) {
        if (!visited[n]) {
          visited[n] = true;
          out.push_back(n);
        }
      }
    }
    level_begin = level_end;
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<size_t> DatasetRelationGraph::UnreachableFrom(size_t start) const {
  std::vector<size_t> reachable = ReachableFrom(start);
  std::vector<size_t> out;
  size_t r = 0;
  for (size_t node = 0; node < num_nodes(); ++node) {
    if (r < reachable.size() && reachable[r] == node) {
      ++r;
    } else {
      out.push_back(node);
    }
  }
  return out;
}

double DatasetRelationGraph::JoinAllPathCountLog10(size_t start) const {
  // BFS levels; per Eq. 3 each node contributes k(v)! choices where k(v) is
  // its number of not-yet-visited neighbours.
  std::vector<bool> visited(num_nodes(), false);
  visited[start] = true;
  std::vector<size_t> level{start};
  double log10_paths = 0.0;
  while (!level.empty()) {
    // First pass: count unvisited neighbours per node at this level.
    std::vector<size_t> next;
    for (size_t v : level) {
      size_t k = 0;
      for (size_t n : Neighbors(v)) {
        if (!visited[n]) ++k;
      }
      for (size_t i = 2; i <= k; ++i) {
        log10_paths += std::log10(static_cast<double>(i));
      }
    }
    // Second pass: mark and collect the next level.
    for (size_t v : level) {
      for (size_t n : Neighbors(v)) {
        if (!visited[n]) {
          visited[n] = true;
          next.push_back(n);
        }
      }
    }
    level = std::move(next);
  }
  return log10_paths;
}

std::vector<DrgEdge> DatasetRelationGraph::AllEdges() const {
  std::vector<DrgEdge> out;
  out.reserve(edges_.size());
  for (const EdgeRecord& e : edges_) {
    out.push_back({e.a, e.b, e.a_column, e.b_column, e.weight});
  }
  return out;
}

std::string DatasetRelationGraph::OrderedFingerprint() const {
  std::ostringstream out;
  out.precision(17);
  for (const std::string& name : node_names_) out << name << ";";
  out << "\n";
  for (const EdgeRecord& e : edges_) {
    out << e.a << "." << e.a_column << ">" << e.b << "." << e.b_column << "="
        << e.weight << "\n";
  }
  return out.str();
}

}  // namespace autofeat
