#include "relational/join.h"

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "table/key_dictionary.h"

namespace autofeat {

namespace {

// Appends `right`'s columns to `out` gathered by `right_rows` (sentinel ->
// null), disambiguating name collisions with per-base suffix counters
// instead of rescanning HasColumn per candidate suffix.
constexpr size_t kNoMatch = static_cast<size_t>(-1);

Status AppendGatheredRightColumns(Table* out, const Table& right,
                                  const std::vector<size_t>& right_rows) {
  std::unordered_set<std::string> used;
  used.reserve(out->num_columns() + right.num_columns());
  for (const auto& name : out->ColumnNames()) used.insert(name);
  std::unordered_map<std::string, int> next_suffix;

  for (size_t c = 0; c < right.num_columns(); ++c) {
    const Column& src = right.column(c);
    Column gathered(src.type());
    gathered.Reserve(right_rows.size());
    for (size_t r : right_rows) {
      if (r == kNoMatch) {
        gathered.AppendNull();
      } else {
        gathered.AppendFrom(src, r);
      }
    }
    std::string name = right.schema().field(c).name;
    // Disambiguate collisions (e.g. the same table joined twice on a path).
    if (used.count(name) > 0) {
      int& suffix = next_suffix.try_emplace(name, 2).first->second;
      std::string candidate;
      do {
        candidate = name + "#" + std::to_string(suffix);
        ++suffix;
      } while (used.count(candidate) > 0);
      name = std::move(candidate);
    }
    used.insert(name);
    AF_RETURN_NOT_OK(out->AddColumn(name, std::move(gathered)));
  }
  return Status::OK();
}

}  // namespace

std::vector<uint32_t> PickKeyRepresentatives(const Column& key, Rng* rng,
                                             KeyDictionary* dict) {
  // Dictionary ids are assigned in first-seen row order, so iterating them
  // in id order reproduces the deterministic group order (and the per-group
  // RNG stream) of the original string-keyed grouping.
  std::vector<uint32_t> row_ids;
  *dict = KeyDictionary::Build(key, &row_ids);
  const KeyGroups groups(row_ids, dict->num_keys());
  std::vector<uint32_t> picks(dict->num_keys());
  for (uint32_t id = 0; id < dict->num_keys(); ++id) {
    const uint32_t* rows = groups.rows_begin(id);
    size_t count = groups.rows_count(id);
    picks[id] = count == 1 ? rows[0] : rows[rng->UniformIndex(count)];
  }
  return picks;
}

Result<Table> NormalizeJoinCardinality(const Table& right,
                                       const std::string& key_column,
                                       Rng* rng) {
  AF_ASSIGN_OR_RETURN(const Column* key, right.GetColumn(key_column));
  KeyDictionary dict;
  std::vector<uint32_t> picks = PickKeyRepresentatives(*key, rng, &dict);
  return right.TakeRows(std::vector<size_t>(picks.begin(), picks.end()));
}

Result<JoinResult> Join(const Table& left, const std::string& left_key,
                        const Table& right, const std::string& right_key,
                        Rng* rng, const JoinOptions& options) {
  AF_ASSIGN_OR_RETURN(const Column* lkey, left.GetColumn(left_key));

  const Table* probe_side = &right;
  Table normalized;
  if (options.normalize_cardinality) {
    AF_ASSIGN_OR_RETURN(normalized,
                        NormalizeJoinCardinality(right, right_key, rng));
    probe_side = &normalized;
  }
  AF_ASSIGN_OR_RETURN(const Column* rkey, probe_side->GetColumn(right_key));

  // Intern the right keys once (one row per key when normalised, CSR lists
  // otherwise); probing is typed and allocation-free for numeric keys.
  std::vector<uint32_t> row_ids;
  KeyDictionary dict = KeyDictionary::Build(*rkey, &row_ids);
  const KeyGroups groups(row_ids, dict.num_keys());
  const std::vector<uint32_t> left_ids = dict.Lookup(*lkey);

  JoinResult result;
  result.stats.right_distinct_keys = dict.num_keys();

  // Probe: gather the output row indices per side directly — materialising
  // (left, right) pairs first would allocate and traverse the same data
  // twice just to re-split it into these two vectors.
  std::vector<size_t> left_rows;
  std::vector<size_t> right_rows;  // kNoMatch where unmatched
  left_rows.reserve(left.num_rows());
  right_rows.reserve(left.num_rows());
  for (size_t i = 0; i < left.num_rows(); ++i) {
    uint32_t id = left_ids[i];
    if (id != KeyDictionary::kNoKey) {
      ++result.stats.matched_rows;
      const uint32_t* rows = groups.rows_begin(id);
      size_t count = groups.rows_count(id);
      for (size_t r = 0; r < count; ++r) {
        left_rows.push_back(i);
        right_rows.push_back(rows[r]);
      }
    } else if (options.type == JoinType::kLeft) {
      left_rows.push_back(i);
      right_rows.push_back(kNoMatch);
    }
  }
  result.stats.total_rows = left_rows.size();

  // Materialise: left columns gathered by left index, right columns by
  // right index (null where unmatched).
  Table out(left.name());
  for (size_t c = 0; c < left.num_columns(); ++c) {
    AF_RETURN_NOT_OK(out.AddColumn(left.schema().field(c).name,
                                   left.column(c).Take(left_rows)));
  }
  AF_RETURN_NOT_OK(AppendGatheredRightColumns(&out, *probe_side, right_rows));
  result.table = std::move(out);
  return result;
}

Result<JoinResult> JoinStringKeyed(const Table& left,
                                   const std::string& left_key,
                                   const Table& right,
                                   const std::string& right_key, Rng* rng,
                                   const JoinOptions& options) {
  AF_ASSIGN_OR_RETURN(const Column* lkey, left.GetColumn(left_key));

  const Table* probe_side = &right;
  Table normalized;
  if (options.normalize_cardinality) {
    // The original string-keyed normalisation, group picks drawn the same
    // way so both implementations consume identical RNG streams.
    AF_ASSIGN_OR_RETURN(const Column* key, right.GetColumn(right_key));
    std::unordered_map<std::string, std::vector<size_t>> groups;
    std::vector<const std::vector<size_t>*> order;
    for (size_t i = 0; i < key->size(); ++i) {
      if (key->IsNull(i)) continue;  // Null keys never match in a join.
      auto [it, inserted] = groups.try_emplace(key->KeyAt(i));
      it->second.push_back(i);
      if (inserted) order.push_back(&it->second);
    }
    std::vector<size_t> keep;
    keep.reserve(order.size());
    for (const auto* rows : order) {
      keep.push_back(rows->size() == 1
                         ? (*rows)[0]
                         : (*rows)[rng->UniformIndex(rows->size())]);
    }
    normalized = right.TakeRows(keep);
    probe_side = &normalized;
  }
  AF_ASSIGN_OR_RETURN(const Column* rkey, probe_side->GetColumn(right_key));

  std::unordered_map<std::string, std::vector<size_t>> right_index;
  right_index.reserve(rkey->size());
  for (size_t i = 0; i < rkey->size(); ++i) {
    if (rkey->IsNull(i)) continue;
    right_index[rkey->KeyAt(i)].push_back(i);
  }

  JoinResult result;
  result.stats.right_distinct_keys = right_index.size();

  std::vector<size_t> left_rows;
  std::vector<size_t> right_rows;
  left_rows.reserve(left.num_rows());
  right_rows.reserve(left.num_rows());
  for (size_t i = 0; i < left.num_rows(); ++i) {
    const std::vector<size_t>* matches = nullptr;
    if (!lkey->IsNull(i)) {
      auto it = right_index.find(lkey->KeyAt(i));
      if (it != right_index.end()) matches = &it->second;
    }
    if (matches != nullptr) {
      ++result.stats.matched_rows;
      for (size_t r : *matches) {
        left_rows.push_back(i);
        right_rows.push_back(r);
      }
    } else if (options.type == JoinType::kLeft) {
      left_rows.push_back(i);
      right_rows.push_back(kNoMatch);
    }
  }
  result.stats.total_rows = left_rows.size();

  Table out(left.name());
  for (size_t c = 0; c < left.num_columns(); ++c) {
    AF_RETURN_NOT_OK(out.AddColumn(left.schema().field(c).name,
                                   left.column(c).Take(left_rows)));
  }
  AF_RETURN_NOT_OK(AppendGatheredRightColumns(&out, *probe_side, right_rows));
  result.table = std::move(out);
  return result;
}

Result<double> JoinCompleteness(
    const Table& joined, const std::vector<std::string>& appended_columns) {
  // Column lookup happens before any early return: a misnamed column is a
  // KeyError even for empty joins, not a silent perfect score.
  size_t nulls = 0;
  size_t total = 0;
  for (const auto& name : appended_columns) {
    AF_ASSIGN_OR_RETURN(const Column* col, joined.GetColumn(name));
    nulls += col->null_count();
    total += col->size();
  }
  if (total == 0) return 1.0;
  return 1.0 - static_cast<double>(nulls) / static_cast<double>(total);
}

}  // namespace autofeat
