#include "relational/join_index.h"

#include <cmath>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "util/rng.h"
#include "util/simd.h"

namespace autofeat {

JoinKeyIndex BuildJoinKeyIndex(const Column& key, uint64_t rep_seed) {
  JoinKeyIndex index;
  Rng rng(rep_seed);
  index.representative = PickKeyRepresentatives(key, &rng, &index.dict);
  return index;
}

static_assert(kNoMatchRow == KeyDictionary::kNoKey,
              "MapLeftJoin turns probe ids into right rows in place");

JoinRowMap MapLeftJoin(const Column& left_key, const JoinKeyIndex& index) {
  JoinRowMap map;
  map.right_rows = index.dict.Lookup(left_key);
  map.stats.total_rows = map.right_rows.size();
  map.stats.right_distinct_keys = index.num_distinct_keys();
  for (uint32_t& row : map.right_rows) {
    if (row != KeyDictionary::kNoKey) {
      row = index.representative[row];
      ++map.stats.matched_rows;
    }
  }
  return map;
}

Column GatherColumn(const Column& src, const std::vector<uint32_t>& rows) {
  Column out(src.type());
  out.Reserve(rows.size());
  for (uint32_t r : rows) {
    if (r == kNoMatchRow) {
      out.AppendNull();
    } else {
      out.AppendFrom(src, r);
    }
  }
  return out;
}

size_t GatherNullCount(const Column& src, const std::vector<uint32_t>& rows) {
  if (src.all_valid()) {
    // No right-side nulls: the count is exactly the unmatched rows, which
    // the vectorised sentinel scan finds without touching the column.
    return simd::CountEqualU32(rows.data(), rows.size(), kNoMatchRow);
  }
  return GatherNullCountReference(src, rows);
}

size_t GatherNullCountReference(const Column& src,
                                const std::vector<uint32_t>& rows) {
  size_t nulls = 0;
  for (uint32_t r : rows) {
    if (r == kNoMatchRow || src.IsNull(r)) ++nulls;
  }
  return nulls;
}

std::vector<double> GatherNumeric(const Column& src,
                                  const std::vector<uint32_t>& rows) {
  if (src.type() == DataType::kDouble && src.all_valid()) {
    // All-valid double column — the common case for feature columns after
    // CSV ingest: branch-free masked gather, NaN where unmatched. The mask
    // keeps sentinel lanes from dereferencing src.
    std::vector<double> out(rows.size());
    simd::GatherDoublesByRow(src.double_data().data(), rows.data(),
                             rows.size(), kNoMatchRow, std::nan(""),
                             out.data());
    return out;
  }
  return GatherNumericReference(src, rows);
}

std::vector<double> GatherNumericReference(const Column& src,
                                           const std::vector<uint32_t>& rows) {
  std::vector<double> out(rows.size());
  if (src.type() == DataType::kString) {
    // First-occurrence ordinal codes in output order — identical to
    // materialising the gathered column and calling ToNumeric on it.
    std::unordered_map<std::string_view, double> codes;
    for (size_t i = 0; i < rows.size(); ++i) {
      uint32_t r = rows[i];
      if (r == kNoMatchRow || src.IsNull(r)) {
        out[i] = std::nan("");
        continue;
      }
      auto [it, inserted] = codes.try_emplace(
          std::string_view(src.GetString(r)),
          static_cast<double>(codes.size()));
      out[i] = it->second;
    }
    return out;
  }
  for (size_t i = 0; i < rows.size(); ++i) {
    uint32_t r = rows[i];
    out[i] = (r == kNoMatchRow || src.IsNull(r)) ? std::nan("")
                                                 : src.NumericAt(r);
  }
  return out;
}

std::vector<std::string> ResolveAppendedNames(const Table& left,
                                              const Table& right) {
  return ResolveAppendedNames(left.ColumnNames(), right);
}

std::vector<std::string> ResolveAppendedNames(
    const std::vector<std::string>& left_names, const Table& right) {
  std::unordered_set<std::string> used;
  used.reserve(left_names.size() + right.num_columns());
  for (const auto& name : left_names) used.insert(name);

  std::vector<std::string> out;
  out.reserve(right.num_columns());
  // Per-base suffix counters avoid the quadratic rescan of candidate names
  // while producing exactly the suffixes the old HasColumn loop chose.
  std::unordered_map<std::string, int> next_suffix;
  for (size_t c = 0; c < right.num_columns(); ++c) {
    std::string name = right.schema().field(c).name;
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
    out.push_back(std::move(name));
  }
  return out;
}

Result<JoinResult> LeftJoinWithIndex(const Table& left,
                                     const std::string& left_key,
                                     const Table& right,
                                     const JoinKeyIndex& index) {
  AF_ASSIGN_OR_RETURN(const Column* lkey, left.GetColumn(left_key));
  JoinRowMap map = MapLeftJoin(*lkey, index);

  JoinResult result;
  result.stats = map.stats;

  Table out(left.name());
  for (size_t c = 0; c < left.num_columns(); ++c) {
    AF_RETURN_NOT_OK(
        out.AddColumn(left.schema().field(c).name, left.column(c)));
  }
  std::vector<std::string> names = ResolveAppendedNames(left, right);
  for (size_t c = 0; c < right.num_columns(); ++c) {
    AF_RETURN_NOT_OK(
        out.AddColumn(names[c], GatherColumn(right.column(c), map.right_rows)));
  }
  result.table = std::move(out);
  return result;
}

}  // namespace autofeat
