// The node-map key dictionary the flat KeyDictionary replaced, kept as a
// differential oracle: two std::unordered_maps (int64 and string key
// spaces) assign dense ids in first-seen row order, and per-id row lists
// group the rows. Plus seeded key columns whose spellings cross key spaces,
// so the suites can compare the two dictionaries on ids, groups, probes and
// the representative rows of a join index.

#ifndef AUTOFEAT_TESTS_SUPPORT_NODE_MAP_DICTIONARY_H_
#define AUTOFEAT_TESTS_SUPPORT_NODE_MAP_DICTIONARY_H_

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "table/column.h"
#include "table/key_dictionary.h"
#include "util/rng.h"

namespace autofeat::testsupport {

class NodeMapDictionary {
 public:
  explicit NodeMapDictionary(const Column& key) {
    row_ids_.assign(key.size(), KeyDictionary::kNoKey);
    for (size_t i = 0; i < key.size(); ++i) {
      if (key.IsNull(i)) continue;
      int64_t as_int;
      std::string as_string;
      uint32_t next = static_cast<uint32_t>(groups_.size());
      uint32_t id = Canonical(key, i, &as_int, &as_string)
                        ? int_ids_.try_emplace(as_int, next).first->second
                        : str_ids_.try_emplace(as_string, next).first->second;
      if (id == next) groups_.emplace_back();
      groups_[id].push_back(static_cast<uint32_t>(i));
      row_ids_[i] = id;
    }
  }

  uint32_t num_keys() const { return static_cast<uint32_t>(groups_.size()); }
  const std::vector<uint32_t>& row_ids() const { return row_ids_; }
  const std::vector<uint32_t>& group(uint32_t id) const { return groups_[id]; }

  uint32_t Lookup(const Column& probe, size_t row) const {
    if (probe.IsNull(row)) return KeyDictionary::kNoKey;
    int64_t as_int;
    std::string as_string;
    if (Canonical(probe, row, &as_int, &as_string)) {
      auto it = int_ids_.find(as_int);
      return it == int_ids_.end() ? KeyDictionary::kNoKey : it->second;
    }
    auto it = str_ids_.find(as_string);
    return it == str_ids_.end() ? KeyDictionary::kNoKey : it->second;
  }

  /// The cardinality-normalisation representatives BuildJoinKeyIndex must
  /// draw: one Rng(seed) pick per duplicated key, in id order.
  std::vector<uint32_t> Representatives(uint64_t seed) const {
    Rng rng(seed);
    std::vector<uint32_t> reps;
    for (const std::vector<uint32_t>& rows : groups_) {
      reps.push_back(rows.size() == 1 ? rows[0]
                                      : rows[rng.UniformIndex(rows.size())]);
    }
    return reps;
  }

 private:
  // The key space, read off the KeyAt string itself: true with `*as_int`
  // when that string is a canonical int, false with `*as_string` otherwise.
  static bool Canonical(const Column& col, size_t row, int64_t* as_int,
                        std::string* as_string) {
    *as_string = col.KeyAt(row);
    if (auto v = CanonicalIntKey(*as_string)) {
      *as_int = *v;
      return true;
    }
    return false;
  }

  std::unordered_map<int64_t, uint32_t> int_ids_;
  std::unordered_map<std::string, uint32_t> str_ids_;
  std::vector<uint32_t> row_ids_;
  std::vector<std::vector<uint32_t>> groups_;
};

/// A seeded key column of `type` with `rows` rows: about a tenth null, the
/// rest drawn from a pool of `distinct` fresh keys mixed with spellings
/// that meet across key spaces (7 / 7.0 / "7", "07", "-0", ±9e15 and 1e16,
/// ±1e17 where doubles stop spelling as integers, NaN, 17-digit doubles),
/// so duplicate groups and cross-type matches are frequent.
inline Column SeededKeyColumn(DataType type, size_t rows, size_t distinct,
                              uint64_t seed) {
  const std::vector<int64_t> ints = {
      7,  0, -3, 9'000'000'000'000'000, -9'000'000'000'000'000,
      8'999'999'999'999'999, 10'000'000'000'000'000,
      std::numeric_limits<int64_t>::min(), std::numeric_limits<int64_t>::max()};
  const std::vector<double> doubles = {
      7.0, 2.5, -0.0, 0.1, 1.0 / 3.0, std::nan(""), 9e15, -9e15,
      8999999999999998.0, 1e16, 99999999999999984.0, 1e17, -1e17,
      std::numeric_limits<double>::infinity()};
  const std::vector<std::string> strings = {
      "7",   "07", "-0", "0",   "2.5", "0.10000000000000001", "nan",
      "7.0", "",   "x",  "-3",  "9000000000000000", "-9000000000000000",
      "0.33333333333333331", "10000000000000000"};
  Rng rng(seed);
  Column col(type);
  for (size_t i = 0; i < rows; ++i) {
    if (rng.UniformIndex(10) == 0) {
      col.AppendNull();
      continue;
    }
    const bool special = rng.UniformIndex(4) == 0;
    const size_t fresh = rng.UniformIndex(distinct);
    switch (type) {
      case DataType::kInt64:
        col.AppendInt64(special ? ints[rng.UniformIndex(ints.size())]
                                : static_cast<int64_t>(fresh * 7919) - 500);
        break;
      case DataType::kDouble:
        col.AppendDouble(special ? doubles[rng.UniformIndex(doubles.size())]
                         : fresh % 2 == 0 ? static_cast<double>(fresh)
                                          : fresh + 0.5);
        break;
      case DataType::kString:
        col.AppendString(special ? strings[rng.UniformIndex(strings.size())]
                         : fresh % 3 == 0 ? std::to_string(fresh)
                                          : "k" + std::to_string(fresh));
        break;
    }
  }
  return col;
}

}  // namespace autofeat::testsupport

#endif  // AUTOFEAT_TESTS_SUPPORT_NODE_MAP_DICTIONARY_H_
