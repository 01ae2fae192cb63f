// Interned join keys: dictionary-encoding of a key column into dense ids.
//
// Joins used to compare keys through Column::KeyAt, which allocates a
// std::string per row per probe. A KeyDictionary interns each key once into
// a typed key space and assigns dense uint32_t ids in first-seen row order.
// The space comes from the cell's key spelling (Column::WriteKey): a
// spelling that is a canonical int (int64 cells, integral doubles below
// 1e17 by DoubleIntKey, strings like "7" by CanonicalIntKey) is interned as
// an int64, and every other spelling as its bytes. So int64 7, double 7.0
// and string "7" intern to the same key and string "07" does not, exactly
// as their KeyAt strings compare.
//
// The table is flat: one open-addressed, power-of-two array of (hash tag,
// id) slots over keys stored in id order (an int64 per id; string bytes in
// one arena). Building or freeing it allocates a handful of arrays, never a
// node per key. Bucket hashes are specified (util/rng.h), so the layout —
// and ApproxBytes — is the same under every standard library.

#ifndef AUTOFEAT_TABLE_KEY_DICTIONARY_H_
#define AUTOFEAT_TABLE_KEY_DICTIONARY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "table/column.h"

namespace autofeat {

/// \brief Dense-id dictionary over one key column.
///
/// Ids are assigned in first-seen row order (the deterministic group order
/// joins and cardinality normalisation rely on), across both key spaces.
class KeyDictionary {
 public:
  /// Sentinel id for null rows and probe misses.
  static constexpr uint32_t kNoKey = static_cast<uint32_t>(-1);

  /// Builds the dictionary over every non-null row of `key`. `row_ids`
  /// receives, per source row, the row's key id (kNoKey for nulls) — the
  /// input KeyGroups needs; the dictionary itself does not keep it.
  static KeyDictionary Build(const Column& key,
                             std::vector<uint32_t>* row_ids);

  /// Number of distinct (non-null) keys.
  uint32_t num_keys() const { return static_cast<uint32_t>(keys_.size()); }

  /// Per row of `probe`: its key id under this dictionary, kNoKey when the
  /// row is null or its key was never interned. No key allocates: numeric
  /// spellings are written on the stack, and int64 keys are never spelled.
  std::vector<uint32_t> Lookup(const Column& probe) const;

  /// Slots a dictionary of `num_keys` keys holds: the smallest power of two
  /// keeping the load at most 1/2 (at least 2).
  static size_t SlotCapacity(size_t num_keys);

  /// Heap footprint in bytes: the object plus its arrays, each sized
  /// exactly. A pure function of the keys, so equal content reports equal
  /// bytes (see Column::ApproxBytes for why the memory gauges need that).
  size_t ApproxBytes() const;

 private:
  struct Slot {
    uint32_t tag;  // high hash bits; bit 0 is the key space (1 = string)
    uint32_t id;   // kNoKey when the slot is empty
  };

  template <typename Matches>
  uint32_t Find(uint32_t tag, const Matches& matches, size_t* at) const;
  uint32_t FindInt(int64_t v) const;
  uint32_t FindString(std::string_view s) const;
  uint32_t InternInt(int64_t v);
  uint32_t InternString(std::string_view s);
  uint32_t Insert(uint32_t tag, size_t at, int64_t key);
  void Rehash(size_t capacity);
  std::string_view StringKey(uint32_t id) const;

  std::vector<Slot> slots_;         // SlotCapacity(num_keys()) entries
  uint32_t shift_ = 0;              // 32 - log2(slots_.size())
  std::vector<int64_t> keys_;       // per id: int64 key or string ordinal
  std::vector<char> arena_;         // string keys' bytes, in ordinal order
  std::vector<uint64_t> str_ends_;  // per string ordinal: end in arena_
};

/// \brief Rows grouped by key id in CSR layout (an offsets array plus one
/// flat row array): each id's rows are contiguous and ascending. Built on
/// demand from KeyDictionary::Build's row ids by the callers that walk
/// duplicate-key groups, and dropped after — the cached join index does not
/// keep it.
class KeyGroups {
 public:
  KeyGroups(const std::vector<uint32_t>& row_ids, uint32_t num_keys);

  const uint32_t* rows_begin(uint32_t id) const {
    return rows_.data() + offsets_[id];
  }
  size_t rows_count(uint32_t id) const {
    return offsets_[id + 1] - offsets_[id];
  }

 private:
  std::vector<uint32_t> offsets_;  // num_keys + 1
  std::vector<uint32_t> rows_;
};

}  // namespace autofeat

#endif  // AUTOFEAT_TABLE_KEY_DICTIONARY_H_
