#include "table/key_dictionary.h"

#include <algorithm>
#include <bit>

#include "util/rng.h"

namespace autofeat {

namespace {

// Slots Build starts with: room for this many keys.
constexpr size_t kInitialKeys = 4096;

// Slot tags: the high 32 bits of a specified 64-bit hash, with bit 0
// replaced by the key space so an int and a string never compare equal.
// Fnv1a64's high bits barely move with a string's last byte, so the string
// hash goes through the same DeriveSeed finaliser as the ints.
uint32_t IntTag(int64_t v) {
  return static_cast<uint32_t>(DeriveSeed(static_cast<uint64_t>(v), 0) >> 32) &
         ~1u;
}

uint32_t StringTag(std::string_view s) {
  return static_cast<uint32_t>(DeriveSeed(Fnv1a64(s), 0) >> 32) | 1u;
}

// Calls on_int(row, v) or on_string(row, s) for every non-null row of `col`
// with that row's key: on_int when its spelling (Column::WriteKey) is a
// canonical int, which is never spelled. The column type and null mask are
// resolved once, outside the row loop.
template <typename OnInt, typename OnString>
void ForEachCanonicalKey(const Column& col, const OnInt& on_int,
                         const OnString& on_string) {
  const size_t n = col.size();
  auto rows = [&](const auto& visit) {
    if (col.all_valid()) {
      for (size_t i = 0; i < n; ++i) visit(i);
    } else {
      for (size_t i = 0; i < n; ++i) {
        if (!col.IsNull(i)) visit(i);
      }
    }
  };
  switch (col.type()) {
    case DataType::kInt64:
      rows([&](size_t i) { on_int(i, col.GetInt64(i)); });
      return;
    case DataType::kDouble:
      rows([&](size_t i) {
        if (auto as_int = DoubleIntKey(col.GetDouble(i))) {
          on_int(i, *as_int);
        } else {
          KeyBuffer buf;
          on_string(i, col.WriteKey(i, &buf));
        }
      });
      return;
    case DataType::kString:
      rows([&](size_t i) {
        const std::string& s = col.GetString(i);
        if (auto as_int = CanonicalIntKey(s)) {
          on_int(i, *as_int);
        } else {
          on_string(i, s);
        }
      });
      return;
  }
}

}  // namespace

size_t KeyDictionary::SlotCapacity(size_t num_keys) {
  return std::max<size_t>(2, std::bit_ceil(2 * num_keys));
}

// Linear probing from the slot the tag's high bits name. Returns the id of
// the first slot whose tag and key match, else kNoKey with `*at` set to the
// empty slot that ends the run (where an insert goes).
template <typename Matches>
uint32_t KeyDictionary::Find(uint32_t tag, const Matches& matches,
                             size_t* at) const {
  const size_t mask = slots_.size() - 1;
  for (size_t i = tag >> shift_;; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.id == kNoKey) {
      *at = i;
      return kNoKey;
    }
    if (slot.tag == tag && matches(slot.id)) return slot.id;
  }
}

std::string_view KeyDictionary::StringKey(uint32_t id) const {
  const uint64_t ordinal = static_cast<uint64_t>(keys_[id]);
  const uint64_t begin = ordinal == 0 ? 0 : str_ends_[ordinal - 1];
  return std::string_view(arena_.data() + begin, str_ends_[ordinal] - begin);
}

uint32_t KeyDictionary::FindInt(int64_t v) const {
  if (str_ends_.size() == keys_.size()) return kNoKey;  // no int keys
  size_t at = 0;
  return Find(IntTag(v), [&](uint32_t k) { return keys_[k] == v; }, &at);
}

uint32_t KeyDictionary::FindString(std::string_view s) const {
  if (str_ends_.empty()) return kNoKey;
  size_t at = 0;
  return Find(StringTag(s), [&](uint32_t k) { return StringKey(k) == s; },
              &at);
}

uint32_t KeyDictionary::InternInt(int64_t v) {
  const uint32_t tag = IntTag(v);
  size_t at = 0;
  uint32_t id = Find(tag, [&](uint32_t k) { return keys_[k] == v; }, &at);
  return id != kNoKey ? id : Insert(tag, at, v);
}

uint32_t KeyDictionary::InternString(std::string_view s) {
  const uint32_t tag = StringTag(s);
  size_t at = 0;
  uint32_t id = Find(tag, [&](uint32_t k) { return StringKey(k) == s; }, &at);
  if (id != kNoKey) return id;
  arena_.insert(arena_.end(), s.begin(), s.end());
  str_ends_.push_back(arena_.size());
  return Insert(tag, at, static_cast<int64_t>(str_ends_.size() - 1));
}

uint32_t KeyDictionary::Insert(uint32_t tag, size_t at, int64_t key) {
  const uint32_t id = static_cast<uint32_t>(keys_.size());
  keys_.push_back(key);
  slots_[at] = Slot{tag, id};
  return id;
}

void KeyDictionary::Rehash(size_t capacity) {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(capacity, Slot{kNoKey, kNoKey});
  shift_ = 32 - static_cast<uint32_t>(std::countr_zero(capacity));
  const size_t mask = capacity - 1;
  for (const Slot& slot : old) {
    if (slot.id == kNoKey) continue;
    size_t i = slot.tag >> shift_;
    while (slots_[i].id != kNoKey) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

KeyDictionary KeyDictionary::Build(const Column& key,
                                   std::vector<uint32_t>* row_ids) {
  KeyDictionary dict;
  const size_t n = key.size();
  dict.Rehash(SlotCapacity(std::min(n, kInitialKeys)));
  dict.keys_.reserve(std::min(n, kInitialKeys));
  row_ids->assign(n, kNoKey);
  uint32_t* ids = row_ids->data();
  // Before row i's key, make room for one more. A full table grows in one
  // step to hold every remaining row as a new key — a primary-key column
  // rehashes once instead of at each doubling, which touched about twice
  // the memory, and fresh pages are most of a build's cost.
  auto reserve_one = [&](size_t i) {
    if (2 * (dict.keys_.size() + 1) > dict.slots_.size()) {
      dict.Rehash(SlotCapacity(dict.keys_.size() + (n - i)));
      dict.keys_.reserve(dict.keys_.size() + (n - i));
    }
  };
  ForEachCanonicalKey(
      key,
      [&](size_t i, int64_t v) {
        reserve_one(i);
        ids[i] = dict.InternInt(v);
      },
      [&](size_t i, std::string_view s) {
        reserve_one(i);
        ids[i] = dict.InternString(s);
      });
  // Exact sizes: the footprint is then a pure function of the keys.
  const size_t capacity = SlotCapacity(dict.num_keys());
  if (dict.slots_.size() != capacity) dict.Rehash(capacity);
  dict.keys_.shrink_to_fit();
  dict.arena_.shrink_to_fit();
  dict.str_ends_.shrink_to_fit();
  return dict;
}

std::vector<uint32_t> KeyDictionary::Lookup(const Column& probe) const {
  std::vector<uint32_t> ids(probe.size(), kNoKey);
  if (keys_.empty()) return ids;
  ForEachCanonicalKey(
      probe, [&](size_t i, int64_t v) { ids[i] = FindInt(v); },
      [&](size_t i, std::string_view s) { ids[i] = FindString(s); });
  return ids;
}

size_t KeyDictionary::ApproxBytes() const {
  return sizeof(KeyDictionary) + slots_.size() * sizeof(Slot) +
         keys_.size() * sizeof(int64_t) + arena_.size() +
         str_ends_.size() * sizeof(uint64_t);
}

KeyGroups::KeyGroups(const std::vector<uint32_t>& row_ids, uint32_t num_keys)
    : offsets_(static_cast<size_t>(num_keys) + 1, 0) {
  for (uint32_t id : row_ids) {
    if (id != KeyDictionary::kNoKey) ++offsets_[id + 1];
  }
  for (uint32_t k = 0; k < num_keys; ++k) offsets_[k + 1] += offsets_[k];
  rows_.resize(offsets_[num_keys]);
  std::vector<uint32_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (size_t i = 0; i < row_ids.size(); ++i) {
    uint32_t id = row_ids[i];
    if (id != KeyDictionary::kNoKey) {
      rows_[cursor[id]++] = static_cast<uint32_t>(i);
    }
  }
}

}  // namespace autofeat
