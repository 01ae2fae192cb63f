#include "table/key_dictionary.h"

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "support/node_map_dictionary.h"

namespace autofeat {
namespace {

using testsupport::NodeMapDictionary;
using testsupport::SeededKeyColumn;

KeyDictionary BuildDict(const Column& key) {
  std::vector<uint32_t> row_ids;
  return KeyDictionary::Build(key, &row_ids);
}

TEST(CanonicalIntKeyTest, AcceptsCanonicalDecimals) {
  EXPECT_EQ(CanonicalIntKey("0"), 0);
  EXPECT_EQ(CanonicalIntKey("7"), 7);
  EXPECT_EQ(CanonicalIntKey("-3"), -3);
  EXPECT_EQ(CanonicalIntKey("9223372036854775807"),
            std::numeric_limits<int64_t>::max());
  EXPECT_EQ(CanonicalIntKey("-9223372036854775808"),
            std::numeric_limits<int64_t>::min());
}

TEST(CanonicalIntKeyTest, RejectsNonCanonicalForms) {
  // Everything here would NOT equal std::to_string(n) for any n, so it must
  // stay in the string key space (KeyAt semantics).
  EXPECT_EQ(CanonicalIntKey(""), std::nullopt);
  EXPECT_EQ(CanonicalIntKey("07"), std::nullopt);
  EXPECT_EQ(CanonicalIntKey("-0"), std::nullopt);
  EXPECT_EQ(CanonicalIntKey("+7"), std::nullopt);
  EXPECT_EQ(CanonicalIntKey("7.0"), std::nullopt);
  EXPECT_EQ(CanonicalIntKey("7 "), std::nullopt);
  EXPECT_EQ(CanonicalIntKey(" 7"), std::nullopt);
  EXPECT_EQ(CanonicalIntKey("abc"), std::nullopt);
  EXPECT_EQ(CanonicalIntKey("9223372036854775808"), std::nullopt);  // overflow
  EXPECT_EQ(CanonicalIntKey("99999999999999999999"), std::nullopt);
}

TEST(KeyDictionaryTest, AssignsIdsInFirstSeenOrder) {
  Column keys = Column::Int64s({5, 3, 5, 9, 3, 5});
  std::vector<uint32_t> ids;
  KeyDictionary dict = KeyDictionary::Build(keys, &ids);
  ASSERT_EQ(dict.num_keys(), 3u);
  // First-seen order: 5 -> 0, 3 -> 1, 9 -> 2.
  EXPECT_EQ(ids, (std::vector<uint32_t>{0, 1, 0, 2, 1, 0}));
  EXPECT_EQ(dict.Lookup(keys), ids);
}

TEST(KeyDictionaryTest, CsrGroupsAreAscendingRowLists) {
  Column keys = Column::Int64s({5, 3, 5, 9, 3, 5});
  std::vector<uint32_t> ids;
  KeyDictionary dict = KeyDictionary::Build(keys, &ids);
  KeyGroups groups(ids, dict.num_keys());
  ASSERT_EQ(groups.rows_count(0), 3u);  // key 5 at rows 0, 2, 5
  EXPECT_EQ(groups.rows_begin(0)[0], 0u);
  EXPECT_EQ(groups.rows_begin(0)[1], 2u);
  EXPECT_EQ(groups.rows_begin(0)[2], 5u);
  ASSERT_EQ(groups.rows_count(1), 2u);  // key 3 at rows 1, 4
  EXPECT_EQ(groups.rows_begin(1)[0], 1u);
  EXPECT_EQ(groups.rows_begin(1)[1], 4u);
  ASSERT_EQ(groups.rows_count(2), 1u);  // key 9 at row 3
  EXPECT_EQ(groups.rows_begin(2)[0], 3u);
}

TEST(KeyDictionaryTest, NullRowsAreNotInterned) {
  Column keys = Column::Int64s({1, 2, 3}, {1, 0, 1});
  std::vector<uint32_t> ids;
  KeyDictionary dict = KeyDictionary::Build(keys, &ids);
  EXPECT_EQ(dict.num_keys(), 2u);
  EXPECT_EQ(ids, (std::vector<uint32_t>{0, KeyDictionary::kNoKey, 1}));
  // A null probe row misses too.
  EXPECT_EQ(dict.Lookup(keys)[1], KeyDictionary::kNoKey);
}

TEST(KeyDictionaryTest, CrossTypeLookupMatchesKeyAtSemantics) {
  KeyDictionary dict = BuildDict(Column::Int64s({7, 8}));

  // double 7.0 == int64 7; 8.5 is not a key.
  EXPECT_EQ(dict.Lookup(Column::Doubles({7.0, 8.5})),
            (std::vector<uint32_t>{0, KeyDictionary::kNoKey}));
  // "7" is canonical, "07" is not.
  EXPECT_EQ(dict.Lookup(Column::Strings({"7", "07", "8"})),
            (std::vector<uint32_t>{0, KeyDictionary::kNoKey, 1}));
}

// Integral doubles spell as integers up to 1e17, so they meet int64 and
// canonical-string keys there; from 1e17 they spell in exponent form.
TEST(KeyDictionaryTest, IntegralDoublesBelow1e17MeetInts) {
  KeyDictionary dict = BuildDict(Column::Int64s(
      {10'000'000'000'000'000, 99'999'999'999'999'984, 9'000'000'000'000'000,
       100'000'000'000'000'000}));
  EXPECT_EQ(dict.Lookup(Column::Doubles({1e16, 99999999999999984.0, 9e15,
                                         1e17})),
            (std::vector<uint32_t>{0, 1, 2, KeyDictionary::kNoKey}));
  EXPECT_EQ(dict.Lookup(Column::Strings({"10000000000000000", "1e+17"})),
            (std::vector<uint32_t>{0, KeyDictionary::kNoKey}));
  KeyDictionary exponent = BuildDict(Column::Strings({"1e+17"}));
  EXPECT_EQ(exponent.Lookup(Column::Doubles({1e17})),
            (std::vector<uint32_t>{0}));
}

TEST(KeyDictionaryTest, StringDictionaryProbedByNumbers) {
  KeyDictionary dict = BuildDict(Column::Strings({"7", "x", "2.5"}));
  EXPECT_EQ(dict.num_keys(), 3u);

  EXPECT_EQ(dict.Lookup(Column::Int64s({7})), (std::vector<uint32_t>{0}));
  // Non-integral doubles spell with 17 significant digits; "2.5" is
  // exactly that spelling.
  EXPECT_EQ(dict.Lookup(Column::Doubles({2.5, 7.0})),
            (std::vector<uint32_t>{2, 0}));
}

TEST(KeyDictionaryTest, LookupOfUnseenKeyMisses) {
  KeyDictionary dict = BuildDict(Column::Int64s({1, 2}));
  EXPECT_EQ(dict.Lookup(Column::Int64s({3})),
            (std::vector<uint32_t>{KeyDictionary::kNoKey}));
  // An empty dictionary answers every probe with a miss.
  KeyDictionary empty = BuildDict(Column::Strings({}));
  EXPECT_EQ(empty.num_keys(), 0u);
  EXPECT_EQ(empty.Lookup(Column::Int64s({1})),
            (std::vector<uint32_t>{KeyDictionary::kNoKey}));
}

// Differential against the node-map dictionary the flat table replaced:
// equal ids, groups and key counts over seeded columns of every type, and
// equal probe answers for columns of every type.
TEST(KeyDictionaryTest, MatchesNodeMapOracle) {
  const DataType kTypes[] = {DataType::kInt64, DataType::kDouble,
                             DataType::kString};
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    // Small pools force duplicate groups; large ones force rehashing.
    const size_t distinct = seed % 3 == 0 ? 20'000 : 40;
    for (DataType type : kTypes) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << " type "
                                      << static_cast<int>(type));
      Column key = SeededKeyColumn(type, 6000, distinct, seed);
      NodeMapDictionary oracle(key);
      std::vector<uint32_t> ids;
      KeyDictionary dict = KeyDictionary::Build(key, &ids);
      ASSERT_EQ(dict.num_keys(), oracle.num_keys());
      ASSERT_EQ(ids, oracle.row_ids());
      KeyGroups groups(ids, dict.num_keys());
      for (uint32_t id = 0; id < dict.num_keys(); ++id) {
        std::vector<uint32_t> rows(
            groups.rows_begin(id),
            groups.rows_begin(id) + groups.rows_count(id));
        ASSERT_EQ(rows, oracle.group(id)) << "key id " << id;
      }
      for (DataType probe_type : kTypes) {
        Column probe = SeededKeyColumn(probe_type, 3000, distinct, seed + 100);
        std::vector<uint32_t> found = dict.Lookup(probe);
        ASSERT_EQ(found.size(), probe.size());
        for (size_t i = 0; i < probe.size(); ++i) {
          ASSERT_EQ(found[i], oracle.Lookup(probe, i))
              << "probe type " << static_cast<int>(probe_type) << " row "
              << i << " key " << probe.KeyAt(i);
        }
      }
    }
  }
}

// The footprint is exactly the object plus its arrays, and depends only on
// the keys: the same keys reached after unrelated dictionaries were built
// and freed, or in a different row order, report the same bytes.
TEST(KeyDictionaryTest, ApproxBytesIsExactAndContentDetermined) {
  Column ints = Column::Int64s({4, 1, 4, 9, 16});
  EXPECT_EQ(BuildDict(ints).ApproxBytes(),
            sizeof(KeyDictionary) + KeyDictionary::SlotCapacity(4) * 8 +
                4 * sizeof(int64_t));

  // "7" is an int key; "ab", "" and "xyz" are 5 string bytes.
  Column strings = Column::Strings({"ab", "7", "", "ab", "xyz"});
  EXPECT_EQ(BuildDict(strings).ApproxBytes(),
            sizeof(KeyDictionary) + KeyDictionary::SlotCapacity(4) * 8 +
                4 * sizeof(int64_t) + 5 + 3 * sizeof(uint64_t));

  Column key = SeededKeyColumn(DataType::kString, 5000, 3000, 3);
  const size_t bytes = BuildDict(key).ApproxBytes();
  for (uint64_t seed = 10; seed < 13; ++seed) {
    BuildDict(SeededKeyColumn(DataType::kInt64, 9000, 8000, seed));
  }
  EXPECT_EQ(BuildDict(key).ApproxBytes(), bytes);
  std::vector<size_t> reversed(key.size());
  for (size_t i = 0; i < key.size(); ++i) reversed[i] = key.size() - 1 - i;
  EXPECT_EQ(BuildDict(key.Take(reversed)).ApproxBytes(), bytes);
}

}  // namespace
}  // namespace autofeat
