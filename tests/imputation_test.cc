#include "relational/imputation.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/rng.h"

namespace autofeat {
namespace {

TEST(ImputationTest, NoNullsReturnsIdentical) {
  Column c = Column::Int64s({1, 2, 2});
  EXPECT_TRUE(ImputeMostFrequent(c).Equals(c));
}

TEST(ImputationTest, FillsWithMode) {
  Column c = Column::Int64s({5, 7, 7, 0, 0, 0}, {1, 1, 1, 0, 0, 0});
  Column imputed = ImputeMostFrequent(c);
  EXPECT_EQ(imputed.null_count(), 0u);
  EXPECT_EQ(imputed.GetInt64(3), 7);
  EXPECT_EQ(imputed.GetInt64(4), 7);
  // Non-null values untouched.
  EXPECT_EQ(imputed.GetInt64(0), 5);
}

TEST(ImputationTest, StringMode) {
  Column c = Column::Strings({"a", "b", "b", ""}, {1, 1, 1, 0});
  Column imputed = ImputeMostFrequent(c);
  EXPECT_EQ(imputed.GetString(3), "b");
}

TEST(ImputationTest, TieBrokenByFirstOccurrence) {
  Column c = Column::Strings({"x", "y", ""}, {1, 1, 0});
  Column imputed = ImputeMostFrequent(c);
  EXPECT_EQ(imputed.GetString(2), "x");
}

TEST(ImputationTest, AllNullGetsTypeDefault) {
  Column d = ImputeMostFrequent(Column::Nulls(DataType::kDouble, 3));
  EXPECT_EQ(d.null_count(), 0u);
  EXPECT_DOUBLE_EQ(d.GetDouble(0), 0.0);
  Column s = ImputeMostFrequent(Column::Nulls(DataType::kString, 2));
  EXPECT_EQ(s.GetString(1), "");
  Column i = ImputeMostFrequent(Column::Nulls(DataType::kInt64, 2));
  EXPECT_EQ(i.GetInt64(0), 0);
}

TEST(ImputationTest, WholeTable) {
  Table t("t");
  t.AddColumn("a", Column::Int64s({1, 1, 0}, {1, 1, 0})).Abort();
  t.AddColumn("b", Column::Strings({"m", "", "m"}, {1, 0, 1})).Abort();
  Table imputed = ImputeTableMostFrequent(t);
  EXPECT_EQ(imputed.name(), "t");
  EXPECT_DOUBLE_EQ(imputed.OverallNullRatio(), 0.0);
  EXPECT_EQ((*imputed.GetColumn("a"))->GetInt64(2), 1);
  EXPECT_EQ((*imputed.GetColumn("b"))->GetString(1), "m");
}

// The mode fill as first written: values counted by their KeyAt strings,
// first to reach the maximum count wins.
Column KeyAtOracle(const Column& column) {
  if (column.null_count() == 0) return column;
  std::unordered_map<std::string, size_t> counts;
  size_t mode_count = 0;
  size_t mode_row = column.size();
  for (size_t i = 0; i < column.size(); ++i) {
    if (column.IsNull(i)) continue;
    size_t c = ++counts[column.KeyAt(i)];
    if (c > mode_count) {
      mode_count = c;
      mode_row = i;
    }
  }
  Column out(column.type());
  for (size_t i = 0; i < column.size(); ++i) {
    if (!column.IsNull(i)) {
      out.AppendFrom(column, i);
    } else if (mode_row < column.size()) {
      out.AppendFrom(column, mode_row);
    } else {
      switch (column.type()) {
        case DataType::kDouble: out.AppendDouble(0.0); break;
        case DataType::kInt64: out.AppendInt64(0); break;
        case DataType::kString: out.AppendString(""); break;
      }
    }
  }
  return out;
}

// Cell-by-cell equality that compares doubles by bit pattern, so NaN
// payloads and the sign of zero count.
void ExpectBitwiseEqual(const Column& want, const Column& got) {
  ASSERT_EQ(want.type(), got.type());
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(want.IsNull(i), got.IsNull(i)) << "row " << i;
    switch (want.type()) {
      case DataType::kDouble:
        EXPECT_EQ(std::bit_cast<uint64_t>(want.GetDouble(i)),
                  std::bit_cast<uint64_t>(got.GetDouble(i)))
            << "row " << i;
        break;
      case DataType::kInt64:
        EXPECT_EQ(want.GetInt64(i), got.GetInt64(i)) << "row " << i;
        break;
      case DataType::kString:
        EXPECT_EQ(want.GetString(i), got.GetString(i)) << "row " << i;
        break;
    }
  }
}

// Doubles whose KeyAt strings collide (±0, NaNs of one sign with different
// payloads) or only just differ (integral values either side of 9e15, the
// neighbours of 0.1, ±inf).
std::vector<double> EdgeDoubles() {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  return {0.0,
          -0.0,
          nan,
          -nan,
          std::bit_cast<double>(std::bit_cast<uint64_t>(nan) | 1),
          std::bit_cast<double>(std::bit_cast<uint64_t>(-nan) | 7),
          inf,
          -inf,
          1.0,
          -1.0,
          2.5,
          0.1,
          std::nextafter(0.1, 1.0),
          8999999999999999.0,
          -8999999999999999.0,
          9.0e15,
          -9.0e15,
          9007199254740992.0,
          1.0e17,
          std::numeric_limits<double>::denorm_min(),
          std::numeric_limits<double>::max()};
}

TEST(ImputationTest, MatchesKeyAtOracleOnSeededColumns) {
  const std::vector<double> doubles = EdgeDoubles();
  const std::vector<int64_t> ints = {0,
                                     -1,
                                     1,
                                     9000000000000000,
                                     std::numeric_limits<int64_t>::min(),
                                     std::numeric_limits<int64_t>::max()};
  const std::vector<std::string> strings = {"", "0", "nan", "-nan", "a",
                                            "A"};
  Rng rng(19);
  for (int trial = 0; trial < 400; ++trial) {
    const size_t n = rng.UniformIndex(24);
    // Null rate 0..1 in steps: some trials are all-null, some null-free.
    const double null_rate = static_cast<double>(trial % 5) / 4.0;
    // A small pool per column so counts tie and collide often.
    const size_t pool = 1 + rng.UniformIndex(doubles.size());
    Column d(DataType::kDouble), i64(DataType::kInt64),
        s(DataType::kString);
    for (size_t r = 0; r < n; ++r) {
      if (rng.Bernoulli(null_rate)) {
        d.AppendNull();
        i64.AppendNull();
        s.AppendNull();
        continue;
      }
      d.AppendDouble(doubles[rng.UniformIndex(pool)]);
      i64.AppendInt64(ints[rng.UniformIndex(ints.size())]);
      s.AppendString(strings[rng.UniformIndex(strings.size())]);
    }
    for (const Column* c : {&d, &i64, &s}) {
      SCOPED_TRACE("trial " + std::to_string(trial));
      ExpectBitwiseEqual(KeyAtOracle(*c), ImputeMostFrequent(*c));
    }
  }
  for (DataType type :
       {DataType::kDouble, DataType::kInt64, DataType::kString}) {
    Column all_null = Column::Nulls(type, 5);
    ExpectBitwiseEqual(KeyAtOracle(all_null), ImputeMostFrequent(all_null));
  }
}

TEST(ImputationTest, SignedZerosAndSameSignNansCountAsOneValue) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // 0.0 and -0.0 together outnumber 2.5; the fill is the value at the row
  // where their shared count took the lead (-0.0).
  Column zeros = Column::Doubles({0.0, 2.5, 2.5, -0.0, -0.0, 0.0},
                                 {1, 1, 1, 1, 1, 0});
  EXPECT_EQ(std::bit_cast<uint64_t>(ImputeMostFrequent(zeros).GetDouble(5)),
            std::bit_cast<uint64_t>(-0.0));
  // Two NaN payloads of one sign are one value; -NaN is another.
  double payload = std::bit_cast<double>(std::bit_cast<uint64_t>(nan) | 1);
  Column nans = Column::Doubles({-nan, nan, payload, 1.0},
                                {1, 1, 1, 0});
  double fill = ImputeMostFrequent(nans).GetDouble(3);
  EXPECT_TRUE(std::isnan(fill));
  EXPECT_FALSE(std::signbit(fill));
}

}  // namespace
}  // namespace autofeat
