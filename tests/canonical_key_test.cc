// The key writer, Column::WriteKey, against the spellings it replaced:
// Column::KeyAt and Column::ValueToString as first written, with
// snprintf("%.17g"), std::to_string and the 9e15 integral-double cutoff,
// kept here literally. Their text must be byte-identical on every double
// and int64.

#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "table/column.h"
#include "util/rng.h"

namespace autofeat {
namespace {

std::string PrintfG17(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return std::string(buf);
}

std::string ReferenceDoubleKey(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::abs(v) < 9.0e15) {
    return std::to_string(static_cast<int64_t>(v));
  }
  return PrintfG17(v);
}

// Hand-picked doubles: signed zeros and NaNs, infinities, subnormals, and
// integral values on both sides of 9e15, 2^53, 1e17 and 2^63.
std::vector<double> EdgeDoubles() {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> out = {
      0.0, -0.0, nan, -nan,
      std::bit_cast<double>(uint64_t{0x7ff800000000007b}),  // payload NaN
      std::bit_cast<double>(uint64_t{0xfff0000000000001}),  // -signalling
      inf, -inf, std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(), 1e-310, -2.5e-320,
      std::bit_cast<double>(uint64_t{0x000fffffffffffff}),  // max subnormal
      std::numeric_limits<double>::min(), std::numeric_limits<double>::max(),
      -std::numeric_limits<double>::max(), 0.1, 1.0 / 3.0, 2.5, 7.0, -3.0,
      9007199254740992.0, 9007199254740993.0, 18014398509481984.0,
      9223372036854775808.0, -9223372036854775808.0, 1e18, 1e300};
  for (double edge : {9e15, 1e16, 1e17, 99999999999999984.0}) {
    for (double v : {edge, std::nextafter(edge, 0.0),
                     std::nextafter(edge, 2 * edge)}) {
      out.push_back(v);
      out.push_back(-v);
    }
  }
  return out;
}

// Seeded doubles: raw bit patterns (every exponent, NaN payloads,
// subnormals), integers scattered over [-2e17, 2e17] and fractions.
std::vector<double> SeededDoubles(size_t n) {
  std::vector<double> out;
  Rng rng(2024);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(std::bit_cast<double>(DeriveSeed(i, 7)));
    out.push_back(static_cast<double>(
        rng.UniformInt(-200'000'000'000'000'000, 200'000'000'000'000'000)));
    out.push_back(rng.Uniform(-1e6, 1e6));
    out.push_back(std::ldexp(rng.Uniform(), -1060));  // subnormal
  }
  return out;
}

void ExpectDoubleSpellings(double v) {
  SCOPED_TRACE(testing::Message()
               << "bits 0x" << std::hex << std::bit_cast<uint64_t>(v));
  KeyBuffer buf;
  Column col = Column::Doubles({v});
  EXPECT_EQ(col.KeyAt(0), ReferenceDoubleKey(v));
  EXPECT_EQ(col.ValueToString(0), PrintfG17(v));
  EXPECT_EQ(col.WriteKey(0, &buf), ReferenceDoubleKey(v));
  // The int report is exactly "the spelling is a canonical int".
  EXPECT_EQ(DoubleIntKey(v), CanonicalIntKey(ReferenceDoubleKey(v)));
}

TEST(CanonicalKeyTest, DoublesSpellAsBefore) {
  for (double v : EdgeDoubles()) ExpectDoubleSpellings(v);
  for (double v : SeededDoubles(20'000)) ExpectDoubleSpellings(v);
}

TEST(CanonicalKeyTest, Int64sSpellAsBefore) {
  std::vector<int64_t> values = {0,
                                 -1,
                                 1,
                                 std::numeric_limits<int64_t>::min(),
                                 std::numeric_limits<int64_t>::max(),
                                 std::numeric_limits<int64_t>::min() + 1,
                                 9'000'000'000'000'000,
                                 100'000'000'000'000'000};
  Rng rng(99);
  for (int i = 0; i < 10'000; ++i) {
    values.push_back(rng.UniformInt(std::numeric_limits<int64_t>::min(),
                                    std::numeric_limits<int64_t>::max()));
  }
  for (int64_t v : values) {
    Column col = Column::Int64s({v});
    KeyBuffer buf;
    EXPECT_EQ(col.KeyAt(0), std::to_string(v));
    EXPECT_EQ(col.ValueToString(0), std::to_string(v));
    EXPECT_EQ(col.WriteKey(0, &buf), std::to_string(v));
  }
}

TEST(CanonicalKeyTest, StringsSpellAsThemselves) {
  Column col = Column::Strings({"7", "07", "-0", "x", "", "1e+17"});
  const std::vector<std::optional<int64_t>> ints = {
      7, std::nullopt, std::nullopt, std::nullopt, std::nullopt, std::nullopt};
  for (size_t i = 0; i < col.size(); ++i) {
    KeyBuffer buf;
    EXPECT_EQ(col.WriteKey(i, &buf), col.GetString(i));
    EXPECT_EQ(CanonicalIntKey(col.GetString(i)), ints[i]) << col.GetString(i);
    EXPECT_EQ(col.KeyAt(i), col.GetString(i));
  }
}

}  // namespace
}  // namespace autofeat
