// A nullable, typed, value-semantic column of data.
//
// Columns are the unit of feature manipulation throughout the library: joins
// gather them, statistics consume them, feature selection ranks them. The
// representation is a tagged union of typed vectors plus a validity bitmap,
// similar in spirit to (a simplified) Arrow array.

#ifndef AUTOFEAT_TABLE_COLUMN_H_
#define AUTOFEAT_TABLE_COLUMN_H_

#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "table/data_type.h"
#include "util/status.h"

namespace autofeat {

/// Room for any numeric key spelling (an int64 needs 20 chars, a double 24).
struct KeyBuffer {
  char chars[32];
};

/// The int64 n with s == std::to_string(n), if any: no leading zeros, no
/// '+', no "-0". A string cell's key spelling names n when this succeeds.
std::optional<int64_t> CanonicalIntKey(std::string_view s);

/// The int64 a double's key spelling names (see Column::WriteKey): the
/// double itself when it is finite, integral and below 1e17 in magnitude.
inline std::optional<int64_t> DoubleIntKey(double v) {
  // NaN fails the integral test, ±inf the bound.
  if (std::abs(v) < 1e17 && v == std::trunc(v)) return static_cast<int64_t>(v);
  return std::nullopt;
}

/// \brief A typed column with per-row validity (null) information.
///
/// Invariants: exactly the vector matching type() has size() entries;
/// valid_ is either empty (all rows valid) or has size() entries.
class Column {
 public:
  /// An empty column of the given type.
  explicit Column(DataType type = DataType::kDouble) : type_(type) {}

  // -- Factories ------------------------------------------------------------

  static Column Doubles(std::vector<double> values,
                        std::vector<uint8_t> valid = {});
  static Column Int64s(std::vector<int64_t> values,
                       std::vector<uint8_t> valid = {});
  static Column Strings(std::vector<std::string> values,
                        std::vector<uint8_t> valid = {});
  /// A column of `n` nulls with the given type.
  static Column Nulls(DataType type, size_t n);

  // -- Basic accessors --------------------------------------------------------

  DataType type() const { return type_; }
  size_t size() const;
  bool empty() const { return size() == 0; }

  bool IsNull(size_t i) const {
    return !valid_.empty() && valid_[i] == 0;
  }
  /// True when no row is null (no validity mask allocated) — the
  /// precondition for the branch-free SIMD gather paths.
  bool all_valid() const { return valid_.empty(); }
  /// Raw double storage; only meaningful when type() == kDouble.
  const std::vector<double>& double_data() const { return doubles_; }
  size_t null_count() const;
  /// Fraction of null entries, 0 for an empty column.
  double null_ratio() const;

  /// Typed element access; row must be valid and of matching type
  /// (checked only by assertions in debug builds — hot path).
  double GetDouble(size_t i) const { return doubles_[i]; }
  int64_t GetInt64(size_t i) const { return int64s_[i]; }
  const std::string& GetString(size_t i) const { return strings_[i]; }

  /// Numeric value of row i: the double/int64 value as double.
  /// Must not be called on string columns or null rows.
  double NumericAt(size_t i) const {
    return type_ == DataType::kDouble ? doubles_[i]
                                      : static_cast<double>(int64s_[i]);
  }

  // -- Appending (builder-style) ----------------------------------------------

  void AppendDouble(double v);
  void AppendInt64(int64_t v);
  void AppendString(std::string v);
  void AppendNull();
  /// Appends row `i` of `other` (same type) to this column.
  void AppendFrom(const Column& other, size_t i);
  void Reserve(size_t n);

  // -- Transformations ----------------------------------------------------------

  /// Gathers rows at `indices` into a new column (duplicate indices allowed).
  Column Take(const std::vector<size_t>& indices) const;

  /// All values as doubles (int64 widened). Strings are ordinally encoded
  /// by first occurrence. Null rows map to NaN.
  std::vector<double> ToNumeric() const;

  /// Human-readable value for CSV output and debugging ("" for null):
  /// doubles with 17 significant digits, which round-trip every value but
  /// a NaN's payload. WriteValue returns it as a view of `buf` or of the
  /// string cell, so nothing allocates.
  std::string_view WriteValue(size_t i, KeyBuffer* buf) const;
  std::string ValueToString(size_t i) const {
    KeyBuffer buf;
    return std::string(WriteValue(i, &buf));
  }

  /// The key spelling of non-null row i: the one rule for when two cells
  /// hold the same value, which joins, the key dictionary, DRG profiles
  /// and strata compare. An int64 spells as its integer, and so does a
  /// finite integral double below 1e17 in magnitude (%.17g prints the same
  /// digits there, so only -0.0 changes, to "0"). Any other double spells
  /// with 17 significant digits, %.17g's text ("0.10000000000000001",
  /// "1e+17", "-nan"), and a string as itself. So int64 7, double 7.0 and
  /// "7" meet; "07" does not. The spelling is a view of `buf` or of the
  /// string cell, so nothing allocates.
  std::string_view WriteKey(size_t i, KeyBuffer* buf) const;

  /// WriteKey's spelling of row i as a string; a null row gets a sentinel
  /// that never matches data.
  std::string KeyAt(size_t i) const;

  /// Structural equality (type, validity and values).
  bool Equals(const Column& other) const;

  /// Approximate heap footprint in bytes. Size-based (element counts and
  /// string lengths, not container capacity), so equal content reports
  /// equal bytes regardless of construction history — which keeps the
  /// memory gauges built on it deterministic.
  size_t ApproxBytes() const;

 private:
  void EnsureValidMask();

  DataType type_;
  std::vector<double> doubles_;
  std::vector<int64_t> int64s_;
  std::vector<std::string> strings_;
  // Empty means "all valid"; otherwise 1 = valid, 0 = null.
  std::vector<uint8_t> valid_;
};

}  // namespace autofeat

#endif  // AUTOFEAT_TABLE_COLUMN_H_
