#include "relational/imputation.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string_view>
#include <unordered_map>

namespace autofeat {

namespace {

// A double's counting key, equal for two doubles exactly when their key
// spellings (Column::WriteKey) are equal. Within one column that is a
// bit pattern: the spelling writes integral doubles below 1e17 as their
// int64, which folds -0.0 into 0.0, and every other double as 17
// significant digits, which round-trip all values except NaN: those spell
// "nan" or "-nan" by the sign bit alone.
uint64_t DoubleKey(double v) {
  if (std::isnan(v)) {
    v = std::copysign(std::numeric_limits<double>::quiet_NaN(), v);
  } else if (v == 0.0) {
    v = 0.0;
  }
  return std::bit_cast<uint64_t>(v);
}

// Row of the first non-null value whose count reaches the final maximum
// (the mode, first-seen winning ties), or column.size() when every row is
// null.
template <typename Key, typename KeyOf>
size_t ModeRow(const Column& column, KeyOf key_of) {
  std::unordered_map<Key, size_t> counts;
  size_t mode_count = 0;
  size_t mode_row = column.size();
  for (size_t i = 0; i < column.size(); ++i) {
    if (column.IsNull(i)) continue;
    size_t c = ++counts[key_of(i)];
    if (c > mode_count) {
      mode_count = c;
      mode_row = i;
    }
  }
  return mode_row;
}

size_t ModeRow(const Column& column) {
  switch (column.type()) {
    case DataType::kDouble:
      return ModeRow<uint64_t>(
          column, [&](size_t i) { return DoubleKey(column.GetDouble(i)); });
    case DataType::kInt64:
      return ModeRow<int64_t>(column,
                              [&](size_t i) { return column.GetInt64(i); });
    case DataType::kString:
      return ModeRow<std::string_view>(
          column,
          [&](size_t i) { return std::string_view(column.GetString(i)); });
  }
  return column.size();
}

}  // namespace

Column ImputeMostFrequent(const Column& column) {
  if (column.null_count() == 0) return column;

  const size_t mode_row = ModeRow(column);
  const bool found = mode_row < column.size();
  Column out(column.type());
  out.Reserve(column.size());
  for (size_t i = 0; i < column.size(); ++i) {
    if (!column.IsNull(i)) {
      out.AppendFrom(column, i);
    } else if (found) {
      out.AppendFrom(column, mode_row);
    } else {
      // All-null column: fill with a type default.
      switch (column.type()) {
        case DataType::kDouble: out.AppendDouble(0.0); break;
        case DataType::kInt64: out.AppendInt64(0); break;
        case DataType::kString: out.AppendString(""); break;
      }
    }
  }
  return out;
}

Table ImputeTableMostFrequent(const Table& table) {
  Table out(table.name());
  for (size_t c = 0; c < table.num_columns(); ++c) {
    out.AddColumn(table.schema().field(c).name,
                  ImputeMostFrequent(table.column(c)))
        .Abort();
  }
  return out;
}

}  // namespace autofeat
