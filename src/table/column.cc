#include "table/column.h"

#include <cassert>
#include <charconv>
#include <cmath>
#include <iterator>
#include <unordered_map>

namespace autofeat {

Column Column::Doubles(std::vector<double> values, std::vector<uint8_t> valid) {
  Column c(DataType::kDouble);
  c.doubles_ = std::move(values);
  assert(valid.empty() || valid.size() == c.doubles_.size());
  c.valid_ = std::move(valid);
  return c;
}

Column Column::Int64s(std::vector<int64_t> values, std::vector<uint8_t> valid) {
  Column c(DataType::kInt64);
  c.int64s_ = std::move(values);
  assert(valid.empty() || valid.size() == c.int64s_.size());
  c.valid_ = std::move(valid);
  return c;
}

Column Column::Strings(std::vector<std::string> values,
                       std::vector<uint8_t> valid) {
  Column c(DataType::kString);
  c.strings_ = std::move(values);
  assert(valid.empty() || valid.size() == c.strings_.size());
  c.valid_ = std::move(valid);
  return c;
}

Column Column::Nulls(DataType type, size_t n) {
  Column c(type);
  for (size_t i = 0; i < n; ++i) c.AppendNull();
  return c;
}

size_t Column::size() const {
  switch (type_) {
    case DataType::kDouble: return doubles_.size();
    case DataType::kInt64: return int64s_.size();
    case DataType::kString: return strings_.size();
  }
  return 0;
}

size_t Column::null_count() const {
  size_t count = 0;
  for (uint8_t v : valid_) count += (v == 0);
  return count;
}

double Column::null_ratio() const {
  size_t n = size();
  if (n == 0) return 0.0;
  return static_cast<double>(null_count()) / static_cast<double>(n);
}

void Column::EnsureValidMask() {
  if (valid_.empty()) valid_.assign(size(), 1);
}

void Column::AppendDouble(double v) {
  assert(type_ == DataType::kDouble);
  if (!valid_.empty()) valid_.push_back(1);
  doubles_.push_back(v);
}

void Column::AppendInt64(int64_t v) {
  assert(type_ == DataType::kInt64);
  if (!valid_.empty()) valid_.push_back(1);
  int64s_.push_back(v);
}

void Column::AppendString(std::string v) {
  assert(type_ == DataType::kString);
  if (!valid_.empty()) valid_.push_back(1);
  strings_.push_back(std::move(v));
}

void Column::AppendNull() {
  EnsureValidMask();
  switch (type_) {
    case DataType::kDouble: doubles_.push_back(0.0); break;
    case DataType::kInt64: int64s_.push_back(0); break;
    case DataType::kString: strings_.emplace_back(); break;
  }
  valid_.push_back(0);
}

void Column::AppendFrom(const Column& other, size_t i) {
  assert(other.type_ == type_);
  if (other.IsNull(i)) {
    AppendNull();
    return;
  }
  switch (type_) {
    case DataType::kDouble: AppendDouble(other.doubles_[i]); break;
    case DataType::kInt64: AppendInt64(other.int64s_[i]); break;
    case DataType::kString: AppendString(other.strings_[i]); break;
  }
}

void Column::Reserve(size_t n) {
  switch (type_) {
    case DataType::kDouble: doubles_.reserve(n); break;
    case DataType::kInt64: int64s_.reserve(n); break;
    case DataType::kString: strings_.reserve(n); break;
  }
  if (!valid_.empty()) valid_.reserve(n);
}

Column Column::Take(const std::vector<size_t>& indices) const {
  Column out(type_);
  out.Reserve(indices.size());
  for (size_t i : indices) {
    assert(i < size());
    out.AppendFrom(*this, i);
  }
  return out;
}

std::vector<double> Column::ToNumeric() const {
  size_t n = size();
  std::vector<double> out(n);
  if (type_ == DataType::kString) {
    // Ordinal encoding by first occurrence keeps the mapping deterministic.
    std::unordered_map<std::string, double> codes;
    for (size_t i = 0; i < n; ++i) {
      if (IsNull(i)) {
        out[i] = std::nan("");
        continue;
      }
      auto [it, inserted] =
          codes.try_emplace(strings_[i], static_cast<double>(codes.size()));
      out[i] = it->second;
    }
    return out;
  }
  for (size_t i = 0; i < n; ++i) {
    out[i] = IsNull(i) ? std::nan("") : NumericAt(i);
  }
  return out;
}

namespace {

std::string_view WriteInt64(int64_t v, KeyBuffer* buf) {
  char* end = std::to_chars(buf->chars, std::end(buf->chars), v).ptr;
  return std::string_view(buf->chars, static_cast<size_t>(end - buf->chars));
}

std::string_view WriteDouble(double v, KeyBuffer* buf) {
  char* end = std::to_chars(buf->chars, std::end(buf->chars), v,
                            std::chars_format::general, 17)
                  .ptr;
  return std::string_view(buf->chars, static_cast<size_t>(end - buf->chars));
}

}  // namespace

std::string_view Column::WriteValue(size_t i, KeyBuffer* buf) const {
  if (IsNull(i)) return {};
  switch (type_) {
    case DataType::kDouble: return WriteDouble(doubles_[i], buf);
    case DataType::kInt64: return WriteInt64(int64s_[i], buf);
    case DataType::kString: return strings_[i];
  }
  return {};
}

std::string_view Column::WriteKey(size_t i, KeyBuffer* buf) const {
  switch (type_) {
    case DataType::kInt64: return WriteInt64(int64s_[i], buf);
    case DataType::kString: return strings_[i];
    case DataType::kDouble: break;
  }
  const std::optional<int64_t> n = DoubleIntKey(doubles_[i]);
  return n ? WriteInt64(*n, buf) : WriteDouble(doubles_[i], buf);
}

std::string Column::KeyAt(size_t i) const {
  if (IsNull(i)) return std::string("\x01<null>");
  KeyBuffer buf;
  return std::string(WriteKey(i, &buf));
}

std::optional<int64_t> CanonicalIntKey(std::string_view s) {
  int64_t value = 0;
  auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  KeyBuffer buf;
  if (ec != std::errc() || end != s.data() + s.size() ||
      WriteInt64(value, &buf) != s) {
    return std::nullopt;  // not a number, or "07", "-0"
  }
  return value;
}

bool Column::Equals(const Column& other) const {
  if (type_ != other.type_ || size() != other.size()) return false;
  for (size_t i = 0; i < size(); ++i) {
    if (IsNull(i) != other.IsNull(i)) return false;
    if (IsNull(i)) continue;
    switch (type_) {
      case DataType::kDouble:
        if (doubles_[i] != other.doubles_[i]) return false;
        break;
      case DataType::kInt64:
        if (int64s_[i] != other.int64s_[i]) return false;
        break;
      case DataType::kString:
        if (strings_[i] != other.strings_[i]) return false;
        break;
    }
  }
  return true;
}

size_t Column::ApproxBytes() const {
  size_t total = sizeof(Column);
  total += doubles_.size() * sizeof(double);
  total += int64s_.size() * sizeof(int64_t);
  total += valid_.size() * sizeof(uint8_t);
  for (const std::string& s : strings_) total += sizeof(std::string) + s.size();
  return total;
}

}  // namespace autofeat
