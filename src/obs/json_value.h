// Minimal JSON document parser — the repo's one JSON reader.
//
// Just enough JSON to read back the repo's own machine-readable outputs —
// BENCH_*.json timing records (tools/bench_diff), Chrome trace exports and
// obs reports (test validation; obs::JsonIsValid is ParseJson(...).ok()) —
// with zero third-party dependencies. Malformed input is rejected: raw
// control characters in strings, unknown escapes, leading zeros, trailing
// characters and nesting deeper than 256 levels. Numbers are
// held as double (BENCH values are seconds and metric counts, both well
// inside the 2^53 exact-integer range); object fields keep insertion
// order; \uXXXX escapes decode to UTF-8.

#ifndef AUTOFEAT_OBS_JSON_VALUE_H_
#define AUTOFEAT_OBS_JSON_VALUE_H_

#include <string>
#include <utility>
#include <vector>

#include "util/status.h"

namespace autofeat::obs {

/// \brief One parsed JSON value; a tagged union in struct clothing.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> items;                             // kArray
  std::vector<std::pair<std::string, JsonValue>> fields;    // kObject

  bool is_null() const { return kind == Kind::kNull; }
  bool is_bool() const { return kind == Kind::kBool; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_string() const { return kind == Kind::kString; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_object() const { return kind == Kind::kObject; }

  /// First object member with this key, or nullptr (also when not an
  /// object).
  const JsonValue* Find(const std::string& key) const;
};

/// \brief Parses a complete JSON document (trailing garbage is an error).
Result<JsonValue> ParseJson(const std::string& text);

}  // namespace autofeat::obs

#endif  // AUTOFEAT_OBS_JSON_VALUE_H_
