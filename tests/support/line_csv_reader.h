// The line-by-line CSV reader the one-pass ReadCsvString replaced, kept as a
// differential oracle. It splits records with std::getline, so a quoted
// field cannot hold a '\n'; copies every field into its own std::string;
// and parses each numeric cell twice with strtoll/strtod, once to infer the
// column type and once to append. glibc's strtod flags subnormal results
// with ERANGE, so a column holding one reads as strings here. Those two
// differences aside, the one-pass reader must build the same tables and
// the same error messages.

#ifndef AUTOFEAT_TESTS_SUPPORT_LINE_CSV_READER_H_
#define AUTOFEAT_TESTS_SUPPORT_LINE_CSV_READER_H_

#include <cerrno>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "table/csv.h"
#include "util/string_utils.h"

namespace autofeat::testsupport {

namespace line_csv {

inline std::vector<std::string> SplitRecord(const std::string& line,
                                            char delim) {
  std::vector<std::string> fields;
  std::string current;
  bool in_quotes = false;
  for (size_t i = 0; i < line.size(); ++i) {
    char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          current += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        current += c;
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == delim) {
      fields.push_back(std::move(current));
      current.clear();
    } else if (c != '\r') {
      current += c;
    }
  }
  fields.push_back(std::move(current));
  return fields;
}

inline bool ParseInt64(const std::string& s, int64_t* out) {
  if (s.empty()) return false;
  errno = 0;
  char* end = nullptr;
  long long v = std::strtoll(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  *out = static_cast<int64_t>(v);
  return true;
}

inline bool ParseDouble(const std::string& s, double* out) {
  if (s.empty()) return false;
  errno = 0;
  char* end = nullptr;
  double v = std::strtod(s.c_str(), &end);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

inline bool IsNullToken(const std::string& s, const CsvOptions& options) {
  if (options.treat_empty_as_null && s.empty()) return true;
  return s == "NA" || s == "N/A" || s == "null" || s == "NULL" || s == "nan" ||
         s == "NaN";
}

}  // namespace line_csv

inline Result<Table> LineCsvReadString(const std::string& csv,
                                       const std::string& name,
                                       const CsvOptions& options = {}) {
  using namespace line_csv;
  std::istringstream stream(csv);
  std::string line;
  if (!std::getline(stream, line)) {
    return Status::IOError("empty CSV input for table " + name);
  }
  std::vector<std::string> header = SplitRecord(line, options.delimiter);
  for (auto& h : header) h = Trim(h);
  size_t ncols = header.size();

  std::vector<std::vector<std::string>> cells(ncols);
  size_t nrows = 0;
  while (std::getline(stream, line)) {
    if (line.empty()) continue;
    std::vector<std::string> record = SplitRecord(line, options.delimiter);
    if (record.size() != ncols) {
      return Status::IOError("row " + std::to_string(nrows + 1) + " has " +
                             std::to_string(record.size()) +
                             " fields, expected " + std::to_string(ncols));
    }
    for (size_t c = 0; c < ncols; ++c) cells[c].push_back(std::move(record[c]));
    ++nrows;
  }

  Table table(name);
  for (size_t c = 0; c < ncols; ++c) {
    bool all_int = true;
    bool all_double = true;
    for (const auto& cell : cells[c]) {
      if (IsNullToken(cell, options)) continue;
      int64_t iv;
      double dv;
      if (!ParseInt64(cell, &iv)) all_int = false;
      if (!ParseDouble(cell, &dv)) all_double = false;
      if (!all_int && !all_double) break;
    }
    Column col(all_int       ? DataType::kInt64
               : all_double  ? DataType::kDouble
                             : DataType::kString);
    col.Reserve(nrows);
    for (const auto& cell : cells[c]) {
      if (IsNullToken(cell, options)) {
        col.AppendNull();
      } else if (all_int) {
        int64_t iv = 0;
        ParseInt64(cell, &iv);
        col.AppendInt64(iv);
      } else if (all_double) {
        double dv = 0;
        ParseDouble(cell, &dv);
        col.AppendDouble(dv);
      } else {
        col.AppendString(cell);
      }
    }
    AF_RETURN_NOT_OK(table.AddColumn(header[c], std::move(col)));
  }
  return table;
}

}  // namespace autofeat::testsupport

#endif  // AUTOFEAT_TESTS_SUPPORT_LINE_CSV_READER_H_
