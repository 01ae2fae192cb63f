// CSV reading/writing with simple type inference.
//
// The lake on disk is a directory of CSV files; these functions move tables
// between disk and the in-memory columnar representation.

#ifndef AUTOFEAT_TABLE_CSV_H_
#define AUTOFEAT_TABLE_CSV_H_

#include <string>
#include <string_view>

#include "table/table.h"
#include "util/status.h"

namespace autofeat {

struct CsvOptions {
  char delimiter = ',';
  /// Empty fields (and the literal strings below) are parsed as nulls.
  bool treat_empty_as_null = true;
};

/// Parses CSV text (first row = header) into a Table in one pass. Column
/// types are inferred: int64 if every non-null value is an integer, double
/// if numeric, string otherwise. Quoted fields may hold the delimiter,
/// doubled quotes, '\r' and '\n'; empty lines are skipped.
Result<Table> ReadCsvString(std::string_view csv, const std::string& name,
                            const CsvOptions& options = {});

/// Reads a CSV file; the table is named after the file stem.
Result<Table> ReadCsvFile(const std::string& path,
                          const CsvOptions& options = {});

/// Serialises a table to CSV text (nulls become empty fields).
std::string WriteCsvString(const Table& table, const CsvOptions& options = {});

/// Writes a table to a CSV file.
Status WriteCsvFile(const Table& table, const std::string& path,
                    const CsvOptions& options = {});

}  // namespace autofeat

#endif  // AUTOFEAT_TABLE_CSV_H_
