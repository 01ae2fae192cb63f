#include "table/csv.h"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "util/string_utils.h"

namespace autofeat {

namespace {

// Reads the field that starts at `*pos` and leaves `*pos` on the delimiter,
// '\n' or end of input that ends it. A '"' opens or closes a quoted run
// anywhere in the field; inside one, '""' is a literal quote and the
// delimiter and '\n' are data. Outside one, a '\r' is dropped. A field
// with neither a quote nor a '\r' is a view of `csv`; any other is
// unescaped into `*scratch` and stays valid until its next use.
std::string_view ReadField(std::string_view csv, char delim, size_t* pos,
                           std::string* scratch) {
  const size_t begin = *pos;
  size_t i = begin;
  while (i < csv.size() && csv[i] != '"' && csv[i] != '\r' &&
         csv[i] != delim && csv[i] != '\n') {
    ++i;
  }
  const bool ends = i == csv.size() ||
                    (csv[i] != '"' && (csv[i] == delim || csv[i] == '\n'));
  if (ends) {
    *pos = i;
    return csv.substr(begin, i - begin);
  }
  scratch->assign(csv.data() + begin, i - begin);
  bool quoted = false;
  for (; i < csv.size(); ++i) {
    const char c = csv[i];
    if (quoted) {
      if (c != '"') {
        *scratch += c;
      } else if (i + 1 < csv.size() && csv[i + 1] == '"') {
        *scratch += '"';
        ++i;
      } else {
        quoted = false;
      }
    } else if (c == '"') {
      quoted = true;
    } else if (c == delim || c == '\n') {
      break;
    } else if (c != '\r') {
      *scratch += c;
    }
  }
  *pos = i;
  return *scratch;
}

// Reads the record at `*pos`, calling on_field(k, text) for its k-th field,
// and moves `*pos` past the '\n' that ends it. Returns the field count.
template <typename OnField>
size_t ReadRecord(std::string_view csv, char delim, size_t* pos,
                  std::string* scratch, const OnField& on_field) {
  size_t k = 0;
  for (;; ++*pos) {
    on_field(k++, ReadField(csv, delim, pos, scratch));
    if (*pos >= csv.size() || csv[*pos] == '\n') break;
  }
  ++*pos;
  return k;
}

// Parses a whole cell as a T with std::from_chars, or with `fallback`
// (strtoll or strtod, judged by errno and full consumption) where
// from_chars rejects it: leading space, '+', hex floats, out of range. A
// NaN goes to strtod too, which keeps a payload ("nan(7)") from_chars
// drops. Unlike glibc's strtod, from_chars reads subnormals without ERANGE.
template <typename T, typename Fallback>
bool ParseCell(std::string_view s, T* out, std::string* cstr,
               Fallback fallback) {
  if (s.empty()) return false;
  auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), *out);
  if (ec == std::errc() && end == s.data() + s.size() && *out == *out) {
    return true;
  }
  cstr->assign(s);
  errno = 0;
  char* stop = nullptr;
  const T v = fallback(cstr->c_str(), &stop);
  if (errno != 0 || stop != cstr->c_str() + cstr->size()) return false;
  *out = v;
  return true;
}

bool IsNullToken(std::string_view s, const CsvOptions& options) {
  if (options.treat_empty_as_null && s.empty()) return true;
  return s == "NA" || s == "N/A" || s == "null" || s == "NULL" || s == "nan" ||
         s == "NaN";
}

// Appends `s` to `out`, quoted when it holds the delimiter, a quote or a
// line break.
void AppendCsvField(std::string_view s, char delim, std::string* out) {
  const char special[] = {delim, '"', '\n', '\r'};
  if (s.find_first_of(std::string_view(special, 4)) == s.npos) {
    out->append(s);
    return;
  }
  out->push_back('"');
  for (char c : s) {
    if (c == '"') out->push_back('"');  // Escape quotes by doubling.
    out->push_back(c);
  }
  out->push_back('"');
}

}  // namespace

Result<Table> ReadCsvString(std::string_view csv, const std::string& name,
                            const CsvOptions& options) {
  if (csv.empty()) return Status::IOError("empty CSV input for table " + name);
  const char delim = options.delimiter;
  std::string scratch;  // the current field, when it needed unescaping
  std::string cstr;     // strtoll/strtod's copy of the current field
  std::string reread;   // an earlier field, read again
  size_t pos = 0;
  std::vector<std::string> header;
  ReadRecord(csv, delim, &pos, &scratch, [&](size_t, std::string_view f) {
    header.push_back(Trim(f));
  });
  const size_t ncols = header.size();
  // Rows are at most the lines left, so no column regrows.
  const std::string_view rest = csv.substr(std::min(pos, csv.size()));
  const size_t capacity =
      static_cast<size_t>(std::count(rest.begin(), rest.end(), '\n')) + 1;

  // Each column holds int64 values while every cell parses as one, then
  // doubles, then strings: a cell is parsed once, and a demotion converts
  // the values read so far. Cells are read again from their records only
  // where a parsed value has lost its spelling: for strings, and for a
  // zero's sign ("-0" reads as -0.0).
  std::vector<Column> columns(ncols, Column(DataType::kInt64));
  for (Column& col : columns) col.Reserve(capacity);
  std::vector<size_t> row_starts;
  row_starts.reserve(capacity);
  auto earlier_cell = [&](size_t row, size_t c) {
    size_t at = row_starts[row];
    for (size_t k = 0; k < c; ++k, ++at) ReadField(csv, delim, &at, &reread);
    return std::string(ReadField(csv, delim, &at, &reread));
  };
  auto demote = [&](size_t c, DataType type) {
    const Column& old = columns[c];
    Column out(type);
    out.Reserve(capacity);
    for (size_t row = 0; row < old.size(); ++row) {
      if (old.IsNull(row)) {
        out.AppendNull();
      } else if (type == DataType::kString) {
        out.AppendString(earlier_cell(row, c));
      } else if (old.GetInt64(row) != 0) {
        out.AppendDouble(static_cast<double>(old.GetInt64(row)));
      } else {
        const bool minus = earlier_cell(row, c).find('-') != std::string::npos;
        out.AppendDouble(minus ? -0.0 : 0.0);
      }
    }
    columns[c] = std::move(out);
  };
  auto strtoll10 = [](const char* s, char** end) {
    return std::strtoll(s, end, 10);
  };
  auto append = [&](size_t c, std::string_view cell) {
    Column& col = columns[c];
    int64_t i = 0;
    double d = 0;
    if (IsNullToken(cell, options)) {
      col.AppendNull();
    } else if (col.type() == DataType::kInt64 &&
               ParseCell(cell, &i, &cstr, strtoll10)) {
      col.AppendInt64(i);
    } else if (col.type() != DataType::kString &&
               ParseCell(cell, &d, &cstr, std::strtod)) {
      if (col.type() == DataType::kInt64) demote(c, DataType::kDouble);
      col.AppendDouble(d);
    } else {
      if (col.type() != DataType::kString) demote(c, DataType::kString);
      col.AppendString(std::string(cell));
    }
  };

  size_t nrows = 0;
  while (pos < csv.size()) {
    if (csv[pos] == '\n') {  // an empty line
      ++pos;
      continue;
    }
    row_starts.push_back(pos);
    const size_t nfields = ReadRecord(
        csv, delim, &pos, &scratch,
        [&](size_t c, std::string_view cell) {
          if (c < ncols) append(c, cell);
        });
    if (nfields != ncols) {
      return Status::IOError("row " + std::to_string(nrows + 1) + " has " +
                             std::to_string(nfields) + " fields, expected " +
                             std::to_string(ncols));
    }
    ++nrows;
  }

  Table table(name);
  for (size_t c = 0; c < ncols; ++c) {
    AF_RETURN_NOT_OK(table.AddColumn(header[c], std::move(columns[c])));
  }
  return table;
}

Result<Table> ReadCsvFile(const std::string& path, const CsvOptions& options) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open file: " + path);
  // One buffer, sized from the file when it has a size (a pipe has none),
  // then read to the end.
  std::error_code no_size;
  const auto size = std::filesystem::file_size(path, no_size);
  std::string text(no_size ? 0 : size, '\0');
  in.read(text.data(), static_cast<std::streamsize>(text.size()));
  text.resize(static_cast<size_t>(in.gcount()));
  for (char chunk[1 << 16]; in.read(chunk, sizeof(chunk)) || in.gcount() > 0;) {
    text.append(chunk, static_cast<size_t>(in.gcount()));
  }
  // Table name = file stem.
  return ReadCsvString(text, std::filesystem::path(path).stem().string(),
                       options);
}

std::string WriteCsvString(const Table& table, const CsvOptions& options) {
  const char delim = options.delimiter;
  std::string out;
  const auto names = table.ColumnNames();
  for (size_t c = 0; c < names.size(); ++c) {
    if (c > 0) out += delim;
    AppendCsvField(names[c], delim, &out);
  }
  out += '\n';
  KeyBuffer buf;
  const size_t rows = table.num_rows();
  for (size_t r = 0; r < rows; ++r) {
    const size_t start = out.size();
    for (size_t c = 0; c < table.num_columns(); ++c) {
      if (c > 0) out += delim;
      AppendCsvField(table.column(c).WriteValue(r, &buf), delim, &out);
    }
    out += '\n';
    // Size the output once, from the first row's width.
    if (r == 0) out.reserve(out.size() + (out.size() - start) * rows);
  }
  return out;
}

Status WriteCsvFile(const Table& table, const std::string& path,
                    const CsvOptions& options) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open file for writing: " + path);
  out << WriteCsvString(table, options);
  if (!out) return Status::IOError("write failed: " + path);
  return Status::OK();
}

}  // namespace autofeat
