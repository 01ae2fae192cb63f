#include "table/csv.h"

#include <bit>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "support/line_csv_reader.h"
#include "util/rng.h"

namespace autofeat {
namespace {

TEST(CsvTest, ParsesHeaderAndTypes) {
  auto t = ReadCsvString("id,score,name\n1,0.5,ann\n2,1.25,bob\n", "t");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->num_rows(), 2u);
  EXPECT_EQ((*t->GetColumn("id"))->type(), DataType::kInt64);
  EXPECT_EQ((*t->GetColumn("score"))->type(), DataType::kDouble);
  EXPECT_EQ((*t->GetColumn("name"))->type(), DataType::kString);
}

TEST(CsvTest, IntegerColumnWithDecimalBecomesDouble) {
  auto t = ReadCsvString("x\n1\n2.5\n", "t");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->column(0).type(), DataType::kDouble);
}

TEST(CsvTest, MixedColumnBecomesString) {
  auto t = ReadCsvString("x\n1\nabc\n", "t");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->column(0).type(), DataType::kString);
}

TEST(CsvTest, EmptyAndNaTokensAreNull) {
  auto t = ReadCsvString("a,b\n1,\n,x\nNA,y\n", "t");
  ASSERT_TRUE(t.ok());
  const Column& a = *(*t->GetColumn("a"));
  EXPECT_FALSE(a.IsNull(0));
  EXPECT_TRUE(a.IsNull(1));
  EXPECT_TRUE(a.IsNull(2));
  const Column& b = *(*t->GetColumn("b"));
  EXPECT_TRUE(b.IsNull(0));
}

TEST(CsvTest, QuotedFieldsWithDelimiters) {
  auto t = ReadCsvString("a,b\n\"x,y\",2\n", "t");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ((*t->GetColumn("a"))->GetString(0), "x,y");
  EXPECT_EQ((*t->GetColumn("b"))->GetInt64(0), 2);
}

TEST(CsvTest, EscapedQuotes) {
  auto t = ReadCsvString("a\n\"he said \"\"hi\"\"\"\n", "t");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->column(0).GetString(0), "he said \"hi\"");
}

TEST(CsvTest, RaggedRowIsError) {
  auto t = ReadCsvString("a,b\n1\n", "t");
  EXPECT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kIOError);
}

TEST(CsvTest, EmptyInputIsError) {
  EXPECT_FALSE(ReadCsvString("", "t").ok());
}

TEST(CsvTest, NegativeAndScientificNumbers) {
  auto t = ReadCsvString("x,y\n-5,1e-3\n7,-2.5E2\n", "t");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ((*t->GetColumn("x"))->GetInt64(0), -5);
  EXPECT_DOUBLE_EQ((*t->GetColumn("y"))->GetDouble(1), -250.0);
}

TEST(CsvTest, RoundTripPreservesData) {
  Table t("roundtrip");
  t.AddColumn("id", Column::Int64s({1, 2, 3}, {1, 0, 1})).Abort();
  t.AddColumn("v", Column::Doubles({0.125, -2.0, 3.75})).Abort();
  t.AddColumn("s", Column::Strings({"plain", "with,comma", "with\"quote"}))
      .Abort();
  std::string csv = WriteCsvString(t);
  auto back = ReadCsvString(csv, "roundtrip");
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->Equals(t)) << csv;
}

TEST(CsvTest, QuotedNewlinesAndCarriageReturnsRoundTrip) {
  Table t("roundtrip");
  t.AddColumn("s", Column::Strings({"a\nb", "c", "cr\r", "\r\n\"x\"\n"}))
      .Abort();
  t.AddColumn("k", Column::Int64s({1, 2, 3, 4})).Abort();
  std::string csv = WriteCsvString(t);
  auto back = ReadCsvString(csv, "roundtrip");
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(back->Equals(t)) << csv;
}

TEST(CsvTest, SubnormalCellsKeepTheColumnNumeric) {
  // glibc's strtod flags a subnormal result with ERANGE; the column is still
  // numeric. Values that overflow or underflow to zero stay strings.
  auto t = ReadCsvString("x,y,z\n1e-310,1,1e400\n0.5,4.9e-324,1\n", "t");
  ASSERT_TRUE(t.ok());
  const Column& x = t->column(0);
  ASSERT_EQ(x.type(), DataType::kDouble);
  EXPECT_EQ(x.GetDouble(0), 1e-310);
  const Column& y = t->column(1);
  ASSERT_EQ(y.type(), DataType::kDouble);
  EXPECT_EQ(y.GetDouble(1), std::numeric_limits<double>::denorm_min());
  EXPECT_EQ(t->column(2).type(), DataType::kString);
  EXPECT_EQ(t->column(2).GetString(0), "1e400");
}

TEST(CsvTest, FileRoundTrip) {
  Table t("disk");
  t.AddColumn("k", Column::Int64s({10, 20})).Abort();
  t.AddColumn("v", Column::Doubles({1.5, 2.5})).Abort();
  std::string path = ::testing::TempDir() + "/autofeat_csv_test.csv";
  ASSERT_TRUE(WriteCsvFile(t, path).ok());
  auto back = ReadCsvFile(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->name(), "autofeat_csv_test");
  back->set_name("disk");
  EXPECT_TRUE(back->Equals(t));
}

TEST(CsvTest, MissingFileIsIOError) {
  EXPECT_EQ(ReadCsvFile("/nonexistent/nope.csv").status().code(),
            StatusCode::kIOError);
}

// ---- Differential against the line-by-line reader ---------------------------

// Cell spellings by the type they infer as. Quoted newlines, unterminated
// quotes and subnormals are left out: only there do the readers differ.
const char* const kIntCells[] = {
    "12",  "-5",  "0",   "-0",  "+7", " 3", "007", "-00", "42",
    "9223372036854775807", "-9223372036854775808", "\"8\""};
const char* const kDoubleCells[] = {
    "1.5",     ".5",        "1.",        "-2.5E-3",  "1e5",     "+2.5",
    " 4.25",   "0x1p3",     "0X1.8p1",   "inf",      "-inf",    "INF",
    "Infinity", "-Infinity", "NAN",      "-nan",     "nan(12)", "-0.0",
    "99999999999999999999", "-9223372036854775809", "1e-300",
    "2.2250738585072014e-308", "\"6.5\""};
const char* const kStringCells[] = {
    "abc",   "1e400", "-1e400",    "1e-400",    "12 ",     "1e",
    "--1",   "+",     "-",         "0x",        "\"a,b\"",  "\"\"",
    "\"he said \"\"hi\"\"\"", "a\"b\"c",  "x\r",   "  spaced ",
    "\xc3\xa9", "a;b", "1\t2"};
const char* const kNullCells[] = {"",     "NA",  "N/A", "null",
                                  "NULL", "nan", "NaN"};

template <size_t N>
const char* Pick(Rng* rng, const char* const (&pool)[N]) {
  return pool[rng->UniformIndex(N)];
}

// A seeded CSV file: per column a mix that stays int, demotes to double, or
// demotes to string early or late; CRLF or LF records, empty lines, quoted
// and spaced header names, now and then a duplicate name or a ragged row.
std::string SeededCsv(uint64_t seed, char delim) {
  Rng rng(seed);
  const size_t ncols = 1 + rng.UniformIndex(5);
  const char* eol = rng.Bernoulli(0.3) ? "\r\n" : "\n";
  std::vector<size_t> mode(ncols);
  std::string csv;
  for (size_t c = 0; c < ncols; ++c) {
    mode[c] = rng.UniformIndex(4);
    if (c > 0) csv += delim;
    if (c > 0 && rng.Bernoulli(0.05)) {
      csv += "c0";
    } else if (rng.Bernoulli(0.2)) {
      csv += " \"c," + std::to_string(c) + "\" ";
    } else {
      csv += "c" + std::to_string(c);
    }
  }
  csv += eol;
  const size_t rows = rng.UniformIndex(60);
  for (size_t r = 0; r < rows; ++r) {
    if (rng.Bernoulli(0.05)) csv += eol;  // an empty line
    size_t fields = ncols;
    if (rng.Bernoulli(0.01)) fields += rng.Bernoulli(0.5) ? 1 : -1;
    for (size_t c = 0; c < fields; ++c) {
      if (c > 0) csv += delim;
      const size_t m = c < ncols ? mode[c] : 3;
      const bool late_string = m == 2 && rng.Bernoulli(0.03);
      if (rng.Bernoulli(0.15)) {
        csv += Pick(&rng, kNullCells);
      } else if (m == 3 || late_string) {
        csv += m == 3 && rng.Bernoulli(0.6)
                   ? (rng.Bernoulli(0.5) ? Pick(&rng, kIntCells)
                                         : Pick(&rng, kDoubleCells))
                   : Pick(&rng, kStringCells);
      } else if (m == 0 || rng.Bernoulli(0.7)) {
        csv += Pick(&rng, kIntCells);
      } else {
        csv += Pick(&rng, kDoubleCells);
      }
    }
    if (r + 1 < rows || rng.Bernoulli(0.5)) csv += eol;
  }
  return csv;
}

// Table::Equals plus the bits of every double, so NaN payloads (which
// Equals cannot compare) and the sign of zero count.
void ExpectSameTable(const Table& want, const Table& got) {
  ASSERT_EQ(want.ColumnNames(), got.ColumnNames());
  ASSERT_EQ(want.num_rows(), got.num_rows());
  for (size_t c = 0; c < want.num_columns(); ++c) {
    const Column& a = want.column(c);
    const Column& b = got.column(c);
    ASSERT_EQ(a.type(), b.type()) << "column " << c;
    for (size_t r = 0; r < a.size(); ++r) {
      ASSERT_EQ(a.IsNull(r), b.IsNull(r)) << "column " << c << " row " << r;
      if (a.IsNull(r)) continue;
      switch (a.type()) {
        case DataType::kDouble:
          EXPECT_EQ(std::bit_cast<uint64_t>(a.GetDouble(r)),
                    std::bit_cast<uint64_t>(b.GetDouble(r)))
              << "column " << c << " row " << r;
          break;
        case DataType::kInt64:
          EXPECT_EQ(a.GetInt64(r), b.GetInt64(r))
              << "column " << c << " row " << r;
          break;
        case DataType::kString:
          EXPECT_EQ(a.GetString(r), b.GetString(r))
              << "column " << c << " row " << r;
          break;
      }
    }
  }
}

TEST(CsvTest, MatchesLineReaderOnSeededFiles) {
  size_t errors = 0;
  for (uint64_t seed = 1; seed <= 400; ++seed) {
    CsvOptions options;
    options.delimiter = seed % 5 == 0 ? ';' : ',';
    options.treat_empty_as_null = seed % 7 != 0;
    const std::string csv = SeededCsv(seed, options.delimiter);
    SCOPED_TRACE(testing::Message() << "seed " << seed << "\n" << csv);
    auto want = testsupport::LineCsvReadString(csv, "t", options);
    auto got = ReadCsvString(csv, "t", options);
    ASSERT_EQ(want.ok(), got.ok())
        << (want.ok() ? got : want).status().ToString();
    if (!want.ok()) {
      ++errors;
      EXPECT_EQ(want.status().ToString(), got.status().ToString());
      continue;
    }
    ExpectSameTable(*want, *got);
    if (::testing::Test::HasFatalFailure()) return;
  }
  // Both paths are exercised: some files fail, most parse.
  EXPECT_GT(errors, 10u);
  EXPECT_LT(errors, 200u);
}

TEST(CsvTest, ReadersDifferOnlyOnQuotedNewlinesAndSubnormals) {
  const std::string quoted = "s,k\n\"a\nb\",1\n";
  EXPECT_FALSE(testsupport::LineCsvReadString(quoted, "t").ok());
  ASSERT_TRUE(ReadCsvString(quoted, "t").ok());
  EXPECT_EQ(ReadCsvString(quoted, "t")->column(0).GetString(0), "a\nb");

  const std::string subnormal = "x\n1e-310\n";
  EXPECT_EQ(testsupport::LineCsvReadString(subnormal, "t")->column(0).type(),
            DataType::kString);
  EXPECT_EQ(ReadCsvString(subnormal, "t")->column(0).type(), DataType::kDouble);
}

// ---- The writer against its per-cell form ----------------------------------

// WriteCsvString as it was written cell by cell: ValueToString, then a
// quoted copy.
std::string PerCellCsv(const Table& table, char delim) {
  auto quoted = [delim](const std::string& s) {
    if (s.find(delim) == std::string::npos &&
        s.find_first_of("\"\n\r") == std::string::npos) {
      return s;
    }
    std::string q = "\"";
    for (char ch : s) {
      if (ch == '"') q += '"';
      q += ch;
    }
    return q + '"';
  };
  std::string out;
  const auto names = table.ColumnNames();
  for (size_t c = 0; c < names.size(); ++c) {
    if (c > 0) out += delim;
    out += quoted(names[c]);
  }
  out += '\n';
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t c = 0; c < table.num_columns(); ++c) {
      if (c > 0) out += delim;
      out += quoted(table.column(c).ValueToString(r));
    }
    out += '\n';
  }
  return out;
}

const char* const kWrittenStrings[] = {
    "abc", "", "a,b", "a;b", "a\tb", "\"", "he said \"hi\"", "x\r",
    "line\nbreak", "\r\n", " spaced ", "\xc3\xa9", "1.5", "-0", "NA"};

// A seeded table: int64, double and string columns with nulls, and header
// names that need quoting now and then.
Table SeededTable(uint64_t seed) {
  Rng rng(seed);
  const double inf = std::numeric_limits<double>::infinity();
  const double specials[] = {0.0,  -0.0, inf,    -inf,  std::nan(""),
                             -std::nan(""), 1e17, -1e17, 0.1,  5e-324,
                             std::numeric_limits<double>::max(), 42.0};
  const size_t rows = rng.UniformIndex(40);
  Table table("t");
  const size_t ncols = 1 + rng.UniformIndex(5);
  for (size_t c = 0; c < ncols; ++c) {
    std::vector<uint8_t> valid(rows);
    for (uint8_t& v : valid) v = rng.Bernoulli(0.2) ? 0 : 1;
    Column col;
    switch (rng.UniformIndex(3)) {
      case 0: {
        std::vector<int64_t> values(rows);
        for (int64_t& v : values) {
          v = rng.Bernoulli(0.1) ? std::numeric_limits<int64_t>::min()
                                 : rng.UniformInt(-1000000, 1000000);
        }
        col = Column::Int64s(std::move(values), std::move(valid));
        break;
      }
      case 1: {
        std::vector<double> values(rows);
        for (double& v : values) {
          v = rng.Bernoulli(0.4) ? specials[rng.UniformIndex(12)]
                                 : rng.Uniform(-1e6, 1e6);
        }
        col = Column::Doubles(std::move(values), std::move(valid));
        break;
      }
      default: {
        std::vector<std::string> values(rows);
        for (std::string& v : values) v = Pick(&rng, kWrittenStrings);
        col = Column::Strings(std::move(values), std::move(valid));
        break;
      }
    }
    const std::string name = rng.Bernoulli(0.3)
                                 ? "c\"" + std::to_string(c) + ",;\n"
                                 : "c" + std::to_string(c);
    table.AddColumn(name, std::move(col)).Abort();
  }
  return table;
}

TEST(CsvTest, WriterMatchesItsPerCellFormOnSeededTables) {
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    const Table table = SeededTable(seed);
    for (char delim : {',', ';', '\t'}) {
      CsvOptions options;
      options.delimiter = delim;
      ASSERT_EQ(WriteCsvString(table, options), PerCellCsv(table, delim))
          << "seed " << seed << " delimiter " << int{delim};
    }
  }
}

}  // namespace
}  // namespace autofeat
