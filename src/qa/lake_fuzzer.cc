#include "qa/lake_fuzzer.h"

#include <algorithm>
#include <cstddef>
#include <cstdlib>
#include <string>
#include <unordered_set>
#include <vector>

#include "table/column.h"
#include "table/data_type.h"
#include "table/table.h"
#include "util/rng.h"

namespace autofeat::qa {
namespace {

// Fixed DeriveSeed stream ids; per-table and per-column streams are offset
// from these bases so no two entities share a generator.
constexpr uint64_t kShapeStream = 1;
constexpr uint64_t kTableStreamBase = 100;
constexpr uint64_t kColumnStreamBase = 10000;
constexpr uint64_t kMutationStream = 500000;

enum class KeyStyle { kUnique, kDuplicated, kConstant, kSkewed };

// The awkward-but-legal key alphabet: empty string, whitespace, unicode,
// CSV metacharacters (a newline among them), and numeric strings in
// canonical and non-canonical spellings (KeyAt canonicalises int64 7 and
// double 7.0 but not "07").
const char* const kStringKeyPool[] = {"",      "k",      "7",       "07",
                                      "key 0", "日本語", "naïve-α", "x,y",
                                      "\"q\"", "Z",      "line\nbreak"};
constexpr size_t kStringKeyPoolSize =
    sizeof(kStringKeyPool) / sizeof(kStringKeyPool[0]);

// Every fourth key index draws an integral key in [9e15, 1e17), where a
// double still spells as its integer: the same key as an int64, a double
// (a multiple of 16 is exact there) and a canonical string.
int64_t LargeKey(size_t idx) {
  return 9'000'000'000'000'000 +
         static_cast<int64_t>(idx % 10) * 10'000'000'000'000'000 +
         16 * static_cast<int64_t>(idx);
}

void AppendKeyValue(Column* column, DataType type, size_t idx) {
  const bool large = idx % 4 == 3;
  switch (type) {
    case DataType::kInt64:
      column->AppendInt64(large ? LargeKey(idx) : static_cast<int64_t>(idx));
      return;
    case DataType::kDouble:
      // Alternates integral and fractional values so numeric key
      // canonicalisation (int64 3 == double 3.0) gets exercised.
      column->AppendDouble(large ? static_cast<double>(LargeKey(idx))
                                 : static_cast<double>(idx) * 1.5);
      return;
    default:
      if (idx < kStringKeyPoolSize) {
        column->AppendString(kStringKeyPool[idx]);
      } else {
        column->AppendString(large ? std::to_string(LargeKey(idx))
                                   : "id_" + std::to_string(idx));
      }
      return;
  }
}

// Values guaranteed never to collide with AppendKeyValue output: used to
// build the non-overlapping fraction of a satellite's key column.
void AppendDisjointKeyValue(Column* column, DataType type, size_t idx) {
  switch (type) {
    case DataType::kInt64:
      column->AppendInt64(-static_cast<int64_t>(idx) - 1);
      return;
    case DataType::kDouble:
      column->AppendDouble(-(static_cast<double>(idx) * 1.5) - 0.25);
      return;
    default:
      column->AppendString("zz_" + std::to_string(idx));
      return;
  }
}

// A heavily skewed index in [0, n): most draws land on 0, a long tail on
// the rest (the "few hot keys" distribution of real foreign keys).
size_t SkewedIndex(Rng* rng, size_t n) {
  if (n <= 1) return 0;
  double u = rng->Uniform();
  return static_cast<size_t>(u * u * u * static_cast<double>(n)) % n;
}

// Appends row `row` of `parent` to `key` in key's own type: the cell that
// spells the parent's key, so the two still join, or a disjoint key
// (`idx`) when that type has none (no int64 spells "k" or "2.5").
void AppendRespelled(Column* key, const Column& parent, size_t row,
                     size_t idx) {
  const std::string spelling = parent.KeyAt(row);
  Column cell = Column::Strings({spelling});
  if (key->type() == DataType::kInt64) {
    cell = Column::Int64s({std::strtoll(spelling.c_str(), nullptr, 10)});
  } else if (key->type() == DataType::kDouble) {
    cell = Column::Doubles({std::strtod(spelling.c_str(), nullptr)});
  }
  if (cell.KeyAt(0) == spelling) {
    key->AppendFrom(cell, 0);
  } else {
    AppendDisjointKeyValue(key, key->type(), idx);
  }
}

// Distinct non-null key rows of `key` in first-occurrence order.
std::vector<size_t> DistinctKeyRows(const Column& key) {
  std::vector<size_t> rows;
  std::unordered_set<std::string> seen;
  for (size_t i = 0; i < key.size(); ++i) {
    if (key.IsNull(i)) continue;
    if (seen.insert(key.KeyAt(i)).second) rows.push_back(i);
  }
  return rows;
}

Column MakeFeatureColumn(Rng* rng, size_t rows, const Table& table,
                         size_t feature_index) {
  // Trait mix: plain numeric features dominate, with every degenerate shape
  // the selection/stats layers must tolerate appearing regularly.
  size_t trait = rng->UniformIndex(10);
  if (trait >= 8 && feature_index > 0) {
    // Exact duplicate of the previous feature (redundancy-analysis bait).
    return table.column(table.num_columns() - 1);
  }
  switch (trait) {
    case 0: {  // constant
      Column c(DataType::kDouble);
      for (size_t i = 0; i < rows; ++i) c.AppendDouble(3.25);
      return c;
    }
    case 1:  // all null
      return Column::Nulls(DataType::kDouble, rows);
    case 2: {  // sparse nulls
      Column c(DataType::kDouble);
      for (size_t i = 0; i < rows; ++i) {
        if (rng->Bernoulli(0.3)) {
          c.AppendNull();
        } else {
          c.AppendDouble(rng->Normal());
        }
      }
      return c;
    }
    case 3: {  // small-domain int64
      Column c(DataType::kInt64);
      for (size_t i = 0; i < rows; ++i) {
        c.AppendInt64(rng->UniformInt(-5, 5));
      }
      return c;
    }
    case 4: {  // string categorical
      const char* cats[] = {"a", "b", "c"};
      Column c(DataType::kString);
      for (size_t i = 0; i < rows; ++i) {
        if (rng->Bernoulli(0.15)) {
          c.AppendNull();
        } else {
          c.AppendString(cats[rng->UniformIndex(3)]);
        }
      }
      return c;
    }
    case 5: {  // unicode strings
      const char* cats[] = {"α", "β", "日本", "naïve"};
      Column c(DataType::kString);
      for (size_t i = 0; i < rows; ++i) {
        c.AppendString(cats[rng->UniformIndex(4)]);
      }
      return c;
    }
    default: {  // plain numeric
      Column c(DataType::kDouble);
      for (size_t i = 0; i < rows; ++i) c.AppendDouble(rng->Normal());
      return c;
    }
  }
}

// Rows appended to `current` under its exact schema (names and types);
// schema-matched by construction so the append succeeds on both the
// incremental and the cold side.
Table MakeAppendPayload(Rng* rng, const Table& current, size_t rows) {
  Table payload(current.name());
  for (size_t c = 0; c < current.num_columns(); ++c) {
    const Field& field = current.schema().field(c);
    Column col(field.type);
    for (size_t r = 0; r < rows; ++r) {
      if (rng->Bernoulli(0.1)) {
        col.AppendNull();
        continue;
      }
      switch (field.type) {
        case DataType::kInt64:
          col.AppendInt64(rng->UniformInt(-5, 5));
          break;
        case DataType::kDouble:
          col.AppendDouble(rng->Normal());
          break;
        default:
          AppendKeyValue(&col, DataType::kString,
                         rng->UniformIndex(kStringKeyPoolSize + 4));
          break;
      }
    }
    payload.AddColumn(field.name, std::move(col)).Abort("fuzz append payload");
  }
  return payload;
}

// A fresh satellite-shaped table for an add mutation. `feature_prefix`
// exercises the "re-add a dropped name with renamed columns" corner: the
// re-added table has the same name but g*-named features, so stale
// per-column cache entries or matches would be observable.
Table MakeMutationTable(Rng* rng, const std::string& name, uint64_t seed,
                        size_t op_index, const char* feature_prefix,
                        size_t max_feature_columns) {
  DataType key_type = DataType::kInt64;
  switch (rng->UniformIndex(3)) {
    case 0: key_type = DataType::kInt64; break;
    case 1: key_type = DataType::kDouble; break;
    default: key_type = DataType::kString; break;
  }
  size_t rows = 1 + rng->UniformIndex(10);
  Column key(key_type);
  for (size_t i = 0; i < rows; ++i) {
    if (rng->Bernoulli(0.05)) {
      key.AppendNull();
    } else if (rng->Bernoulli(0.3)) {
      AppendDisjointKeyValue(&key, key_type, i);
    } else {
      // AppendKeyValue draws from the same domain the base key uses, so
      // added tables overlap the base when the key types line up.
      AppendKeyValue(&key, key_type, rng->UniformIndex(rows));
    }
  }
  Table table(name);
  table.AddColumn("k", std::move(key)).Abort("fuzz mutation table");
  size_t num_features = 1 + rng->UniformIndex(std::max<size_t>(
                                1, max_feature_columns / 2));
  for (size_t f = 0; f < num_features; ++f) {
    Rng col_rng(DeriveSeed(seed, kMutationStream + 1000 + op_index * 64 + f));
    table
        .AddColumn(feature_prefix + std::to_string(f),
                   MakeFeatureColumn(&col_rng, rows, table, f))
        .Abort("fuzz mutation table");
  }
  return table;
}

}  // namespace

FuzzedLake LakeFuzzer::Generate(uint64_t seed) const {
  FuzzedLake fz;
  fz.seed = seed;
  Rng shape(DeriveSeed(seed, kShapeStream));

  // ---- Base table -----------------------------------------------------------
  size_t base_rows = shape.Bernoulli(0.1)
                         ? 1
                         : 3 + shape.UniformIndex(options_.max_rows - 2);
  DataType key_type = static_cast<DataType>(0);
  switch (shape.UniformIndex(3)) {
    case 0: key_type = DataType::kInt64; break;
    case 1: key_type = DataType::kDouble; break;
    default: key_type = DataType::kString; break;
  }

  Table base(fz.base_table);
  {
    Rng rng(DeriveSeed(seed, kTableStreamBase));
    // Key-domain size: constant key, heavy duplicates, or near-unique.
    size_t domain = 1;
    switch (rng.UniformIndex(4)) {
      case 0: domain = 1; break;
      case 1: domain = std::max<size_t>(1, base_rows / 4); break;
      case 2: domain = std::max<size_t>(1, base_rows / 2); break;
      default: domain = base_rows; break;
    }
    bool skewed = rng.Bernoulli(0.3);
    Column key(key_type);
    for (size_t i = 0; i < base_rows; ++i) {
      if (rng.Bernoulli(0.05)) {
        key.AppendNull();
        continue;
      }
      size_t idx = skewed ? SkewedIndex(&rng, domain) : rng.UniformIndex(domain);
      AppendKeyValue(&key, key_type, idx);
    }
    base.AddColumn("key", std::move(key)).Abort();

    bool constant_label = rng.Bernoulli(0.1);
    Column label(DataType::kInt64);
    for (size_t i = 0; i < base_rows; ++i) {
      label.AppendInt64(constant_label ? 0 : (rng.Bernoulli(0.5) ? 1 : 0));
    }
    base.AddColumn(fz.label_column, std::move(label)).Abort();

    size_t base_features = rng.UniformIndex(4);
    for (size_t f = 0; f < base_features; ++f) {
      Rng col_rng(DeriveSeed(seed, kColumnStreamBase + f));
      base.AddColumn("bf" + std::to_string(f),
                     MakeFeatureColumn(&col_rng, base_rows, base, f + 2))
          .Abort();
    }
  }
  fz.lake.AddTable(std::move(base)).Abort();

  // ---- Satellite tables -----------------------------------------------------
  size_t num_satellites = shape.UniformIndex(options_.max_satellites + 1);
  for (size_t t = 0; t < num_satellites; ++t) {
    Rng rng(DeriveSeed(seed, kTableStreamBase + 1 + t));
    std::string name = "fz_t" + std::to_string(t);

    // Parent: usually the base, sometimes an earlier satellite (building the
    // transitive chains the paper's traversal exists for).
    std::string parent_name = fz.base_table;
    std::string parent_key_column = "key";
    if (t > 0 && rng.Bernoulli(0.35)) {
      parent_name = "fz_t" + std::to_string(rng.UniformIndex(t));
      parent_key_column = "k";
    }
    const Table& parent = **fz.lake.GetTable(parent_name);
    const Column& parent_key = **parent.GetColumn(parent_key_column);
    std::vector<size_t> parent_distinct = DistinctKeyRows(parent_key);

    size_t rows;
    if (rng.Bernoulli(0.05)) {
      rows = 0;
    } else if (rng.Bernoulli(0.1)) {
      rows = 1;
    } else {
      rows = 2 + rng.UniformIndex(options_.max_rows - 1);
    }

    // Overlap with the parent key domain: exactly none, half, or all.
    double overlap = 0.5;
    switch (rng.UniformIndex(3)) {
      case 0: overlap = 0.0; break;
      case 1: overlap = 0.5; break;
      default: overlap = 1.0; break;
    }
    if (parent_distinct.empty()) overlap = 0.0;
    KeyStyle style = static_cast<KeyStyle>(rng.UniformIndex(4));
    size_t overlap_rows = static_cast<size_t>(overlap * static_cast<double>(rows));
    // Usually the parent's key type; now and then another type spelling the
    // same keys, so joins meet int64, double and string keys.
    const DataType child_type = rng.Bernoulli(0.25)
                                    ? static_cast<DataType>(rng.UniformIndex(3))
                                    : parent_key.type();

    Column key(child_type);
    for (size_t i = 0; i < rows; ++i) {
      if (rng.Bernoulli(0.05)) {
        key.AppendNull();
        continue;
      }
      size_t idx = i;
      switch (style) {
        case KeyStyle::kUnique: idx = i; break;
        case KeyStyle::kDuplicated: idx = i / 2; break;
        case KeyStyle::kConstant: idx = 0; break;
        case KeyStyle::kSkewed: idx = SkewedIndex(&rng, std::max<size_t>(rows, 1)); break;
      }
      if (i < overlap_rows) {
        AppendRespelled(&key, parent_key,
                        parent_distinct[idx % parent_distinct.size()], idx);
      } else {
        AppendDisjointKeyValue(&key, child_type, idx);
      }
    }

    Table table(name);
    table.AddColumn("k", std::move(key)).Abort();

    size_t num_features = rng.Bernoulli(0.1)
                              ? options_.max_feature_columns
                              : 1 + rng.UniformIndex(options_.max_feature_columns);
    for (size_t f = 0; f < num_features; ++f) {
      Rng col_rng(DeriveSeed(seed, kColumnStreamBase + (t + 1) * 64 + f));
      table.AddColumn("f" + std::to_string(f),
                      MakeFeatureColumn(&col_rng, rows, table, f))
          .Abort();
    }
    fz.lake.AddTable(std::move(table)).Abort();
    fz.lake.AddKfk(KfkConstraint{parent_name, parent_key_column, name, "k"});
  }

  // ---- Mutation trace -------------------------------------------------------
  // Generated against a simulated lake copy so every op is well-formed for
  // the state it runs in (append payloads match the schema *at that point
  // in the sequence*), with a sprinkling of deliberately failing ops to
  // check failure symmetry. The base table is never dropped.
  Rng mrng(DeriveSeed(seed, kMutationStream));
  size_t num_mutations = mrng.UniformIndex(options_.max_mutations + 1);
  DataLake sim = fz.lake;  // COW storage: O(tables) pointer copies
  std::vector<std::string> dropped;
  for (size_t m = 0; m < num_mutations; ++m) {
    serve::LakeMutation op;
    if (mrng.Bernoulli(0.1)) {
      // A drop of a table that does not exist: must fail as a no-op on
      // both the incremental service and a cold replay.
      op.kind = serve::LakeMutation::Kind::kDropTable;
      op.table = "fz_no_such_table";
      fz.trace.push_back(std::move(op));
      continue;
    }
    std::vector<std::string> non_base;
    for (const std::string& name : sim.TableNames()) {
      if (name != fz.base_table) non_base.push_back(name);
    }
    size_t roll = mrng.UniformIndex(10);
    if (roll < 4 || non_base.empty()) {
      // Add: usually a fresh name; sometimes a previously dropped name
      // re-added with renamed (g*) feature columns.
      op.kind = serve::LakeMutation::Kind::kAddTable;
      const char* prefix = "f";
      std::string name = "fz_m" + std::to_string(m);
      if (!dropped.empty() && mrng.Bernoulli(0.6)) {
        std::string candidate = dropped[mrng.UniformIndex(dropped.size())];
        if (!sim.HasTable(candidate)) {
          name = std::move(candidate);
          prefix = "g";
        }
      }
      Rng trng(DeriveSeed(seed, kMutationStream + 1 + m));
      op.payload = MakeMutationTable(&trng, name, seed, m, prefix,
                                     options_.max_feature_columns);
    } else if (roll < 7) {
      // Append to any table (the base included) under its current schema.
      size_t pick = mrng.UniformIndex(sim.num_tables());
      const Table& current = sim.tables()[pick];
      op.kind = serve::LakeMutation::Kind::kAppendRows;
      op.table = current.name();
      Rng prng(DeriveSeed(seed, kMutationStream + 1 + m));
      op.payload = MakeAppendPayload(&prng, current, 1 + prng.UniformIndex(5));
    } else {
      // Drop a satellite; prefer one that is itself a join-path parent
      // (severing a transitive chain mid-path).
      op.kind = serve::LakeMutation::Kind::kDropTable;
      std::vector<std::string> parents;
      for (const KfkConstraint& kfk : sim.kfk_constraints()) {
        if (kfk.from_table != fz.base_table && sim.HasTable(kfk.from_table)) {
          parents.push_back(kfk.from_table);
        }
      }
      if (!parents.empty() && mrng.Bernoulli(0.5)) {
        op.table = parents[mrng.UniformIndex(parents.size())];
      } else {
        op.table = non_base[mrng.UniformIndex(non_base.size())];
      }
      dropped.push_back(op.table);
    }
    serve::ApplyMutationToLake(&sim, op).Abort("fuzz trace simulation");
    fz.trace.push_back(std::move(op));
  }
  return fz;
}

bool FuzzedLakesEqual(const FuzzedLake& a, const FuzzedLake& b) {
  if (a.base_table != b.base_table || a.label_column != b.label_column) {
    return false;
  }
  if (a.lake.num_tables() != b.lake.num_tables()) return false;
  for (size_t i = 0; i < a.lake.num_tables(); ++i) {
    const Table& ta = a.lake.tables()[i];
    const Table& tb = b.lake.tables()[i];
    if (ta.name() != tb.name() || !ta.Equals(tb)) return false;
  }
  const auto& ka = a.lake.kfk_constraints();
  const auto& kb = b.lake.kfk_constraints();
  if (ka.size() != kb.size()) return false;
  for (size_t i = 0; i < ka.size(); ++i) {
    if (ka[i].from_table != kb[i].from_table ||
        ka[i].from_column != kb[i].from_column ||
        ka[i].to_table != kb[i].to_table ||
        ka[i].to_column != kb[i].to_column) {
      return false;
    }
  }
  if (a.trace.size() != b.trace.size()) return false;
  for (size_t i = 0; i < a.trace.size(); ++i) {
    if (!serve::MutationsEqual(a.trace[i], b.trace[i])) return false;
  }
  return true;
}

}  // namespace autofeat::qa
