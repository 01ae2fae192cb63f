// AutoFeat-as-a-service: incremental DRG maintenance vs cold rebuilds.
//
// Builds a 200-table pod lake (datagen::BuildScaleLake) plus a labelled
// query base table, stands up a LakeService (kLsh candidate mode), then
// applies a rotating add/append/drop mutation sequence on one thread with
// the registry exported. After every mutation the service's incrementally
// maintained DRG must be byte-identical to a cold BuildDrgByDiscovery over
// the same lake state, and the summed incremental maintenance time must be
// at least 5x faster than the summed cold rebuilds. A final Discover on
// the mutated service must match a cold service built at the final state.
// Served-query latency beside concurrent writes is measured by the
// serve_mixed workload of bench/ledger, not here.
//
// Artifacts: BENCH_serving.json (timings + obs report; tools/bench_diff
// compares its deterministic counters and gauges), TRACE_serving.json
// (span tree) and EVENTS_serving.jsonl (structured serving events) at the
// repo root.
//
// Self-gating: exits non-zero on any fingerprint divergence or when the
// incremental speedup falls under 5x. Quick mode shrinks rows and op
// counts; AUTOFEAT_BENCH_MODE=full scales them up.

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"
#include "datagen/scale_lake.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "qa/invariants.h"
#include "serve/lake_service.h"
#include "serve/mutation.h"
#include "table/column.h"
#include "util/rng.h"
#include "util/timer.h"

namespace autofeat::benchx {
namespace {

constexpr const char* kBaseTable = "bench_base";
constexpr const char* kLabelColumn = "label";

// The labelled query entry point: joins into pod 0 via its key domain.
Table MakeQueryBase(size_t rows) {
  Table base(kBaseTable);
  Column key(DataType::kInt64);
  Column label(DataType::kInt64);
  for (size_t i = 0; i < rows; ++i) {
    key.AppendInt64(static_cast<int64_t>(i));
    label.AppendInt64(static_cast<int64_t>(i % 2));
  }
  base.AddColumn("key_p0", std::move(key)).Abort();
  base.AddColumn(kLabelColumn, std::move(label)).Abort();
  return base;
}

// A fresh table joinable into pod `pod` (same key domain and column name).
Table MakeAddedTable(size_t index, size_t pod, size_t rows) {
  Rng rng(DeriveSeed(4242, index));
  Table table("mut" + std::to_string(index));
  Column key(DataType::kInt64);
  const int64_t base = static_cast<int64_t>(pod * rows);
  for (size_t i = 0; i < rows; ++i) {
    key.AppendInt64(base + static_cast<int64_t>(i));
  }
  table.AddColumn("key_p" + std::to_string(pod), std::move(key)).Abort();
  for (size_t m = 0; m < 2; ++m) {
    Column feature(DataType::kDouble);
    for (size_t i = 0; i < rows; ++i) feature.AppendDouble(rng.Normal());
    table
        .AddColumn("mv" + std::to_string(index) + "_" + std::to_string(m),
                   std::move(feature))
        .Abort();
  }
  return table;
}

// Rows matching `current`'s exact schema (append payloads must).
Table MakeAppendRows(const Table& current, uint64_t seed, size_t rows) {
  Rng rng(seed);
  Table payload(current.name());
  for (size_t c = 0; c < current.num_columns(); ++c) {
    const Field& field = current.schema().field(c);
    Column col(field.type);
    for (size_t r = 0; r < rows; ++r) {
      switch (field.type) {
        case DataType::kInt64:
          col.AppendInt64(rng.UniformInt(0, 1 << 20));
          break;
        case DataType::kDouble:
          col.AppendDouble(rng.Normal());
          break;
        default:
          col.AppendString("s" + std::to_string(rng.UniformIndex(97)));
          break;
      }
    }
    payload.AddColumn(field.name, std::move(col)).Abort();
  }
  return payload;
}

std::string QueryFingerprint(serve::LakeService* service) {
  auto out = service->Discover(kBaseTable, kLabelColumn);
  out.status().Abort("serving discover");
  return qa::DiscoveryFingerprint(out->discovery);
}

int Main() {
  datagen::ScaleLakeSpec spec;
  spec.num_tables = 200;
  spec.rows = FullMode() ? 120 : 80;  // above the LSH small-column rescue
  spec.features_per_table = 2;
  spec.seed = 42;
  DataLake lake = datagen::BuildScaleLake(spec);
  lake.AddTable(MakeQueryBase(spec.rows)).Abort();

  serve::ServeOptions options;
  options.match.candidate_mode = CandidateMode::kLsh;
  options.config.seed = 42;
  options.config.num_threads = 1;  // sequential, deterministic
  obs::MetricsRegistry metrics;
  obs::Tracer tracer;
  obs::EventLog events;

  Timer create_timer;
  auto service_result =
      serve::LakeService::Create(lake, options, &metrics, &tracer, &events);
  service_result.status().Abort("serving create");
  std::unique_ptr<serve::LakeService> service = service_result.MoveValue();
  const double create_seconds = create_timer.ElapsedSeconds();
  std::printf("serving: %zu tables, service up in %.3fs\n", lake.num_tables(),
              create_seconds);

  // ---- Incremental maintenance vs cold rebuild per mutation -------------
  int failures = 0;
  const size_t kMutations = FullMode() ? 21 : 12;
  double incremental_seconds = 0.0;
  double cold_seconds = 0.0;
  for (size_t i = 0; i < kMutations; ++i) {
    serve::LakeMutation mutation;
    switch (i % 3) {
      case 0:
        mutation.kind = serve::LakeMutation::Kind::kAddTable;
        mutation.payload = MakeAddedTable(i, /*pod=*/1 + i % 7, spec.rows);
        break;
      case 1: {
        mutation.kind = serve::LakeMutation::Kind::kAppendRows;
        mutation.table = "pod" + std::to_string(i % 16) + "_t2";
        const Table* current =
            service->snapshot()->lake.GetTable(mutation.table).ValueOrDie();
        mutation.payload = MakeAppendRows(*current, DeriveSeed(999, i), 6);
        break;
      }
      default:
        // Drops the table added two mutations earlier.
        mutation.kind = serve::LakeMutation::Kind::kDropTable;
        mutation.table = "mut" + std::to_string(i - 2);
        break;
    }
    Timer inc_timer;
    service->Apply(mutation).status().Abort("gate mutation");
    incremental_seconds += inc_timer.ElapsedSeconds();

    serve::LakeService::SnapshotPin snap = service->snapshot();
    Timer cold_timer;
    auto cold_drg = BuildDrgByDiscovery(snap->lake, options.match);
    cold_drg.status().Abort("cold rebuild");
    cold_seconds += cold_timer.ElapsedSeconds();
    if (snap->drg.OrderedFingerprint() != cold_drg->OrderedFingerprint()) {
      std::fprintf(stderr,
                   "FAIL: DRG diverged from the cold rebuild after mutation "
                   "%zu (%s)\n",
                   i, serve::MutationSummary(mutation).c_str());
      ++failures;
    }
  }
  const double speedup =
      incremental_seconds > 0 ? cold_seconds / incremental_seconds : 0.0;
  std::printf(
      "  %zu mutations: incremental %.3fs total, cold rebuilds %.3fs total "
      "(%.1fx)\n",
      kMutations, incremental_seconds, cold_seconds, speedup);
  if (speedup < 5.0) {
    std::fprintf(stderr,
                 "FAIL: incremental maintenance only %.1fx faster than cold "
                 "rebuilds (gate: 5x)\n",
                 speedup);
    ++failures;
  }

  // Query equivalence at the final state: the mutated service vs a service
  // built cold over the same lake.
  {
    auto cold_service =
        serve::LakeService::Create(service->snapshot()->lake, options);
    cold_service.status().Abort("cold service");
    if (QueryFingerprint(service.get()) !=
        QueryFingerprint(cold_service->get())) {
      std::fprintf(stderr,
                   "FAIL: Discover output diverged between the mutated "
                   "service and a cold service\n");
      ++failures;
    }
  }

  WriteBenchJson("serving",
                 {{"service_create", 1, create_seconds},
                  {"mutation_incremental_total", 1, incremental_seconds},
                  {"mutation_cold_rebuild_total", 1, cold_seconds}},
                 &metrics);
  WriteBenchTrace("serving", tracer);
  WriteBenchEvents("serving", events);
  if (failures > 0) {
    std::fprintf(stderr, "serving: %d gate failure(s)\n", failures);
    return 1;
  }
  std::printf("serving: all gates passed\n");
  return 0;
}

}  // namespace
}  // namespace autofeat::benchx

int main() { return autofeat::benchx::Main(); }
