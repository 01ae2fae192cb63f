// Shared infrastructure for the figure/table harnesses.
//
// Every bench binary prints the rows/series its paper figure reports.
// AUTOFEAT_BENCH_MODE=full runs the registry at full (scaled) size with all
// four tree models; the default quick mode shrinks rows and uses two tree
// models so the whole suite completes on a single core in minutes. Either
// way the qualitative shapes (who wins, rough factors) are preserved.

#ifndef AUTOFEAT_BENCH_HARNESS_H_
#define AUTOFEAT_BENCH_HARNESS_H_

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "baselines/arda.h"
#include "baselines/augmenter.h"
#include "baselines/autofeat_method.h"
#include "baselines/join_all.h"
#include "baselines/mab.h"
#include "datagen/registry.h"
#include "discovery/data_lake.h"
#include "ml/trainer.h"
#include "obs/chrome_trace.h"
#include "obs/event_log.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "util/string_utils.h"

namespace autofeat::benchx {

inline bool FullMode() {
  const char* mode = std::getenv("AUTOFEAT_BENCH_MODE");
  return mode != nullptr && std::string(mode) == "full";
}

/// Registry spec adjusted for the active mode.
inline datagen::DatasetSpec ScaledSpec(datagen::DatasetSpec spec) {
  if (!FullMode()) {
    spec.rows = std::min<size_t>(spec.rows, 2000);
    spec.total_features = std::min<size_t>(spec.total_features, 120);
  }
  return spec;
}

/// Tree models evaluated per augmented table (Figs. 4/6 average these).
inline std::vector<ml::ModelKind> BenchTreeModels() {
  if (FullMode()) return ml::TreeModelKinds();
  return {ml::ModelKind::kLightGbm, ml::ModelKind::kRandomForest};
}

enum class Setting { kBenchmark, kDataLake };

inline const char* SettingName(Setting s) {
  return s == Setting::kBenchmark ? "benchmark" : "data lake";
}

/// Builds the DRG for a setting (§VII-A): KFK edges vs discovered edges.
inline Result<DatasetRelationGraph> BuildSettingDrg(
    const datagen::BuiltLake& built, Setting setting) {
  if (setting == Setting::kBenchmark) return BuildDrgFromKfk(built.lake);
  MatchOptions options;
  options.threshold = 0.55;
  return BuildDrgByDiscovery(built.lake, options);
}

struct MethodRow {
  std::string method;
  double fs_seconds = 0.0;
  double total_seconds = 0.0;
  double accuracy = 0.0;       // mean over the evaluation models
  size_t tables_joined = 0;
  bool skipped = false;
  std::string skip_reason;
};

/// Runs one augmentation method and evaluates its output table with the
/// given models; accuracy is the mean test accuracy.
inline Result<MethodRow> RunMethod(baselines::Augmenter* method,
                                   const datagen::BuiltLake& built,
                                   const DatasetRelationGraph& drg,
                                   const std::vector<ml::ModelKind>& models) {
  MethodRow row;
  row.method = method->name();
  AF_ASSIGN_OR_RETURN(baselines::AugmenterResult result,
                      method->Augment(built.lake, drg, built.base_table,
                                      built.label_column));
  row.fs_seconds = result.feature_selection_seconds;
  row.total_seconds = result.total_seconds;
  row.tables_joined = result.tables_joined;
  AF_ASSIGN_OR_RETURN(row.accuracy,
                      ml::AverageAccuracy(result.augmented,
                                          built.label_column, models));
  return row;
}

/// The method lineup of §VII-B. JoinAll variants are optional because the
/// harness skips them where the paper does (school; the data-lake setting)
/// due to the Eq. 3 path explosion.
inline std::vector<std::unique_ptr<baselines::Augmenter>> MakeMethods(
    bool include_join_all, uint64_t seed = 42) {
  std::vector<std::unique_ptr<baselines::Augmenter>> methods;
  methods.push_back(std::make_unique<baselines::BaseMethod>());

  AutoFeatConfig config;
  config.seed = seed;
  config.sample_rows = FullMode() ? 2000 : 1000;
  // The novelty-first beam reaches every table early; quick mode caps the
  // long tail of re-combination paths on dense discovered graphs.
  config.max_paths = FullMode() ? 2000 : 600;
  methods.push_back(std::make_unique<baselines::AutoFeatMethod>(config));

  baselines::ArdaOptions arda;
  arda.seed = seed;
  methods.push_back(std::make_unique<baselines::Arda>(arda));

  baselines::MabOptions mab;
  mab.seed = seed;
  // The paper's MAB is the slowest method (model training in every
  // episode); give it a realistic episode budget.
  mab.episodes = FullMode() ? 30 : 20;
  methods.push_back(std::make_unique<baselines::Mab>(mab));

  if (include_join_all) {
    baselines::JoinAllOptions plain;
    plain.seed = seed;
    methods.push_back(std::make_unique<baselines::JoinAll>(plain));
    baselines::JoinAllOptions filtered;
    filtered.filter = true;
    filtered.seed = seed;
    methods.push_back(std::make_unique<baselines::JoinAll>(filtered));
  }
  return methods;
}

/// One machine-readable timing sample: wall seconds of one phase of one
/// bench at a given thread count.
struct BenchTiming {
  std::string phase;
  size_t threads = 1;
  double seconds = 0.0;
};

/// Where BENCH_/TRACE_ artifacts land: AUTOFEAT_BENCH_JSON_DIR when set,
/// else the source root captured at configure time (so benches launched
/// from the build tree still drop artifacts at the repo root, where CI and
/// bench_diff look for them), else the current directory.
inline std::string BenchJsonDir() {
  const char* dir = std::getenv("AUTOFEAT_BENCH_JSON_DIR");
  if (dir != nullptr && *dir != '\0') return dir;
#ifdef AUTOFEAT_SOURCE_ROOT
  return AUTOFEAT_SOURCE_ROOT;
#else
  return ".";
#endif
}

/// Writes the bench record `BENCH_<name>.json` (one file per bench; later
/// runs overwrite). Destination directory comes from BenchJsonDir() above.
/// Schema (`autofeat.bench.v1`):
/// {"schema": "autofeat.bench.v1", "bench": name, "mode": quick|full,
///  "timings": [{"phase": ..., "threads": N, "seconds": S}, ...],
///  "metrics": {...}}
/// The metrics block is the obs report of an instrumented run — `{}` when
/// the bench did not attach a registry. All strings are JSON-escaped; names
/// with quotes/backslashes survive a round trip. tools/bench_diff compares
/// the metrics block's counters and gauges against a committed baseline;
/// the timings are informational.
inline bool WriteBenchJson(const std::string& name,
                           const std::vector<BenchTiming>& timings,
                           const obs::MetricsRegistry* metrics = nullptr) {
  std::string path = BenchJsonDir() + "/BENCH_" + name + ".json";
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return false;
  }
  out << "{\n  \"schema\": \"autofeat.bench.v1\",\n  \"bench\": \""
      << JsonEscape(name) << "\",\n  \"mode\": \""
      << (FullMode() ? "full" : "quick") << "\",\n  \"timings\": [";
  for (size_t i = 0; i < timings.size(); ++i) {
    if (i > 0) out << ",";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "\"threads\": %zu, \"seconds\": %.6f}",
                  timings[i].threads, timings[i].seconds);
    out << "\n    {\"phase\": \"" << JsonEscape(timings[i].phase) << "\", "
        << buf;
  }
  out << "\n  ],\n  \"metrics\": ";
  if (metrics != nullptr) {
    out << obs::JsonReport(*metrics, /*tracer=*/nullptr);
  } else {
    out << "{}";
  }
  out << "\n}\n";
  std::printf("bench record written to %s\n", path.c_str());
  return true;
}

/// Writes `EVENTS_<name>.jsonl` — the structured serving event log of one
/// instrumented bench run (same destination rules as WriteBenchJson). CI
/// uploads it next to the trace so "what happened, in order" ships with
/// every run.
inline bool WriteBenchEvents(const std::string& name,
                             const obs::EventLog& events) {
  std::string path = BenchJsonDir() + "/EVENTS_" + name + ".jsonl";
  if (!events.WriteFile(path)) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return false;
  }
  std::printf("event log written to %s (%zu events)\n", path.c_str(),
              events.size());
  return true;
}

/// Writes `TRACE_<name>.json` — the Chrome trace-event view of one
/// instrumented bench run (same destination rules as WriteBenchJson).
/// Open at https://ui.perfetto.dev or chrome://tracing.
inline bool WriteBenchTrace(const std::string& name,
                            const obs::Tracer& tracer) {
  std::string path = BenchJsonDir() + "/TRACE_" + name + ".json";
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return false;
  }
  out << obs::ChromeTraceJson(tracer);
  std::printf("trace written to %s (open at https://ui.perfetto.dev)\n",
              path.c_str());
  return true;
}

inline void PrintRule(int width = 96) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

inline void PrintModeBanner(const char* figure) {
  std::printf("%s | mode=%s (set AUTOFEAT_BENCH_MODE=full for the full-size "
              "run)\n",
              figure, FullMode() ? "full" : "quick");
}

inline void PrintMethodHeader() {
  std::printf("%-12s %10s %10s %8s %8s  %s\n", "method", "fs_time_s",
              "total_s", "acc", "#joined", "note");
  PrintRule(64);
}

inline void PrintMethodRow(const MethodRow& row) {
  if (row.skipped) {
    std::printf("%-12s %10s %10s %8s %8s  %s\n", row.method.c_str(), "-", "-",
                "-", "-", row.skip_reason.c_str());
    return;
  }
  std::printf("%-12s %10.3f %10.3f %8.3f %8zu\n", row.method.c_str(),
              row.fs_seconds, row.total_seconds, row.accuracy,
              row.tables_joined);
}

}  // namespace autofeat::benchx

#endif  // AUTOFEAT_BENCH_HARNESS_H_
