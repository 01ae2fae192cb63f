// Instrumented discovery record over the credit lake (not a paper figure).
//
// Runs the full AutoFeat search over the synthetic credit lake at one
// thread on a discovered DRG (threshold 0.55) with metrics and tracing on,
// and emits BENCH_join_path.json (the obs report) and TRACE_join_path.json.
// tools/bench_diff compares the record's deterministic counters and gauges
// against bench/baselines/BENCH_join_path.json; Discover's wall-clock is
// measured by bench/ledger's lake_dense workload.

#include <cstdio>

#include "harness.h"
#include "core/autofeat.h"
#include "obs/memory.h"
#include "obs/metrics.h"
#include "obs/trace.h"

int main() {
  using namespace autofeat;
  using namespace autofeat::benchx;

  PrintModeBanner("join_path_eval");

  auto spec = ScaledSpec(*datagen::FindDataset("credit"));
  auto built = datagen::BuildPaperLake(spec, 1);
  MatchOptions match;
  match.threshold = 0.55;
  auto drg = BuildDrgByDiscovery(built.lake, match);
  drg.status().Abort("drg discovery");

  obs::MetricsRegistry metrics;
  obs::Tracer tracer;
  AutoFeatConfig config;
  config.num_threads = 1;
  config.sample_rows = FullMode() ? 2000 : 1000;
  config.max_paths = FullMode() ? 2000 : 600;
  config.metrics_enabled = true;
  config.metrics = &metrics;
  config.tracer = &tracer;
  AutoFeat engine(&built.lake, &*drg, config);
  auto discovery =
      engine.DiscoverFeatures(built.base_table, built.label_column);
  discovery.status().Abort("discovery");
  obs::RecordProcessPeakRss(&metrics);

  std::printf("paths explored: %zu | ranked: %zu\n",
              discovery->paths_explored, discovery->ranked.size());
  WriteBenchJson("join_path", {}, &metrics);
  WriteBenchTrace("join_path", tracer);
  return 0;
}
