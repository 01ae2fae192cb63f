// A/B comparison of two BENCH_*.json records (bench/harness.h schema).
//
// Only the embedded obs report's counters and gauges are compared. They are
// pure functions of (inputs, seed), so any drift of more than 10% between
// runs of the same workload is a behavioural change and is flagged in
// either direction; `.bytes` / `.bytes_peak` gauges are memory-regression
// gates and only flag on growth. Scheduling-dependent series
// (`thread_pool.*`, `process.*`) are skipped. Wall-clock timings and
// latency quantiles are not compared: timing claims are made with
// bench/ledger, which repeats runs and bounds their spread.

#ifndef AUTOFEAT_OBS_BENCH_DIFF_H_
#define AUTOFEAT_OBS_BENCH_DIFF_H_

#include <string>
#include <vector>

#include "util/status.h"

namespace autofeat::obs {

/// \brief One compared metric.
struct BenchDiffEntry {
  std::string name;
  double baseline = 0.0;
  double current = 0.0;
  /// (current - baseline) / max(baseline, tiny); sign follows current.
  double delta_ratio = 0.0;
  bool regression = false;
};

struct BenchDiffReport {
  std::string bench;
  std::vector<BenchDiffEntry> metrics;
  /// Non-fatal observations: metrics present on only one side.
  std::vector<std::string> notes;

  bool ok() const;
  size_t num_regressions() const;
  /// Human-readable table, one line per compared entry.
  std::string Summary() const;
};

/// \brief Parses and compares two BENCH_*.json documents (contents, not
/// paths). Errors on malformed JSON or mismatched bench names/modes.
Result<BenchDiffReport> DiffBenchReports(const std::string& baseline_json,
                                         const std::string& current_json);

}  // namespace autofeat::obs

#endif  // AUTOFEAT_OBS_BENCH_DIFF_H_
