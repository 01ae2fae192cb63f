// The per-layer ledger: a Tracer's span tree aggregated by span name, plus
// the sample statistics the ledger reports.
//
// Self time is a span's duration minus the *union* of its direct children's
// intervals (clipped to the span). Children that ran in parallel on several
// threads therefore reduce their parent's self time once, not once per
// child, and a parent's self time is never negative.
//
// A span's parent is the innermost span of the same thread whose interval
// encloses it. The tracer itself files a worker span under the innermost
// open *worker* span of its thread even when an orchestration span opened
// later encloses it (a serving query's engine spans run inside the
// `serve.execute` worker span), which would charge the engine's work to
// the wrong span. Spans that nothing on their own thread encloses keep the
// recorded parent: the enqueue site of a pool task.

#ifndef AUTOFEAT_BENCH_LEDGER_SPAN_LEDGER_H_
#define AUTOFEAT_BENCH_LEDGER_SPAN_LEDGER_H_

#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.h"

namespace autofeat::ledger {

/// Aggregate of every closed span that carries one name.
struct SpanStat {
  size_t count = 0;
  /// Summed durations.
  double total_s = 0.0;
  /// Summed self times (duration minus the union of child intervals).
  double self_s = 0.0;
};

/// Length of the union of `intervals` ([start, end) pairs), each clipped to
/// [lo, hi].
double UnionLength(std::vector<std::pair<double, double>> intervals,
                   double lo, double hi);

/// Aggregates closed spans by name (parents by nesting, as above).
/// Still-open spans are skipped.
std::map<std::string, SpanStat> AggregateByName(
    const std::vector<obs::SpanRecord>& spans);

/// Median (mean of the two middle values for an even count); 0 if empty.
double Median(std::vector<double> samples);

/// A tail percentile is reported only when at least this many samples lie
/// beyond it; with fewer, it would describe a handful of outliers.
constexpr size_t kMinSamplesBeyond = 10;

/// Nearest-rank q-quantile of `samples`, or nullopt when fewer than
/// kMinSamplesBeyond samples lie beyond it (so p90 needs at least 100
/// samples and p99 at least 1000).
std::optional<double> TailPercentile(std::vector<double> samples, double q);

/// Checks the union rule on a synthetic tree with overlapping children and
/// the percentile rule on synthetic samples; prints each case. Returns
/// true when all hold.
bool SelfTest();

}  // namespace autofeat::ledger

#endif  // AUTOFEAT_BENCH_LEDGER_SPAN_LEDGER_H_
