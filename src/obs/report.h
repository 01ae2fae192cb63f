// JSON observability report + deterministic digest.
//
// The report serializes a MetricsRegistry snapshot and a Tracer span tree
// into one JSON document. Two field classes exist:
//
//  * deterministic fields — metric values registered as deterministic, and
//    the span tree's names/ids/parent links — are a pure function of
//    (inputs, seed), identical at any thread count;
//  * volatile fields — wall-clock span timings, span thread ids, and
//    metrics registered as non-deterministic (thread-pool queue stats) —
//    vary run to run.
//
// DeterministicDigest() hashes (FNV-1a 64) the canonical serialization of
// the deterministic fields only, so two runs of the same workload at
// different thread counts produce the same digest even though their
// timings differ. The full report embeds the digest, making "did the
// parallel run compute the same thing?" a string compare.

#ifndef AUTOFEAT_OBS_REPORT_H_
#define AUTOFEAT_OBS_REPORT_H_

#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace autofeat::obs {

struct ReportOptions {
  /// Emit span start/end timestamps (volatile).
  bool include_timings = true;
  /// Emit non-deterministic metrics and span thread ids (volatile).
  bool include_volatile = true;
  /// Emit the digest of the deterministic projection.
  bool include_digest = true;
};

/// Serializes metrics + spans (tracer may be null) as pretty-printed JSON.
std::string JsonReport(const MetricsRegistry& metrics, const Tracer* tracer,
                       const ReportOptions& options = {});

/// "fnv1a:<16 hex digits>" over the deterministic projection of the report
/// (no timings, no volatile fields, no digest field).
std::string DeterministicDigest(const MetricsRegistry& metrics,
                                const Tracer* tracer);

/// JSON well-formedness check: true when ParseJson (obs/json_value.h)
/// accepts `text`. Used by tests to validate emitted reports without an
/// external JSON dependency.
bool JsonIsValid(const std::string& text);

}  // namespace autofeat::obs

#endif  // AUTOFEAT_OBS_REPORT_H_
