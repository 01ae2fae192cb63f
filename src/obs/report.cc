#include "obs/report.h"

#include <cstdio>
#include <sstream>

#include "obs/json_value.h"
#include "util/rng.h"
#include "util/string_utils.h"

namespace autofeat::obs {

namespace {

std::string FormatSeconds(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6f", seconds);
  return buf;
}

void AppendQuoted(std::ostringstream& out, const std::string& s) {
  out << '"' << JsonEscape(s) << '"';
}

}  // namespace

std::string JsonReport(const MetricsRegistry& metrics, const Tracer* tracer,
                       const ReportOptions& options) {
  MetricsSnapshot snap = metrics.Snapshot();
  std::ostringstream out;
  out << "{\n  \"schema\": \"autofeat.obs.v1\",\n";

  out << "  \"counters\": {";
  bool first = true;
  for (const CounterSample& c : snap.counters) {
    if (!options.include_volatile && !c.deterministic) continue;
    out << (first ? "\n    " : ",\n    ");
    first = false;
    AppendQuoted(out, c.name);
    out << ": " << c.value;
  }
  out << (first ? "},\n" : "\n  },\n");

  out << "  \"gauges\": {";
  first = true;
  for (const GaugeSample& g : snap.gauges) {
    if (!options.include_volatile && !g.deterministic) continue;
    out << (first ? "\n    " : ",\n    ");
    first = false;
    AppendQuoted(out, g.name);
    out << ": " << g.value;
  }
  out << (first ? "},\n" : "\n  },\n");

  out << "  \"quantiles\": {";
  first = true;
  for (const QuantileSample& q : snap.quantiles) {
    if (!options.include_volatile && !q.deterministic) continue;
    out << (first ? "\n    " : ",\n    ");
    first = false;
    AppendQuoted(out, q.name);
    out << ": {\"count\": " << q.count << ", \"sum\": " << q.sum
        << ", \"min\": " << q.min << ", \"max\": " << q.max
        << ", \"p50\": " << q.p50 << ", \"p90\": " << q.p90
        << ", \"p99\": " << q.p99 << ", \"p999\": " << q.p999 << "}";
  }
  out << (first ? "},\n" : "\n  },\n");

  out << "  \"spans\": [";
  first = true;
  if (tracer != nullptr) {
    for (const SpanRecord& span : tracer->Snapshot()) {
      // Worker spans are scheduling-dependent (their count varies with the
      // number of pool lanes that actually ran), so the deterministic
      // projection drops them entirely.
      if (!options.include_volatile && span.worker) continue;
      out << (first ? "\n    " : ",\n    ");
      first = false;
      out << "{\"id\": " << span.id << ", \"parent\": " << span.parent
          << ", \"name\": ";
      AppendQuoted(out, span.name);
      if (options.include_volatile) {
        out << ", \"thread\": " << span.thread;
        if (span.worker) {
          out << ", \"worker\": true";
          if (span.flow_id != 0) out << ", \"flow\": " << span.flow_id;
        }
      }
      if (options.include_timings) {
        out << ", \"start_s\": " << FormatSeconds(span.start_seconds)
            << ", \"end_s\": " << FormatSeconds(span.end_seconds);
      }
      out << "}";
    }
  }
  out << (first ? "]" : "\n  ]");

  if (options.include_digest) {
    out << ",\n  \"digest\": \"" << DeterministicDigest(metrics, tracer)
        << "\"";
  }
  out << "\n}\n";
  return out.str();
}

std::string DeterministicDigest(const MetricsRegistry& metrics,
                                const Tracer* tracer) {
  ReportOptions projection;
  projection.include_timings = false;
  projection.include_volatile = false;
  projection.include_digest = false;
  uint64_t h = Fnv1a64(JsonReport(metrics, tracer, projection));
  char buf[32];
  std::snprintf(buf, sizeof(buf), "fnv1a:%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

bool JsonIsValid(const std::string& text) { return ParseJson(text).ok(); }

}  // namespace autofeat::obs
