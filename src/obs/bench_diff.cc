#include "obs/bench_diff.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <sstream>

#include "obs/json_value.h"

namespace autofeat::obs {
namespace {

// Relative drift tolerated for metric values (growth-only for bytes).
constexpr double kMetricThreshold = 0.10;

bool SkippedMetric(const std::string& name) {
  // Scheduling- and OS-dependent series: meaningless in an A/B gate.
  return name.rfind("thread_pool.", 0) == 0 || name.rfind("process.", 0) == 0;
}

bool EndsWith(const std::string& name, const std::string& suffix) {
  return name.size() >= suffix.size() &&
         name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool IsByteGauge(const std::string& name) {
  return EndsWith(name, ".bytes") || EndsWith(name, ".bytes_peak");
}

double Ratio(double baseline, double current) {
  double denom = std::max(std::abs(baseline), 1e-12);
  return (current - baseline) / denom;
}

Result<std::string> RequireString(const JsonValue& doc, const char* key) {
  const JsonValue* v = doc.Find(key);
  if (v == nullptr || !v->is_string()) {
    return Status::InvalidArgument(std::string("bench JSON missing string "
                                               "field \"") + key + "\"");
  }
  return v->str;
}

// Flattens metrics.counters and metrics.gauges into one name -> value map.
std::map<std::string, double> CollectMetrics(const JsonValue& doc) {
  std::map<std::string, double> out;
  const JsonValue* metrics = doc.Find("metrics");
  if (metrics == nullptr || !metrics->is_object()) return out;
  for (const char* section : {"counters", "gauges"}) {
    const JsonValue* block = metrics->Find(section);
    if (block == nullptr || !block->is_object()) continue;
    for (const auto& [name, value] : block->fields) {
      if (value.is_number()) out[name] = value.number;
    }
  }
  return out;
}

}  // namespace

bool BenchDiffReport::ok() const { return num_regressions() == 0; }

size_t BenchDiffReport::num_regressions() const {
  size_t n = 0;
  for (const BenchDiffEntry& e : metrics) n += e.regression ? 1 : 0;
  return n;
}

std::string BenchDiffReport::Summary() const {
  std::ostringstream out;
  char buf[256];
  out << "bench_diff: " << bench << "\n";
  for (const BenchDiffEntry& e : metrics) {
    std::snprintf(buf, sizeof(buf), "  %-44s %14.6f %14.6f %+7.1f%% %s\n",
                  e.name.c_str(), e.baseline, e.current, e.delta_ratio * 100.0,
                  e.regression ? "REGRESSION" : "ok");
    out << buf;
  }
  for (const std::string& note : notes) out << "  note: " << note << "\n";
  std::snprintf(buf, sizeof(buf), "  %zu regression(s)\n", num_regressions());
  out << buf;
  return out.str();
}

Result<BenchDiffReport> DiffBenchReports(const std::string& baseline_json,
                                         const std::string& current_json) {
  AF_ASSIGN_OR_RETURN(JsonValue baseline, ParseJson(baseline_json));
  AF_ASSIGN_OR_RETURN(JsonValue current, ParseJson(current_json));

  AF_ASSIGN_OR_RETURN(std::string baseline_bench,
                      RequireString(baseline, "bench"));
  AF_ASSIGN_OR_RETURN(std::string current_bench,
                      RequireString(current, "bench"));
  if (baseline_bench != current_bench) {
    return Status::InvalidArgument("bench name mismatch: \"" + baseline_bench +
                                   "\" vs \"" + current_bench + "\"");
  }
  AF_ASSIGN_OR_RETURN(std::string baseline_mode,
                      RequireString(baseline, "mode"));
  AF_ASSIGN_OR_RETURN(std::string current_mode, RequireString(current, "mode"));
  if (baseline_mode != current_mode) {
    return Status::InvalidArgument("bench mode mismatch: \"" + baseline_mode +
                                   "\" vs \"" + current_mode + "\"");
  }

  BenchDiffReport report;
  report.bench = baseline_bench;

  auto baseline_metrics = CollectMetrics(baseline);
  auto current_metrics = CollectMetrics(current);
  for (const auto& [name, base_v] : baseline_metrics) {
    if (SkippedMetric(name)) continue;
    auto it = current_metrics.find(name);
    if (it == current_metrics.end()) {
      report.notes.push_back("metric only in baseline: " + name);
      continue;
    }
    BenchDiffEntry entry;
    entry.name = name;
    entry.baseline = base_v;
    entry.current = it->second;
    entry.delta_ratio = Ratio(base_v, it->second);
    entry.regression =
        (IsByteGauge(name) ? entry.delta_ratio
                           : std::abs(entry.delta_ratio)) >
        kMetricThreshold;
    report.metrics.push_back(std::move(entry));
  }
  for (const auto& [name, cur_v] : current_metrics) {
    (void)cur_v;
    if (SkippedMetric(name)) continue;
    if (baseline_metrics.find(name) == baseline_metrics.end()) {
      report.notes.push_back("metric only in current: " + name);
    }
  }

  return report;
}

}  // namespace autofeat::obs
