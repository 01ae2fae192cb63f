// Prometheus-style text exposition of a MetricsRegistry.
//
// One function renders a point-in-time snapshot in the Prometheus text
// format (version 0.0.4): counters and gauges as single samples, and
// QuantileHistograms as summaries with `{quantile="0.5|0.9|0.99|0.999"}`
// labels plus `_sum`/`_count`. Metric names are prefixed `autofeat_` and
// sanitized to the Prometheus charset (`[a-zA-Z0-9_]`, dots become
// underscores), so `serve.query_latency_ns` exposes as
// `autofeat_serve_query_latency_ns`.
//
// This is an exposition of *current values*, not a scrape endpoint: the
// daemon writes it on demand (`metrics` command) or at exit
// (`--metrics-text FILE`), and a node_exporter-style textfile collector
// can pick the file up.

#ifndef AUTOFEAT_OBS_PROMETHEUS_H_
#define AUTOFEAT_OBS_PROMETHEUS_H_

#include <string>

#include "obs/metrics.h"

namespace autofeat::obs {

/// Renders every registered metric in the Prometheus text format.
std::string PrometheusText(const MetricsRegistry& metrics);

}  // namespace autofeat::obs

#endif  // AUTOFEAT_OBS_PROMETHEUS_H_
