#include "obs/prometheus.h"

#include <cctype>
#include <sstream>

namespace autofeat::obs {

namespace {

std::string Sanitize(const std::string& name) {
  std::string out = "autofeat_";
  for (char c : name) {
    unsigned char u = static_cast<unsigned char>(c);
    out.push_back(std::isalnum(u) || c == '_' ? c : '_');
  }
  return out;
}

}  // namespace

std::string PrometheusText(const MetricsRegistry& metrics) {
  MetricsSnapshot snap = metrics.Snapshot();
  std::ostringstream out;

  for (const CounterSample& c : snap.counters) {
    std::string n = Sanitize(c.name);
    out << "# TYPE " << n << " counter\n" << n << " " << c.value << "\n";
  }
  for (const GaugeSample& g : snap.gauges) {
    std::string n = Sanitize(g.name);
    out << "# TYPE " << n << " gauge\n" << n << " " << g.value << "\n";
  }
  for (const QuantileSample& q : snap.quantiles) {
    std::string n = Sanitize(q.name);
    out << "# TYPE " << n << " summary\n";
    out << n << "{quantile=\"0.5\"} " << q.p50 << "\n";
    out << n << "{quantile=\"0.9\"} " << q.p90 << "\n";
    out << n << "{quantile=\"0.99\"} " << q.p99 << "\n";
    out << n << "{quantile=\"0.999\"} " << q.p999 << "\n";
    out << n << "_sum " << q.sum << "\n";
    out << n << "_count " << q.count << "\n";
  }
  return out.str();
}

}  // namespace autofeat::obs
