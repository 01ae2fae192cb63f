#include "obs/metrics.h"

namespace autofeat::obs {

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     bool deterministic) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& entry = entries_[name];
  if (entry.empty()) {
    entry.kind = MetricKind::kCounter;
    entry.deterministic = deterministic;
    entry.counter = std::make_unique<Counter>();
  }
  return entry.kind == MetricKind::kCounter ? entry.counter.get() : nullptr;
}

Gauge* MetricsRegistry::GetGauge(const std::string& name, bool deterministic) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& entry = entries_[name];
  if (entry.empty()) {
    entry.kind = MetricKind::kGauge;
    entry.deterministic = deterministic;
    entry.gauge = std::make_unique<Gauge>();
  }
  return entry.kind == MetricKind::kGauge ? entry.gauge.get() : nullptr;
}

QuantileHistogram* MetricsRegistry::GetQuantile(const std::string& name,
                                                bool deterministic) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& entry = entries_[name];
  if (entry.empty()) {
    entry.kind = MetricKind::kQuantile;
    entry.deterministic = deterministic;
    entry.quantile = std::make_unique<QuantileHistogram>();
  }
  return entry.kind == MetricKind::kQuantile ? entry.quantile.get() : nullptr;
}

uint64_t MetricsRegistry::CounterValue(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(name);
  if (it == entries_.end() || it->second.counter == nullptr) return 0;
  return it->second.counter->value();
}

int64_t MetricsRegistry::GaugeValue(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(name);
  if (it == entries_.end() || it->second.gauge == nullptr) return 0;
  return it->second.gauge->value();
}

uint64_t MetricsRegistry::QuantileCount(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(name);
  if (it == entries_.end() || it->second.quantile == nullptr) return 0;
  return it->second.quantile->count();
}

uint64_t MetricsRegistry::QuantileValueAt(const std::string& name,
                                          double q) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(name);
  if (it == entries_.end() || it->second.quantile == nullptr) return 0;
  return it->second.quantile->ValueAtQuantile(q);
}

size_t MetricsRegistry::num_metrics() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot snap;
  for (const auto& [name, entry] : entries_) {
    switch (entry.kind) {
      case MetricKind::kCounter:
        snap.counters.push_back(
            CounterSample{name, entry.deterministic, entry.counter->value()});
        break;
      case MetricKind::kGauge:
        snap.gauges.push_back(
            GaugeSample{name, entry.deterministic, entry.gauge->value()});
        break;
      case MetricKind::kQuantile: {
        const QuantileHistogram& q = *entry.quantile;
        QuantileSample sample;
        sample.name = name;
        sample.deterministic = entry.deterministic;
        sample.count = q.count();
        sample.sum = q.sum();
        sample.min = q.min();
        sample.max = q.max();
        sample.p50 = q.p50();
        sample.p90 = q.p90();
        sample.p99 = q.p99();
        sample.p999 = q.p999();
        snap.quantiles.push_back(std::move(sample));
        break;
      }
    }
  }
  return snap;
}

}  // namespace autofeat::obs
