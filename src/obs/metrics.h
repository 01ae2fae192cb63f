// Zero-dependency metrics substrate for the observability layer.
//
// A MetricsRegistry names three metric kinds: monotonic Counters, last-value
// Gauges, and QuantileHistograms (obs/quantile.h) for distributions. All
// update paths are lock-free atomics, safe to hit from ThreadPool workers;
// the registry map itself is mutex-protected, so components resolve their
// metric handles once (construction time) and increment through the handle
// on the hot path.
//
// Disabled-path contract: the whole library threads a *nullable*
// MetricsRegistry pointer through its layers. Every helper below
// null-propagates — a null registry yields null handles and Increment/Record
// on a null handle is a single predictable branch — so AutoFeatConfig::
// metrics_enabled = false costs one untaken branch per instrumentation
// point, nothing else.
//
// Determinism contract: a metric is registered as *deterministic* when its
// final value is a pure function of (inputs, seed) — independent of thread
// count and scheduling. Scheduling-dependent series (the thread-pool queue
// stats) are registered with deterministic = false and are excluded from the
// report digest (see obs/report.h).

#ifndef AUTOFEAT_OBS_METRICS_H_
#define AUTOFEAT_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/quantile.h"

namespace autofeat::obs {

/// \brief Monotonically increasing event count.
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// \brief Last-value (or running max) instantaneous measurement.
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  /// Raises the gauge to `v` if larger (peak tracking).
  void UpdateMax(int64_t v) {
    int64_t cur = value_.load(std::memory_order_relaxed);
    while (v > cur &&
           !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

enum class MetricKind { kCounter, kGauge, kQuantile };

struct CounterSample {
  std::string name;
  bool deterministic = true;
  uint64_t value = 0;
};

struct GaugeSample {
  std::string name;
  bool deterministic = true;
  int64_t value = 0;
};

/// Point-in-time copy of one quantile histogram (obs/quantile.h): the
/// summary stats plus the four serving-grade quantiles.
struct QuantileSample {
  std::string name;
  bool deterministic = true;
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t min = 0;
  uint64_t max = 0;
  uint64_t p50 = 0;
  uint64_t p90 = 0;
  uint64_t p99 = 0;
  uint64_t p999 = 0;
};

/// Name-sorted copy of every registered metric.
struct MetricsSnapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<QuantileSample> quantiles;
};

/// \brief Thread-safe name -> metric registry.
///
/// Metric naming scheme: `<component>.<event>` in snake_case, e.g.
/// `join_index_cache.hits`, `discovery.frontier_size`. Components own their
/// prefix; the registry enforces nothing but name/kind consistency.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Finds or creates the named metric. The returned pointer is stable for
  /// the registry's lifetime. Requesting an existing name under a different
  /// kind returns nullptr (the misuse surfaces as a missing metric, never as
  /// type confusion). The `deterministic` flag is fixed on first creation.
  Counter* GetCounter(const std::string& name, bool deterministic = true);
  Gauge* GetGauge(const std::string& name, bool deterministic = true);
  /// Latency-style distributions are wall-clock derived, so quantile
  /// histograms default to non-deterministic (excluded from the digest);
  /// work-size distributions (frontier sizes, key cardinalities) pass true.
  QuantileHistogram* GetQuantile(const std::string& name,
                                 bool deterministic = false);

  /// Snapshot reads; 0 when the metric does not exist (or is another kind).
  uint64_t CounterValue(const std::string& name) const;
  int64_t GaugeValue(const std::string& name) const;
  /// QuantileHistogram reads with the same missing-is-zero contract.
  uint64_t QuantileCount(const std::string& name) const;
  uint64_t QuantileValueAt(const std::string& name, double q) const;

  size_t num_metrics() const;

  MetricsSnapshot Snapshot() const;

 private:
  struct Entry {
    MetricKind kind = MetricKind::kCounter;
    bool deterministic = true;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<QuantileHistogram> quantile;

    bool empty() const {
      return counter == nullptr && gauge == nullptr && quantile == nullptr;
    }
  };

  mutable std::mutex mutex_;
  // std::map: node stability for handed-out pointers + name-sorted snapshots.
  std::map<std::string, Entry> entries_;
};

/// Null-propagating handle resolution: components keep one line per metric.
inline Counter* GetCounter(MetricsRegistry* registry, const std::string& name,
                           bool deterministic = true) {
  return registry != nullptr ? registry->GetCounter(name, deterministic)
                             : nullptr;
}
inline Gauge* GetGauge(MetricsRegistry* registry, const std::string& name,
                       bool deterministic = true) {
  return registry != nullptr ? registry->GetGauge(name, deterministic)
                             : nullptr;
}
inline QuantileHistogram* GetQuantile(MetricsRegistry* registry,
                                      const std::string& name,
                                      bool deterministic = false) {
  return registry != nullptr ? registry->GetQuantile(name, deterministic)
                             : nullptr;
}

/// Null-safe update helpers — the disabled path is this one branch.
inline void Increment(Counter* counter, uint64_t n = 1) {
  if (counter != nullptr) counter->Increment(n);
}
inline void Set(Gauge* gauge, int64_t v) {
  if (gauge != nullptr) gauge->Set(v);
}
inline void UpdateMax(Gauge* gauge, int64_t v) {
  if (gauge != nullptr) gauge->UpdateMax(v);
}
inline void Record(QuantileHistogram* quantile, uint64_t v) {
  if (quantile != nullptr) quantile->Record(v);
}

}  // namespace autofeat::obs

#endif  // AUTOFEAT_OBS_METRICS_H_
