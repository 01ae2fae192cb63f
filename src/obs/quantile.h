// The registry's one distribution kind: a mergeable fixed-precision
// histogram in the HDR-histogram style, used both for wall-clock latencies
// (serving SLOs, where a 9 ms and a 15 ms p99 must differ) and for
// deterministic work sizes (frontier sizes, key cardinalities, fold sizes).
//
// A QuantileHistogram keeps sub-bucket resolution inside every octave:
// values below kSubBucketCount are counted exactly, and every larger value
// v lands in the bucket of (v >> shift) where the shift keeps
// kSubBucketHalf sub-buckets per octave. Quantile queries walk the cumulative counts and
// return the bucket's *upper bound*, so the estimate never under-reports
// and is within a bounded relative error of the true rank statistic:
//
//     true <= ValueAtQuantile(q) <= true * (1 + 1/kSubBucketHalf)
//
// (1/32 ≈ 3.2% with the default layout). The bucket layout is a pure
// function of the value — never of the data distribution — so two
// histograms are *mergeable* by bucket-wise addition, and merging is
// associative and commutative: per-thread recorders fold into one
// process-wide distribution with no loss beyond the fixed precision.
//
// Thread safety: Record is lock-free (relaxed atomics per bucket);
// Merge/quantile queries read relaxed snapshots and are safe to call
// concurrently with recorders (a racing query sees some recent prefix of
// the updates, exact once recorders quiesce).
//
// Units are the caller's choice; latency series record nanoseconds (metric
// names carry a `_ns` suffix so report consumers can scale), work-size
// series record plain counts.

#ifndef AUTOFEAT_OBS_QUANTILE_H_
#define AUTOFEAT_OBS_QUANTILE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace autofeat::obs {

/// \brief Fixed-precision mergeable histogram with bounded-relative-error
/// quantile queries (p50/p90/p99/p999 and any q in [0, 1]).
class QuantileHistogram {
 public:
  /// Sub-bucket resolution: 2^6 = 64 exact low values, 32 sub-buckets per
  /// octave above, hence <= 1/32 relative error on every quantile.
  static constexpr size_t kSubBucketBits = 6;
  static constexpr size_t kSubBucketCount = size_t{1} << kSubBucketBits;
  static constexpr size_t kSubBucketHalf = kSubBucketCount / 2;
  /// Buckets covering the whole uint64 range: the exact region plus
  /// kSubBucketHalf buckets for each of the (64 - kSubBucketBits) octaves.
  static constexpr size_t kNumBuckets =
      kSubBucketCount + (64 - kSubBucketBits) * kSubBucketHalf;

  /// Bucket index of a value (total order, ascending in v).
  static size_t BucketOf(uint64_t v);

  /// Largest value mapping to bucket `b` — what quantile queries report.
  static uint64_t BucketUpperBound(size_t b);

  void Record(uint64_t v);

  /// Adds every recorded sample of `other` into this histogram
  /// (bucket-wise; associative and commutative).
  void Merge(const QuantileHistogram& other);

  /// The smallest bucket upper bound covering rank ceil(q * count) of the
  /// recorded distribution; 0 on an empty histogram. q is clamped to
  /// [0, 1]; q == 0 reports the first non-empty bucket (the minimum's
  /// bucket).
  uint64_t ValueAtQuantile(double q) const;

  uint64_t p50() const { return ValueAtQuantile(0.50); }
  uint64_t p90() const { return ValueAtQuantile(0.90); }
  uint64_t p99() const { return ValueAtQuantile(0.99); }
  uint64_t p999() const { return ValueAtQuantile(0.999); }

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Exact min/max of recorded values; min() is 0 when nothing was
  /// recorded.
  uint64_t min() const;
  uint64_t max() const { return max_.load(std::memory_order_relaxed); }
  uint64_t bucket(size_t b) const {
    return buckets_[b].load(std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_{UINT64_MAX};
  std::atomic<uint64_t> max_{0};
};

}  // namespace autofeat::obs

#endif  // AUTOFEAT_OBS_QUANTILE_H_
