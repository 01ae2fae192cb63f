// Precomputed column profiles for DRG construction, with an optional
// memory budget enforced by LRU eviction + rebuild-on-miss.
//
// All-pairs joinability matching is quadratic in the number of tables, and
// the naive formulation re-scans (and re-sketches) each column once per
// table pair it participates in. A LakeSketchCache computes every column's
// profile once per residency — in parallel over tables when a ThreadPool is
// given — so pair scoring degenerates to merge-intersections over cached
// profiles.
//
// A profile is the sorted bottom-k of one specified value hash over the
// column's distinct key spellings (Column::WriteKey), so int64 7 and
// double 7.0 share a hash. Pair scoring and LSH (lsh_index.h) both read it,
// so no value is hashed twice. Bottom-k keeps the *same* values on both
// sides of any comparison, so containment/Jaccard estimates are stable
// under sampling.
//
// The budget, pins, eviction order, thread safety and byte gauges are
// BudgetedCache's (discovery/budgeted_cache.h). Entries are keyed by table
// name and built from the Table the caller passes, so the cache is bound to
// no lake; a caller whose table changes under the same name must
// Invalidate it, as the serving layer does on append and drop. Profiles
// are pure functions of (table contents, max_sample), so rebuilds are
// byte-identical and eviction never changes the discovered DRG.

#ifndef AUTOFEAT_DISCOVERY_SKETCH_CACHE_H_
#define AUTOFEAT_DISCOVERY_SKETCH_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "discovery/budgeted_cache.h"
#include "obs/metrics.h"
#include "table/table.h"
#include "util/rng.h"

namespace autofeat {

class DataLake;
class ThreadPool;

/// The value hash every profile is built from: FNV-1a of the cell's key
/// spelling (the text Column::KeyAt returns, written on the stack) through
/// the splitmix64 finaliser. FNV-1a's high bits depend on a key's last bytes
/// almost linearly, so ranking short keys ("101", "102", ...) by raw FNV-1a
/// keeps them by spelling, not at random; the finaliser avalanches every
/// input bit, which makes the bottom-k a uniform sample of the distinct
/// keys.
inline uint64_t SketchValueHash(std::string_view key) {
  return DeriveSeed(Fnv1a64(key), 0);
}

/// \brief Hash-native distinct-value profile of one column.
struct ColumnSketch {
  /// The `max_sample` smallest distinct SketchValueHash values over the
  /// column's non-null keys, ascending.
  std::vector<uint64_t> hashes;
  /// Distinct non-null hashes before the cut (for the low-cardinality
  /// evidence discount, which needs the true count, not the sample size).
  /// Equals the exact distinct key count unless two keys collide in 64
  /// bits.
  size_t num_distinct = 0;

  /// Heap footprint in bytes. Size-based (not capacity), so equal content
  /// reports equal bytes and the `sketch_cache.bytes` gauge stays
  /// deterministic.
  size_t ApproxBytes() const {
    return sizeof(ColumnSketch) + hashes.size() * sizeof(uint64_t);
  }
};

/// Builds the profile of a single column: hash every non-null key, sort,
/// deduplicate, keep the smallest `max_sample`.
ColumnSketch BuildColumnSketch(const Column& col, size_t max_sample);

/// Profiles of every column of `table`, in column order.
std::vector<ColumnSketch> SketchTable(const Table& table, size_t max_sample);

/// Containment |A ∩ B| / min(|A|, |B|) of two sketches (0 if either empty).
double SketchContainment(const ColumnSketch& a, const ColumnSketch& b);

/// Jaccard |A ∩ B| / |A ∪ B| of two sketches (0 if both empty).
double SketchJaccard(const ColumnSketch& a, const ColumnSketch& b);

/// \brief Budget-aware cache of every lake column's sketch, one entry per
/// table (columns of a table share value scans' cache locality), keyed by
/// table name.
class LakeSketchCache {
 public:
  /// A pinned per-table entry (sketches aligned with the table's column
  /// order): stays valid across eviction until the caller drops it.
  using TableSketchesPin = std::shared_ptr<const std::vector<ColumnSketch>>;

  /// `budget_bytes` bounds the resident footprint (0 = unbounded). A
  /// non-null `metrics` counts `sketch_cache.builds` (column sketches first
  /// computed — deterministic) plus the schedule-dependent
  /// `sketch_cache.rebuilds` / `sketch_cache.evictions` counters and
  /// `sketch_cache.bytes` / `.bytes_peak` gauges (all registered
  /// non-deterministic, as in JoinIndexCache).
  explicit LakeSketchCache(size_t max_sample,
                           obs::MetricsRegistry* metrics = nullptr,
                           size_t budget_bytes = 0);

  /// Compatibility builder: constructs a cache and prewarms every table of
  /// `lake` (fanning out over `pool` when given; per-table sketching
  /// records `sketch.table` worker spans into the pool's attached tracer).
  static LakeSketchCache Build(const DataLake& lake, size_t max_sample,
                               ThreadPool* pool = nullptr,
                               obs::MetricsRegistry* metrics = nullptr,
                               size_t budget_bytes = 0);

  /// The sketches of `table`, built on first request and rebuilt after
  /// eviction. Thread-safe; concurrent requests build once.
  TableSketchesPin GetOrBuild(const Table& table);

  /// Builds every table's entry of `lake` (one shared batch recency tick,
  /// as JoinIndexCache::Prewarm).
  void PrewarmAll(const DataLake& lake, ThreadPool* pool = nullptr);

  /// Erases `table`'s entry and returns its bytes to the gauge; the next
  /// GetOrBuild sketches the table afresh. Outstanding pins stay valid.
  void Invalidate(const std::string& table) { cache_.EraseTable(table); }

  /// Attaches a structured event log: evictions append `cache_evict` and
  /// post-eviction rebuilds append `cache_rebuild` events (obs/event_log.h).
  /// Call before the cache is shared across threads.
  void set_event_log(obs::EventLog* log) { cache_.set_event_log(log); }

  /// Evicts every resident entry. Outstanding pins stay valid.
  void EvictAll() { cache_.EvictAll(); }

  /// Entries currently holding built sketches.
  size_t num_resident() const { return cache_.num_resident(); }
  /// Sum of the resident entries' ApproxBytes.
  size_t resident_bytes() const { return cache_.resident_bytes(); }

 private:
  using Sketches = std::vector<ColumnSketch>;

  TableSketchesPin GetOrBuildWithTick(const Table& table, uint64_t tick,
                                      ThreadPool* pool);

  size_t max_sample_ = 0;
  BudgetedCache<Sketches> cache_;
};

}  // namespace autofeat

#endif  // AUTOFEAT_DISCOVERY_SKETCH_CACHE_H_
