// Lake-wide cache of interned join-key indexes, with an optional memory
// budget enforced by cost-aware LRU eviction.
//
// Every BFS candidate edge, top-k materialisation and baseline join probes
// some lake table on some key column. Before this cache each probe re-hashed
// the right key column from scratch; now the dictionary + CSR index + the
// deterministic cardinality-normalisation representative for a given
// (table, key column) pair are built at most once per residency — across the
// discovery frontier, the ML evaluation stage and the ARDA/MAB/JoinAll
// baselines, and across threads (sibling of LakeSketchCache, which plays
// the same role for DRG construction).
//
// The budget, pins, eviction order, thread safety and byte gauges are
// BudgetedCache's (discovery/budgeted_cache.h), keyed by "table\0column".
// Every entry is a pure function of (table contents, column, seed), so
// rebuilds after eviction are byte-identical. Metrics: `requests` and
// `builds` are deterministic; `hits`, `rebuilds`, `evictions` and the byte
// gauges depend on the eviction schedule. `key_cardinality` records only
// first-time builds (rebuilds reproduce the same index).

#ifndef AUTOFEAT_DISCOVERY_JOIN_INDEX_CACHE_H_
#define AUTOFEAT_DISCOVERY_JOIN_INDEX_CACHE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "discovery/budgeted_cache.h"
#include "obs/metrics.h"
#include "relational/join_index.h"
#include "util/status.h"

namespace autofeat {

namespace obs {
class Tracer;
}  // namespace obs

class DataLake;
class DatasetRelationGraph;
class ThreadPool;

/// \brief Thread-safe (table, key column) -> JoinKeyIndex cache over a lake,
/// optionally bounded by a byte budget with LRU eviction + rebuild-on-miss.
class JoinIndexCache {
 public:
  /// A pinned cache entry: keeps the index alive across eviction until the
  /// caller drops it.
  using IndexPin = std::shared_ptr<const JoinKeyIndex>;

  /// `lake` must outlive the cache. `seed` fixes the representative-row
  /// draws; two caches with the same seed over the same lake build
  /// interchangeable entries (eviction + rebuild reproduces them exactly).
  /// `budget_bytes` bounds the resident footprint (0 = unbounded). A
  /// non-null `metrics` records the counters/gauges described in the file
  /// comment. A non-null `tracer` records each index build as a
  /// `join_index.build` worker span.
  JoinIndexCache(const DataLake* lake, uint64_t seed,
                 obs::MetricsRegistry* metrics = nullptr,
                 obs::Tracer* tracer = nullptr, size_t budget_bytes = 0);

  /// The index of `table`.`column`, built on first request and rebuilt
  /// after eviction. The returned pin stays valid for as long as the caller
  /// holds it. Fails if the table or column does not exist.
  Result<IndexPin> GetOrBuild(const std::string& table,
                              const std::string& column);

  /// The part of a DRG one discovery can join into: every edge leaving a
  /// node within `max_hops - 1` hops of `base_node` (a path of `max_hops`
  /// hops extends only from shorter paths).
  struct Reach {
    size_t base_node = 0;
    size_t max_hops = 0;
  };

  /// Builds the index of every join target (to_node, to_column) of the
  /// edges in `reach` up front, or of every edge in `drg` when no reach is
  /// given, fanning out over `pool` when given. Purely an optimisation:
  /// lazy GetOrBuild fills any entry Prewarm missed or the budget evicted.
  /// All prewarmed entries share one recency tick (they are one batch), so
  /// under a budget the largest are evicted first.
  void Prewarm(const DatasetRelationGraph& drg, ThreadPool* pool = nullptr,
               std::optional<Reach> reach = std::nullopt);

  /// Copies the resident entries of `prev` whose table is neither
  /// `touched_table` nor absent from this cache's lake — the serving
  /// layer's precise invalidation: a mutation touching one table evicts
  /// exactly that table's entries from the next snapshot's cache, and
  /// every other entry survives by pointer copy. Both caches must share
  /// the seed (entries are pure functions of (table contents, column,
  /// seed); with differing seeds nothing is carried). Sticky failures are
  /// not carried — they re-resolve against the new lake. Respects this
  /// cache's budget. Call before publishing the cache; `prev` may be
  /// serving concurrent readers. Returns the number of entries installed
  /// (the serving layer's epoch-lineage carry-over count).
  size_t CarryOver(const JoinIndexCache& prev,
                   const std::string& touched_table);

  /// Attaches a structured event log: evictions append `cache_evict` and
  /// post-eviction rebuilds append `cache_rebuild` events (obs/event_log.h).
  /// Call before the cache is shared across threads.
  void set_event_log(obs::EventLog* log) { cache_.set_event_log(log); }

  /// Evicts every resident entry (the adversarial stress schedule of the
  /// eviction-obliviousness invariant). Outstanding pins stay valid.
  void EvictAll() { cache_.EvictAll(); }

  /// Evicts a deterministic half of the resident entries chosen by `draw`
  /// (the seeded random eviction-stress schedule).
  void EvictRandomHalf(uint64_t draw) { cache_.EvictRandomHalf(draw); }

  /// Entries ever created (resident or evicted).
  size_t num_entries() const { return cache_.num_entries(); }
  /// Entries currently holding a built index.
  size_t num_resident() const { return cache_.num_resident(); }
  /// Sum of the resident entries' ApproxBytes.
  size_t resident_bytes() const { return cache_.resident_bytes(); }

 private:
  Result<IndexPin> GetOrBuildWithTick(const std::string& table,
                                      const std::string& column,
                                      uint64_t tick);

  const DataLake* lake_;
  uint64_t seed_;
  obs::Tracer* tracer_;
  obs::QuantileHistogram* key_cardinality_;
  BudgetedCache<JoinKeyIndex> cache_;
};

}  // namespace autofeat

#endif  // AUTOFEAT_DISCOVERY_JOIN_INDEX_CACHE_H_
