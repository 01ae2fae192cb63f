// The memoising, memory-budgeted cache core shared by the lake-wide caches
// (JoinIndexCache: join-key indexes; LakeSketchCache: column sketches).
// Each of those is a thin adapter that supplies only how to build a value,
// what it costs, and its metric name.
//
// Keys name a lake table ("orders") or one of its columns ("orders" + '\0'
// + "cust"). The table part is what EraseTable and CarryOver match on and
// what the cache_evict / cache_rebuild events report. Every value must be a
// pure function of its key and the adapter's fixed inputs (table contents,
// seed, sample size) — never of build interleaving or the eviction
// schedule — so an evicted entry rebuilds byte-identically and results are
// eviction-oblivious (the `cache.eviction_oblivious` fuzzer invariant).
//
// Memory budget: with budget_bytes > 0 the resident entries stay within the
// budget. Each insertion first evicts the least-recently-used entries; among
// entries with the same recency tick (one batch, see NextTick) the largest
// footprint goes first — the most bytes reclaimed per rebuild risked — and
// the key breaks the remaining ties. An entry larger than the whole budget
// is handed to the caller but never becomes resident (pin-only admission),
// so the `bytes` gauge never exceeds the budget.
//
// Callers hold entries through shared_ptr pins, so an entry evicted while a
// worker still reads it stays alive until the last pin drops; the budget
// bounds what eviction can actually reclaim.
//
// Thread safety: GetOrBuild may be called concurrently; concurrent requests
// for one key build it once (a per-entry build mutex serialises builders,
// latecomers count as hits). Lock order: a build mutex may acquire the
// cache mutex, never the reverse — eviction takes only the cache mutex, so
// it cannot deadlock against builders. A failed build is sticky: later
// requests return the same Status without rebuilding.
//
// Metrics, for a cache named N: `N_cache.builds` counts first-time builds
// (weighted by Built::work) and `N_cache.requests` (when counted) every
// request — both workload-determined and deterministic. `.hits`,
// `.rebuilds`, `.evictions` and the `.bytes` / `.bytes_peak` gauges depend
// on the eviction schedule and are registered non-deterministic, so the obs
// digest is the same with and without eviction. A cache returns its
// resident bytes to the gauge when destroyed, so `.bytes` always equals the
// sum of resident_bytes() over the live caches sharing the registry.

#ifndef AUTOFEAT_DISCOVERY_BUDGETED_CACHE_H_
#define AUTOFEAT_DISCOVERY_BUDGETED_CACHE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/event_log.h"
#include "obs/memory.h"
#include "obs/metrics.h"
#include "util/rng.h"
#include "util/status.h"

namespace autofeat {

/// \brief Thread-safe key -> shared immutable Value cache with a byte
/// budget, cost-aware LRU eviction and rebuild-on-miss.
template <typename Value>
class BudgetedCache {
 public:
  /// A pinned entry: stays valid across eviction until the caller drops it.
  using Pin = std::shared_ptr<const Value>;

  /// What a build function returns.
  struct Built {
    Pin value;
    /// Footprint charged against the budget (size-based, so equal content
    /// costs equal bytes).
    size_t bytes = 0;
    /// Added to the builds / rebuilds counters (e.g. columns sketched).
    uint64_t work = 1;
  };

  /// `name` prefixes the metrics (`<name>_cache.*`) and is the `cache`
  /// field of the events. `budget_bytes` bounds the resident footprint
  /// (0 = unbounded). `count_requests` also registers the `.requests` and
  /// `.hits` counters.
  BudgetedCache(std::string name, obs::MetricsRegistry* metrics,
                size_t budget_bytes, bool count_requests)
      : name_(std::move(name)),
        budget_bytes_(budget_bytes),
        requests_(count_requests
                      ? obs::GetCounter(metrics, name_ + "_cache.requests")
                      : nullptr),
        builds_(obs::GetCounter(metrics, name_ + "_cache.builds")),
        hits_(count_requests ? obs::GetCounter(metrics, name_ + "_cache.hits",
                                               /*deterministic=*/false)
                             : nullptr),
        rebuilds_(obs::GetCounter(metrics, name_ + "_cache.rebuilds",
                                  /*deterministic=*/false)),
        evictions_(obs::GetCounter(metrics, name_ + "_cache.evictions",
                                   /*deterministic=*/false)),
        bytes_(obs::GetGauge(metrics, name_ + "_cache.bytes",
                             /*deterministic=*/false)),
        bytes_peak_(obs::GetGauge(metrics, name_ + "_cache.bytes_peak",
                                  /*deterministic=*/false)),
        state_(std::make_unique<State>()) {}

  /// Returns the resident bytes to the `.bytes` gauge (a moved-from cache
  /// holds nothing and returns nothing).
  ~BudgetedCache() {
    if (state_ != nullptr) {
      Account(-static_cast<int64_t>(state_->resident_bytes));
    }
  }
  BudgetedCache(BudgetedCache&&) noexcept = default;
  BudgetedCache& operator=(BudgetedCache&&) = delete;

  /// Attaches a structured event log: evictions append `cache_evict` and
  /// post-eviction rebuilds append `cache_rebuild` events. Call before the
  /// cache is shared across threads.
  void set_event_log(obs::EventLog* log) { event_log_ = log; }

  /// A fresh recency tick. Pass it to every GetOrBuild of one batch so the
  /// batch's entries are equally recent and the cost-aware tie-break orders
  /// their eviction.
  uint64_t NextTick() {
    std::lock_guard<std::mutex> lock(state_->mutex);
    return ++state_->tick;
  }

  /// The value of `key`: resident, or built by `build(bool rebuild)` — a
  /// callable returning Result<Built>, run with only this entry's build
  /// mutex held — on first request and after eviction. A build failure is
  /// sticky. `tick` 0 stamps the request with a fresh recency tick.
  template <typename BuildFn>
  Result<Pin> GetOrBuild(const std::string& key, BuildFn&& build,
                         uint64_t tick = 0) {
    obs::Increment(requests_);
    State& st = *state_;
    std::shared_ptr<Entry> entry;
    {
      std::lock_guard<std::mutex> lock(st.mutex);
      if (tick == 0) tick = ++st.tick;
      std::shared_ptr<Entry>& slot = st.entries[key];
      if (slot == nullptr) slot = std::make_shared<Entry>();
      slot->last_used = std::max(slot->last_used, tick);
      entry = slot;
      if (entry->value != nullptr || entry->failed) return HitLocked(*entry);
    }

    // Miss: serialise builders of this entry; latecomers re-check and count
    // as hits. The build itself runs with only build_mutex held, so distinct
    // keys build concurrently.
    std::lock_guard<std::mutex> build_lock(entry->build_mutex);
    bool rebuild = false;
    {
      std::lock_guard<std::mutex> lock(st.mutex);
      if (entry->value != nullptr || entry->failed) return HitLocked(*entry);
      rebuild = entry->ever_built;
    }
    Result<Built> built = build(rebuild);

    std::lock_guard<std::mutex> lock(st.mutex);
    if (!built.ok()) {
      entry->failed = true;
      entry->failure = built.status();
      if (!entry->ever_built) {
        entry->ever_built = true;
        obs::Increment(builds_);
      }
      return entry->failure;
    }
    if (!rebuild) {
      entry->ever_built = true;
      obs::Increment(builds_, built->work);
    } else {
      obs::Increment(rebuilds_, built->work);
      AppendEvent("cache_rebuild", key, built->bytes);
    }
    if (!entry->erased &&
        (budget_bytes_ == 0 || built->bytes <= budget_bytes_)) {
      InstallLocked(entry.get(), built->value, built->bytes);
    }
    return built->value;
  }

  /// Installs the resident entries of `prev` whose table `keep(table)`
  /// accepts; the serving layer's per-epoch join cache is its one user. The
  /// caller guarantees both caches build equal values for equal keys.
  /// Entries keep prev's recency order, carried failures are not (they
  /// re-resolve), and this cache's budget holds. Call before publishing
  /// this cache; `prev` may be serving concurrent readers. Returns the
  /// number of entries installed.
  template <typename Keep>
  size_t CarryOver(const BudgetedCache& prev, Keep&& keep) {
    // Snapshot the survivors under prev's lock, then install under ours —
    // never both at once (no lock-order relationship between two caches).
    struct Carried {
      std::string key;
      Pin value;
      size_t bytes;
      uint64_t last_used;
    };
    std::vector<Carried> carried;
    uint64_t prev_tick = 0;
    {
      std::lock_guard<std::mutex> lock(prev.state_->mutex);
      prev_tick = prev.state_->tick;
      for (const auto& [key, entry] : prev.state_->entries) {
        if (entry->value == nullptr) continue;
        carried.push_back(
            {key, entry->value, entry->bytes, entry->last_used});
      }
    }
    // Filtered outside prev's lock: `keep` is the caller's code.
    carried.erase(std::remove_if(carried.begin(), carried.end(),
                                 [&](const Carried& c) {
                                   return !keep(
                                       c.key.substr(0, c.key.find('\0')));
                                 }),
                  carried.end());
    // Most recently used installed last, so budget eviction (LRU) sheds the
    // least recently used survivors first, preserving prev's recency order.
    std::sort(carried.begin(), carried.end(),
              [](const Carried& a, const Carried& b) {
                return a.last_used != b.last_used ? a.last_used < b.last_used
                                                  : a.key < b.key;
              });
    State& st = *state_;
    std::lock_guard<std::mutex> lock(st.mutex);
    st.tick = std::max(st.tick, prev_tick);
    size_t installed = 0;
    for (Carried& c : carried) {
      if (budget_bytes_ != 0 && c.bytes > budget_bytes_) continue;
      std::shared_ptr<Entry>& slot = st.entries[c.key];
      if (slot == nullptr) slot = std::make_shared<Entry>();
      if (slot->value != nullptr) continue;
      InstallLocked(slot.get(), std::move(c.value), c.bytes);
      slot->last_used = c.last_used;
      slot->ever_built = true;
      ++installed;
    }
    return installed;
  }

  /// Erases every entry of `table` and returns their bytes to the gauge.
  /// Pins stay valid, the next request counts as a first build, and a build
  /// still running is handed to its caller but not installed.
  void EraseTable(const std::string& table) {
    std::lock_guard<std::mutex> lock(state_->mutex);
    std::erase_if(state_->entries, [&](const auto& item) {
      const auto& [key, entry] = item;
      if (key.compare(0, key.find('\0'), table) != 0) return false;
      state_->resident_bytes -= entry->bytes;
      Account(-static_cast<int64_t>(entry->bytes));
      entry->erased = true;
      return true;
    });
  }

  /// Evicts every resident entry. Outstanding pins stay valid.
  void EvictAll() {
    std::lock_guard<std::mutex> lock(state_->mutex);
    for (auto& [key, entry] : state_->entries) {
      if (entry->value != nullptr) EvictLocked(key, entry.get());
    }
  }

  /// Evicts the resident entries whose FNV-1a key hash (stable across
  /// standard libraries, unlike std::hash) differs from `draw` in the low
  /// bit — a deterministic function of (resident set, draw); `draw` and
  /// `draw ^ 1` evict complementary halves.
  void EvictRandomHalf(uint64_t draw) {
    std::lock_guard<std::mutex> lock(state_->mutex);
    for (auto& [key, entry] : state_->entries) {
      if (entry->value != nullptr && ((Fnv1a64(key) ^ draw) & 1) != 0) {
        EvictLocked(key, entry.get());
      }
    }
  }

  /// Entries ever created (resident, evicted or failed).
  size_t num_entries() const {
    std::lock_guard<std::mutex> lock(state_->mutex);
    return state_->entries.size();
  }
  /// Entries currently holding a value.
  size_t num_resident() const {
    std::lock_guard<std::mutex> lock(state_->mutex);
    size_t resident = 0;
    for (const auto& [key, entry] : state_->entries) {
      resident += entry->value != nullptr ? 1 : 0;
    }
    return resident;
  }
  /// Sum of the resident entries' bytes (this cache's share of the gauge).
  size_t resident_bytes() const {
    std::lock_guard<std::mutex> lock(state_->mutex);
    return state_->resident_bytes;
  }

 private:
  struct Entry {
    std::mutex build_mutex;  // serialises builders; see lock order above
    // Guarded by State::mutex:
    Pin value;               // null when not built or evicted
    size_t bytes = 0;        // footprint of `value` while resident
    uint64_t last_used = 0;  // recency tick of the latest request
    bool ever_built = false; // distinguishes builds from rebuilds
    bool failed = false;
    bool erased = false;     // dropped from the map by EraseTable
    Status failure;          // sticky build failure
  };
  // Behind a unique_ptr so the cache stays movable (mutexes are not).
  struct State {
    mutable std::mutex mutex;
    std::unordered_map<std::string, std::shared_ptr<Entry>> entries;
    size_t resident_bytes = 0;
    uint64_t tick = 0;
  };

  void Account(int64_t delta) {
    obs::AddBytesWithPeak(bytes_, bytes_peak_, delta);
  }

  void AppendEvent(const char* type, const std::string& key, size_t bytes) {
    if (event_log_ == nullptr) return;
    const size_t sep = key.find('\0');
    if (sep == std::string::npos) {
      event_log_->Append(
          type, {{"cache", name_}, {"table", key}, {"bytes", bytes}});
    } else {
      event_log_->Append(type, {{"cache", name_},
                                {"table", key.substr(0, sep)},
                                {"column", key.substr(sep + 1)},
                                {"bytes", bytes}});
    }
  }

  // A resolved entry (value or sticky failure) answers the request as a
  // hit. Caller holds the cache mutex.
  Result<Pin> HitLocked(const Entry& entry) {
    obs::Increment(hits_);
    if (entry.value != nullptr) return entry.value;
    return entry.failure;
  }

  // Makes `entry` resident with `value`, evicting others first so the
  // budget holds. Caller holds the cache mutex and checked admission.
  void InstallLocked(Entry* entry, Pin value, size_t bytes) {
    EvictForLocked(bytes, entry);
    entry->value = std::move(value);
    entry->bytes = bytes;
    state_->resident_bytes += bytes;
    Account(static_cast<int64_t>(bytes));
  }

  void EvictLocked(const std::string& key, Entry* entry) {
    state_->resident_bytes -= entry->bytes;
    Account(-static_cast<int64_t>(entry->bytes));
    AppendEvent("cache_evict", key, entry->bytes);
    entry->value.reset();
    entry->bytes = 0;
    obs::Increment(evictions_);
  }

  // Drops resident entries (skipping `keep`) until resident_bytes +
  // incoming fits the budget. Victim order: last_used asc, bytes desc, key
  // asc. Caller holds the cache mutex.
  void EvictForLocked(size_t incoming, const Entry* keep) {
    if (budget_bytes_ == 0) return;
    while (state_->resident_bytes + incoming > budget_bytes_) {
      Entry* victim = nullptr;
      const std::string* victim_key = nullptr;
      for (const auto& [key, entry] : state_->entries) {
        if (entry->value == nullptr || entry.get() == keep) continue;
        if (victim == nullptr || entry->last_used < victim->last_used ||
            (entry->last_used == victim->last_used &&
             (entry->bytes > victim->bytes ||
              (entry->bytes == victim->bytes && key < *victim_key)))) {
          victim = entry.get();
          victim_key = &key;
        }
      }
      if (victim == nullptr) break;  // everything left is `keep`
      EvictLocked(*victim_key, victim);
    }
  }

  std::string name_;
  size_t budget_bytes_;
  obs::EventLog* event_log_ = nullptr;
  obs::Counter* requests_;
  obs::Counter* builds_;
  obs::Counter* hits_;
  obs::Counter* rebuilds_;
  obs::Counter* evictions_;
  obs::Gauge* bytes_;
  obs::Gauge* bytes_peak_;
  std::unique_ptr<State> state_;
};

}  // namespace autofeat

#endif  // AUTOFEAT_DISCOVERY_BUDGETED_CACHE_H_
