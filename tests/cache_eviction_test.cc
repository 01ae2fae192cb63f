// Memory-budgeted caching. The generic semantics — LRU order and the
// cost-aware tie-break within one batch tick, pin-only admission and the
// budget bound, pins outliving eviction, the deterministic EvictRandomHalf,
// CarryOver, sticky failures and the byte gauges — are tested once against
// BudgetedCache with a toy value type. The adapter suites (JoinIndexCache,
// LakeSketchCache) check only what the adapters add: rebuilds reproduce the
// identical entry, and the ApproxBytes accounting audit.
//
// The concurrent stress test is the TSan target: workers hammer GetOrBuild
// while other workers run the adversarial eviction schedules (EvictAll /
// EvictRandomHalf) underneath them.

#include <atomic>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/lake_builder.h"
#include "discovery/budgeted_cache.h"
#include "discovery/data_lake.h"
#include "discovery/join_index_cache.h"
#include "discovery/sketch_cache.h"
#include "graph/drg.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "relational/join_index.h"
#include "table/column.h"
#include "table/table.h"
#include "util/thread_pool.h"

namespace autofeat {
namespace {

// ---------------------------------------------------------------------------
// BudgetedCache over a toy value: each key's value is the key itself, and
// the test chooses every entry's cost.
// ---------------------------------------------------------------------------

using ToyCache = BudgetedCache<std::string>;

// A build function charging `bytes` that counts its invocations.
auto Builder(size_t bytes, int* calls = nullptr) {
  return [bytes, calls](bool) -> Result<ToyCache::Built> {
    if (calls != nullptr) ++*calls;
    return ToyCache::Built{std::make_shared<const std::string>("v"), bytes};
  };
}

// Requests `key` at cost `bytes`; true when the request was a miss (built).
bool Miss(ToyCache* cache, const std::string& key, size_t bytes = 100) {
  int calls = 0;
  cache->GetOrBuild(key, Builder(bytes, &calls)).status().Abort();
  return calls > 0;
}

// The keys among `keys` that are resident, found by probing (a probe of a
// non-resident key builds it; probe only unbudgeted caches).
std::set<std::string> Resident(ToyCache* cache,
                               const std::vector<std::string>& keys) {
  std::set<std::string> resident;
  for (const std::string& key : keys) {
    if (!Miss(cache, key)) resident.insert(key);
  }
  return resident;
}

ToyCache MakeToy(obs::MetricsRegistry* registry, size_t budget) {
  return ToyCache("toy", registry, budget, /*count_requests=*/true);
}

TEST(BudgetedCacheTest, UnbudgetedCacheNeverEvicts) {
  obs::MetricsRegistry registry;
  ToyCache cache = MakeToy(&registry, 0);
  for (const char* key : {"a", "b", "c"}) EXPECT_TRUE(Miss(&cache, key));
  for (const char* key : {"a", "b", "c"}) EXPECT_FALSE(Miss(&cache, key));
  EXPECT_EQ(cache.num_entries(), 3u);
  EXPECT_EQ(cache.num_resident(), 3u);
  EXPECT_EQ(registry.CounterValue("toy_cache.requests"), 6u);
  EXPECT_EQ(registry.CounterValue("toy_cache.builds"), 3u);
  EXPECT_EQ(registry.CounterValue("toy_cache.hits"), 3u);
  EXPECT_EQ(registry.CounterValue("toy_cache.evictions"), 0u);
  EXPECT_EQ(registry.GaugeValue("toy_cache.bytes"), 300);
  EXPECT_EQ(cache.resident_bytes(), 300u);
}

TEST(BudgetedCacheTest, LruEvictsLeastRecentlyUsedFirst) {
  obs::MetricsRegistry registry;
  ToyCache cache = MakeToy(&registry, 200);
  Miss(&cache, "a");
  Miss(&cache, "b");
  Miss(&cache, "a");  // now `b` is the least recently used
  Miss(&cache, "c");
  EXPECT_EQ(cache.num_resident(), 2u);
  EXPECT_EQ(registry.CounterValue("toy_cache.evictions"), 1u);
  EXPECT_FALSE(Miss(&cache, "a"));
  EXPECT_FALSE(Miss(&cache, "c"));
  EXPECT_TRUE(Miss(&cache, "b"));
  EXPECT_EQ(registry.CounterValue("toy_cache.rebuilds"), 1u);
}

TEST(BudgetedCacheTest, OneBatchTickEvictsTheLargestFirstThenByKey) {
  // Equally recent entries (one batch tick) fall through to the cost-aware
  // tie-break: largest footprint first, then the smallest key.
  obs::MetricsRegistry registry;
  ToyCache cache = MakeToy(&registry, 350);
  const uint64_t batch = cache.NextTick();
  for (const auto& [key, bytes] :
       std::vector<std::pair<std::string, size_t>>{
           {"small", 50}, {"wide", 200}, {"y", 100}}) {
    cache.GetOrBuild(key, Builder(bytes), batch).status().Abort();
  }
  EXPECT_EQ(cache.resident_bytes(), 350u);
  cache.GetOrBuild("x", Builder(100), batch).status().Abort();
  EXPECT_EQ(cache.resident_bytes(), 250u);  // `wide` went
  cache.GetOrBuild("z", Builder(150), batch).status().Abort();
  EXPECT_EQ(cache.resident_bytes(), 300u);  // then `x` (ties `y` on bytes)
  EXPECT_EQ(registry.CounterValue("toy_cache.evictions"), 2u);
  EXPECT_FALSE(Miss(&cache, "small", 50));
  EXPECT_FALSE(Miss(&cache, "y"));
  EXPECT_FALSE(Miss(&cache, "z", 150));
  EXPECT_TRUE(Miss(&cache, "x"));
}

TEST(BudgetedCacheTest, BudgetIsNeverExceededAndOversizedEntriesArePinOnly) {
  obs::MetricsRegistry registry;
  const size_t budget = 250;
  ToyCache cache = MakeToy(&registry, budget);
  const size_t costs[] = {30, 60, 90, 120, 15};
  const char* keys[] = {"a", "b", "c", "d", "e"};
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 5; ++i) {
      const int k = (i * 3 + round) % 5;
      cache.GetOrBuild(keys[k], Builder(costs[k])).status().Abort();
      EXPECT_LE(cache.resident_bytes(), budget);
      EXPECT_LE(registry.GaugeValue("toy_cache.bytes"),
                static_cast<int64_t>(budget));
    }
    if (round == 1) cache.EvictRandomHalf(round);
    if (round == 2) cache.EvictAll();
  }
  EXPECT_GT(registry.GaugeValue("toy_cache.bytes_peak"), 0);
  EXPECT_LE(registry.GaugeValue("toy_cache.bytes_peak"),
            static_cast<int64_t>(budget));

  // An entry bigger than the whole budget is handed out but never resident,
  // and admitting nothing evicts nothing.
  const size_t resident = cache.resident_bytes();
  int calls = 0;
  Result<ToyCache::Pin> big =
      cache.GetOrBuild("big", Builder(budget + 1, &calls));
  ASSERT_TRUE(big.ok());
  EXPECT_EQ(**big, "v");
  EXPECT_EQ(cache.resident_bytes(), resident);
  cache.GetOrBuild("big", Builder(budget + 1, &calls)).status().Abort();
  EXPECT_EQ(calls, 2);
}

TEST(BudgetedCacheTest, PinOutlivesEviction) {
  ToyCache cache = MakeToy(nullptr, 0);
  Result<ToyCache::Pin> pin = cache.GetOrBuild("a", Builder(10));
  ASSERT_TRUE(pin.ok());
  cache.EvictAll();
  EXPECT_EQ(cache.num_resident(), 0u);
  EXPECT_EQ(cache.resident_bytes(), 0u);
  // The pin keeps the evicted value alive and usable (ASan checks this).
  EXPECT_EQ(**pin, "v");
  Result<ToyCache::Pin> rebuilt = cache.GetOrBuild("a", Builder(10));
  EXPECT_NE(pin->get(), rebuilt->get());
}

TEST(BudgetedCacheTest, EvictRandomHalfIsDeterministicAndComplementary) {
  const std::vector<std::string> keys = {
      "a", "b", std::string("c") + '\0' + "k", "d", "e", "f", "g", "h"};
  auto populate = [&keys] {
    ToyCache cache = MakeToy(nullptr, 0);
    for (const std::string& key : keys) Miss(&cache, key);
    return cache;
  };
  ToyCache c1 = populate(), c2 = populate(), c3 = populate();
  c1.EvictRandomHalf(0xABCDEF);
  c2.EvictRandomHalf(0xABCDEF);
  c3.EvictRandomHalf(0xABCDEF ^ 1);
  const std::set<std::string> kept1 = Resident(&c1, keys);
  EXPECT_EQ(kept1, Resident(&c2, keys));
  // A draw and its bit-flipped complement keep complementary halves.
  const std::set<std::string> kept3 = Resident(&c3, keys);
  EXPECT_EQ(kept1.size() + kept3.size(), keys.size());
  for (const std::string& key : kept1) EXPECT_EQ(kept3.count(key), 0u);
}

TEST(BudgetedCacheTest, EraseTableDropsOneTablesKeysAndReturnsBytes) {
  obs::MetricsRegistry registry;
  ToyCache cache = MakeToy(&registry, 0);
  const std::string orders_cust = std::string("orders") + '\0' + "cust";
  Miss(&cache, "orders", 100);
  Miss(&cache, orders_cust, 30);
  Miss(&cache, "orders_archive", 50);  // shares a prefix, not the table
  Result<ToyCache::Pin> pin = cache.GetOrBuild("orders", Builder(100));

  cache.EraseTable("orders");
  EXPECT_EQ(cache.num_entries(), 1u);
  EXPECT_EQ(cache.resident_bytes(), 50u);
  EXPECT_EQ(registry.GaugeValue("toy_cache.bytes"), 50);
  EXPECT_EQ(**pin, "v");  // outstanding pins stay valid
  EXPECT_EQ(registry.CounterValue("toy_cache.evictions"), 0u);

  // The erased keys build afresh, as first builds, not rebuilds.
  EXPECT_TRUE(Miss(&cache, "orders"));
  EXPECT_TRUE(Miss(&cache, orders_cust));
  EXPECT_FALSE(Miss(&cache, "orders_archive"));
  EXPECT_EQ(registry.CounterValue("toy_cache.builds"), 5u);
  EXPECT_EQ(registry.CounterValue("toy_cache.rebuilds"), 0u);
}

TEST(BudgetedCacheTest, CarryOverSkipsRejectedTablesAndKeepsRecencyOrder) {
  obs::MetricsRegistry registry;
  ToyCache prev = MakeToy(&registry, 0);
  const std::string orders_cust = std::string("orders") + '\0' + "cust";
  for (const std::string& key :
       {std::string("a"), orders_cust, std::string("b"), std::string("gone"),
        std::string("c")}) {
    Miss(&prev, key);
  }
  Miss(&prev, "a");  // most recent now
  Result<ToyCache::Pin> a_pin = prev.GetOrBuild("a", Builder(100));

  // Only `a` and `c` survive: `b`, `orders` (matched on the key's table
  // part) and `gone` are rejected.
  ToyCache next = MakeToy(&registry, 200);
  const size_t installed = next.CarryOver(prev, [](const std::string& table) {
    return table != "b" && table != "orders" && table != "gone";
  });
  EXPECT_EQ(installed, 2u);
  EXPECT_EQ(next.num_resident(), 2u);
  Result<ToyCache::Pin> carried = next.GetOrBuild("a", Builder(100));
  EXPECT_EQ(carried->get(), a_pin->get());  // by pointer, not rebuilt
  EXPECT_FALSE(Miss(&next, "c"));
  EXPECT_TRUE(Miss(&next, orders_cust));

  // A tighter budget keeps only the most recent survivor.
  ToyCache tight = MakeToy(&registry, 100);
  EXPECT_EQ(tight.CarryOver(prev, [](const std::string&) { return true; }),
            5u);
  EXPECT_EQ(tight.num_resident(), 1u);
  EXPECT_FALSE(Miss(&tight, "a"));
}

TEST(BudgetedCacheTest, BuildFailuresAreSticky) {
  obs::MetricsRegistry registry;
  ToyCache cache = MakeToy(&registry, 0);
  int calls = 0;
  auto failing = [&calls](bool) -> Result<ToyCache::Built> {
    ++calls;
    return Status::KeyError("no such column");
  };
  EXPECT_FALSE(cache.GetOrBuild("t", failing).ok());
  EXPECT_FALSE(cache.GetOrBuild("t", failing).ok());
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(registry.CounterValue("toy_cache.builds"), 1u);
  EXPECT_EQ(registry.CounterValue("toy_cache.hits"), 1u);
  EXPECT_EQ(cache.num_resident(), 0u);
}

TEST(BudgetedCacheTest, GaugesSumTheLiveCachesSharingARegistry) {
  obs::MetricsRegistry registry;
  ToyCache kept = MakeToy(&registry, 0);
  Miss(&kept, "a", 40);
  {
    ToyCache dropped = MakeToy(&registry, 0);
    Miss(&dropped, "a", 100);
    ToyCache moved(std::move(dropped));  // moved-from returns nothing
    EXPECT_EQ(registry.GaugeValue("toy_cache.bytes"), 140);
  }
  EXPECT_EQ(registry.GaugeValue("toy_cache.bytes"), 40);
  EXPECT_EQ(registry.GaugeValue("toy_cache.bytes_peak"), 140);
}

TEST(BudgetedCacheTest, EvictionsAndRebuildsAreLogged) {
  obs::EventLog events;
  ToyCache cache = MakeToy(nullptr, 0);
  cache.set_event_log(&events);
  const std::string key = std::string("orders") + '\0' + "cust";
  Miss(&cache, key, 7);
  Miss(&cache, "customers", 9);
  cache.EvictAll();
  Miss(&cache, "customers", 9);
  const std::string log = events.Jsonl(false);
  EXPECT_NE(log.find("\"type\": \"cache_evict\", \"cache\": \"toy\", "
                     "\"table\": \"orders\", \"column\": \"cust\", "
                     "\"bytes\": 7"),
            std::string::npos)
      << log;
  EXPECT_NE(log.find("\"type\": \"cache_rebuild\", \"cache\": \"toy\", "
                     "\"table\": \"customers\", \"bytes\": 9"),
            std::string::npos)
      << log;
  EXPECT_EQ(events.size(), 3u);
}

TEST(BudgetedCacheTest, ConcurrentRequestsBuildEachKeyOnce) {
  ToyCache cache = MakeToy(nullptr, 0);
  std::atomic<int> builds{0};
  auto build = [&builds](bool) -> Result<ToyCache::Built> {
    builds.fetch_add(1);
    return ToyCache::Built{std::make_shared<const std::string>("v"), 1};
  };
  ThreadPool pool(8);
  std::vector<ToyCache::Pin> seen(64);
  ParallelFor(&pool, 0, seen.size(), /*grain=*/1, [&](size_t i) {
    seen[i] = *cache.GetOrBuild(i % 2 == 0 ? "a" : "b", build);
  });
  EXPECT_EQ(builds.load(), 2);
  for (size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], seen[i % 2]);
}

TEST(BudgetedCacheTest, ConcurrentHitsEvictionsAndRebuilds) {
  const std::vector<std::string> keys = {"a", "b", "c", "d"};
  const size_t costs[] = {40, 70, 100, 25};
  const size_t budget = 170;
  obs::MetricsRegistry registry;
  ToyCache cache = MakeToy(&registry, budget);
  ThreadPool pool(8);
  std::atomic<int> failures{0};
  ParallelFor(&pool, 0, 512, /*grain=*/1, [&](size_t i) {
    if (i % 13 == 0) {
      cache.EvictAll();
      return;
    }
    if (i % 7 == 0) {
      cache.EvictRandomHalf(i);
      return;
    }
    const size_t k = i % 4;
    auto build = [&](bool) -> Result<ToyCache::Built> {
      return ToyCache::Built{std::make_shared<const std::string>(keys[k]),
                             costs[k]};
    };
    Result<ToyCache::Pin> pin = cache.GetOrBuild(keys[k], build);
    if (!pin.ok() || **pin != keys[k]) {
      failures.fetch_add(1, std::memory_order_relaxed);
    }
  });
  EXPECT_EQ(failures.load(), 0);
  EXPECT_LE(cache.resident_bytes(), budget);
  EXPECT_LE(registry.GaugeValue("toy_cache.bytes_peak"),
            static_cast<int64_t>(budget));
}

// ---------------------------------------------------------------------------
// Adapters
// ---------------------------------------------------------------------------

// A table whose key column "k" holds `keys` distinct string keys of width
// `width` plus a payload column.
Table KeyTable(const std::string& name, size_t keys, size_t width) {
  std::vector<std::string> k(keys);
  std::vector<double> v(keys);
  for (size_t i = 0; i < keys; ++i) {
    k[i] = name + "_" + std::string(width, 'x') + std::to_string(i);
    v[i] = static_cast<double>(i);
  }
  Table table(name);
  table.AddColumn("k", Column::Strings(k)).Abort();
  table.AddColumn("v", Column::Doubles(v)).Abort();
  return table;
}

DataLake LakeOf(std::vector<Table> tables) {
  DataLake lake;
  for (Table& t : tables) lake.AddTable(std::move(t)).Abort();
  return lake;
}

TEST(JoinIndexCacheEvictionTest, RebuildReproducesTheIdenticalEntry) {
  DataLake lake = LakeOf({KeyTable("a", 64, 8)});
  // Duplicate some keys so the representative draws actually consume the
  // per-entry RNG stream (the reproducibility claim under test).
  Table dup("dup");
  dup.AddColumn("k", Column::Strings({"x", "y", "x", "y", "x", "z"})).Abort();
  dup.AddColumn("v", Column::Doubles({1, 2, 3, 4, 5, 6})).Abort();
  lake.AddTable(std::move(dup)).Abort();

  obs::MetricsRegistry registry;
  JoinIndexCache cache(&lake, /*seed=*/42, &registry);
  auto first = cache.GetOrBuild("dup", "k");
  first.status().Abort();
  const std::vector<uint32_t> reps = (*first)->representative;
  cache.EvictAll();
  EXPECT_EQ(cache.num_resident(), 0u);
  auto rebuilt = cache.GetOrBuild("dup", "k");
  rebuilt.status().Abort();
  EXPECT_NE(first->get(), rebuilt->get());
  EXPECT_EQ((*rebuilt)->representative, reps);
  // Rebuilds are neither builds nor new key-cardinality samples.
  EXPECT_EQ(registry.CounterValue("join_index_cache.builds"), 1u);
  EXPECT_EQ(registry.CounterValue("join_index_cache.rebuilds"), 1u);
  EXPECT_EQ(registry.QuantileCount("join_index_cache.key_cardinality"), 1u);
}

// Metrics-as-assertion accounting audit. After Prewarm over a generated
// lake, the bytes gauge, the cache's own resident_bytes() and the per-entry
// ApproxBytes must agree, and the lake footprint is the sum of the tables'
// ApproxBytes.
TEST(JoinIndexCacheEvictionTest, PrewarmAccountingAudit) {
  datagen::LakeSpec spec;
  spec.rows = 200;
  spec.joinable_tables = 4;
  spec.total_features = 20;
  datagen::BuiltLake built = datagen::BuildLake(spec);
  auto drg = BuildDrgFromKfk(built.lake);
  drg.status().Abort();

  obs::MetricsRegistry registry;
  JoinIndexCache cache(&built.lake, 42, &registry);
  ThreadPool pool(4);
  cache.Prewarm(*drg, &pool);
  ASSERT_GT(cache.num_resident(), 0u);
  EXPECT_EQ(cache.num_resident(), cache.num_entries());

  // Re-requesting every prewarmed target must be a pure hit (no rebuilds)
  // and lets us sum the independent per-entry footprints.
  const uint64_t builds = registry.CounterValue("join_index_cache.builds");
  size_t pinned_bytes = 0;
  for (size_t node = 0; node < (*drg).num_nodes(); ++node) {
    for (size_t neighbor : (*drg).Neighbors(node)) {
      for (const JoinStep& edge : (*drg).EdgesBetween(node, neighbor)) {
        auto pin =
            cache.GetOrBuild((*drg).NodeName(edge.to_node), edge.to_column);
        pin.status().Abort();
        pinned_bytes += (*pin)->ApproxBytes();
      }
    }
  }
  EXPECT_EQ(registry.CounterValue("join_index_cache.builds"), builds);
  EXPECT_EQ(registry.CounterValue("join_index_cache.rebuilds"), 0u);
  // Some (to_node, to_column) targets repeat across edge orientations, so
  // pinned_bytes may count an entry twice — but the gauge itself must equal
  // resident_bytes exactly.
  EXPECT_EQ(registry.GaugeValue("join_index_cache.bytes"),
            static_cast<int64_t>(cache.resident_bytes()));
  EXPECT_GE(pinned_bytes, cache.resident_bytes());

  size_t lake_bytes = 0;
  for (const Table& table : built.lake.tables()) {
    lake_bytes += table.ApproxBytes();
  }
  EXPECT_GT(lake_bytes, cache.resident_bytes());
}

TEST(LakeSketchCacheEvictionTest, RebuildReproducesIdenticalSketches) {
  DataLake lake = LakeOf({KeyTable("a", 30, 6), KeyTable("b", 60, 10),
                          KeyTable("c", 90, 14), KeyTable("d", 45, 8)});
  obs::MetricsRegistry registry;
  LakeSketchCache cache(/*max_sample=*/64, &registry);
  std::vector<LakeSketchCache::TableSketchesPin> first(4);
  for (size_t t = 0; t < 4; ++t) first[t] = cache.GetOrBuild(lake.tables()[t]);
  cache.EvictAll();
  EXPECT_EQ(cache.num_resident(), 0u);
  for (size_t t = 0; t < 4; ++t) {
    LakeSketchCache::TableSketchesPin pin = cache.GetOrBuild(lake.tables()[t]);
    ASSERT_EQ(pin->size(), 2u);  // "k" and "v"
    EXPECT_NE(pin.get(), first[t].get());
    for (size_t col = 0; col < 2; ++col) {
      EXPECT_EQ((*pin)[col].hashes, (*first[t])[col].hashes);
      EXPECT_EQ((*pin)[col].num_distinct, (*first[t])[col].num_distinct);
    }
  }
  // Builds and rebuilds count sketched columns.
  EXPECT_EQ(registry.CounterValue("sketch_cache.builds"), 8u);
  EXPECT_EQ(registry.CounterValue("sketch_cache.rebuilds"), 8u);
}

TEST(LakeSketchCacheEvictionTest, PrewarmAccountingAudit) {
  DataLake lake = LakeOf({KeyTable("a", 30, 6), KeyTable("b", 60, 10),
                          KeyTable("c", 15, 4)});
  obs::MetricsRegistry registry;
  LakeSketchCache cache =
      LakeSketchCache::Build(lake, /*max_sample=*/64, nullptr, &registry);
  EXPECT_EQ(cache.num_resident(), 3u);

  size_t pinned_bytes = 0;
  for (size_t t = 0; t < lake.num_tables(); ++t) {
    LakeSketchCache::TableSketchesPin pin = cache.GetOrBuild(lake.tables()[t]);
    size_t entry = sizeof(std::vector<ColumnSketch>);
    for (const ColumnSketch& sketch : *pin) entry += sketch.ApproxBytes();
    pinned_bytes += entry;
  }
  EXPECT_EQ(cache.resident_bytes(), pinned_bytes);
  EXPECT_EQ(registry.GaugeValue("sketch_cache.bytes"),
            static_cast<int64_t>(pinned_bytes));
  EXPECT_EQ(registry.GaugeValue("sketch_cache.bytes_peak"),
            static_cast<int64_t>(pinned_bytes));
}

}  // namespace
}  // namespace autofeat
