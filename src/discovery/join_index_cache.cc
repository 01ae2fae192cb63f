#include "discovery/join_index_cache.h"

#include <algorithm>
#include <numeric>
#include <utility>
#include <vector>

#include "discovery/data_lake.h"
#include "graph/drg.h"
#include "obs/trace.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace autofeat {

namespace {

// FNV-1a over "table\0column\0": a stable per-entry stream id, so the
// representative draws do not depend on which caller builds an entry first
// (and rebuilds after eviction reproduce the exact same index).
uint64_t EntryStream(const std::string& table, const std::string& column) {
  constexpr std::string_view kSeparator("\0", 1);
  uint64_t h = Fnv1a64(kSeparator, Fnv1a64(table));
  return Fnv1a64(kSeparator, Fnv1a64(column, h));
}

}  // namespace

JoinIndexCache::JoinIndexCache(const DataLake* lake, uint64_t seed,
                               obs::MetricsRegistry* metrics,
                               obs::Tracer* tracer, size_t budget_bytes)
    : lake_(lake),
      seed_(seed),
      tracer_(tracer),
      key_cardinality_(obs::GetQuantile(metrics,
                                        "join_index_cache.key_cardinality",
                                        /*deterministic=*/true)),
      cache_("join_index", metrics, budget_bytes, /*count_requests=*/true) {}

Result<JoinIndexCache::IndexPin> JoinIndexCache::GetOrBuild(
    const std::string& table, const std::string& column) {
  return GetOrBuildWithTick(table, column, /*tick=*/0);
}

Result<JoinIndexCache::IndexPin> JoinIndexCache::GetOrBuildWithTick(
    const std::string& table, const std::string& column, uint64_t tick) {
  using Built = BudgetedCache<JoinKeyIndex>::Built;
  auto build = [&](bool rebuild) -> Result<Built> {
    obs::ScopedWorkerSpan span(tracer_, "join_index.build");
    AF_ASSIGN_OR_RETURN(const Table* t, lake_->GetTable(table));
    AF_ASSIGN_OR_RETURN(const Column* key, t->GetColumn(column));
    auto index = std::make_shared<JoinKeyIndex>(BuildJoinKeyIndex(
        *key, DeriveSeed(seed_, EntryStream(table, column))));
    if (!rebuild) obs::Record(key_cardinality_, index->num_distinct_keys());
    const size_t bytes = index->ApproxBytes();
    return Built{std::move(index), bytes};
  };
  return cache_.GetOrBuild(table + '\0' + column, build, tick);
}

void JoinIndexCache::Prewarm(const DatasetRelationGraph& drg,
                             ThreadPool* pool, std::optional<Reach> reach) {
  std::vector<size_t> sources;
  if (!reach) {
    sources.resize(drg.num_nodes());
    std::iota(sources.begin(), sources.end(), size_t{0});
  } else if (reach->max_hops > 0) {
    sources = drg.ReachableFrom(reach->base_node, reach->max_hops - 1);
  }
  // Every (to_node, to_column) of every edge oriented out of a source is a
  // potential join target; neighbour lists are symmetric, so over the whole
  // graph this covers both directions.
  std::vector<std::pair<std::string, std::string>> targets;
  for (size_t node : sources) {
    for (size_t neighbor : drg.Neighbors(node)) {
      for (const JoinStep& edge : drg.EdgesBetween(node, neighbor)) {
        targets.emplace_back(drg.NodeName(edge.to_node), edge.to_column);
      }
    }
  }
  std::sort(targets.begin(), targets.end());
  targets.erase(std::unique(targets.begin(), targets.end()), targets.end());
  // One recency tick for the whole batch: the prewarmed entries are equally
  // recent, which makes the cost-aware (largest-first) tie-break decide
  // eviction order among them under a budget.
  const uint64_t batch_tick = cache_.NextTick();
  ParallelFor(pool, 0, targets.size(), /*grain=*/1, [&](size_t i) {
    // Failures surface (again) at join time; prewarm just drops them.
    GetOrBuildWithTick(targets[i].first, targets[i].second, batch_tick)
        .status();
  });
}

size_t JoinIndexCache::CarryOver(const JoinIndexCache& prev,
                                 const std::string& touched_table) {
  if (prev.seed_ != seed_) return 0;
  return cache_.CarryOver(prev.cache_, [&](const std::string& table) {
    return table != touched_table && lake_->HasTable(table);
  });
}

}  // namespace autofeat
