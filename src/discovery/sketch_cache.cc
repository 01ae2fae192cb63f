#include "discovery/sketch_cache.h"

#include <algorithm>
#include <utility>

#include "discovery/data_lake.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace autofeat {

ColumnSketch BuildColumnSketch(const Column& col, size_t max_sample) {
  ColumnSketch sketch;
  std::vector<uint64_t>& hashes = sketch.hashes;
  hashes.reserve(col.size());
  KeyBuffer buf;
  for (size_t i = 0; i < col.size(); ++i) {
    if (col.IsNull(i)) continue;
    hashes.push_back(SketchValueHash(col.WriteKey(i, &buf)));
  }
  std::sort(hashes.begin(), hashes.end());
  hashes.erase(std::unique(hashes.begin(), hashes.end()), hashes.end());
  sketch.num_distinct = hashes.size();
  if (hashes.size() > max_sample) hashes.resize(max_sample);
  hashes.shrink_to_fit();
  return sketch;
}

std::vector<ColumnSketch> SketchTable(const Table& table, size_t max_sample) {
  std::vector<ColumnSketch> sketches;
  sketches.reserve(table.num_columns());
  for (size_t c = 0; c < table.num_columns(); ++c) {
    sketches.push_back(BuildColumnSketch(table.column(c), max_sample));
  }
  return sketches;
}

namespace {

// |A ∩ B| by one merge over the two ascending hash lists.
size_t SketchIntersection(const ColumnSketch& a, const ColumnSketch& b) {
  size_t inter = 0;
  auto i = a.hashes.begin();
  auto j = b.hashes.begin();
  while (i != a.hashes.end() && j != b.hashes.end()) {
    if (*i < *j) {
      ++i;
    } else if (*j < *i) {
      ++j;
    } else {
      ++inter;
      ++i;
      ++j;
    }
  }
  return inter;
}

}  // namespace

double SketchContainment(const ColumnSketch& a, const ColumnSketch& b) {
  if (a.hashes.empty() || b.hashes.empty()) return 0.0;
  size_t smaller = std::min(a.hashes.size(), b.hashes.size());
  return static_cast<double>(SketchIntersection(a, b)) /
         static_cast<double>(smaller);
}

double SketchJaccard(const ColumnSketch& a, const ColumnSketch& b) {
  if (a.hashes.empty() && b.hashes.empty()) return 0.0;
  size_t inter = SketchIntersection(a, b);
  size_t uni = a.hashes.size() + b.hashes.size() - inter;
  return static_cast<double>(inter) / static_cast<double>(uni);
}

LakeSketchCache::LakeSketchCache(size_t max_sample,
                                 obs::MetricsRegistry* metrics,
                                 size_t budget_bytes)
    : max_sample_(max_sample),
      cache_("sketch", metrics, budget_bytes, /*count_requests=*/false) {}

LakeSketchCache LakeSketchCache::Build(const DataLake& lake,
                                       size_t max_sample, ThreadPool* pool,
                                       obs::MetricsRegistry* metrics,
                                       size_t budget_bytes) {
  LakeSketchCache cache(max_sample, metrics, budget_bytes);
  cache.PrewarmAll(lake, pool);
  return cache;
}

LakeSketchCache::TableSketchesPin LakeSketchCache::GetOrBuild(
    const Table& table) {
  return GetOrBuildWithTick(table, /*tick=*/0, /*pool=*/nullptr);
}

LakeSketchCache::TableSketchesPin LakeSketchCache::GetOrBuildWithTick(
    const Table& table, uint64_t tick, ThreadPool* pool) {
  auto build = [&](bool) -> Result<BudgetedCache<Sketches>::Built> {
    obs::ScopedWorkerSpan span(pool != nullptr ? pool->tracer() : nullptr,
                               "sketch.table");
    auto sketches =
        std::make_shared<Sketches>(SketchTable(table, max_sample_));
    size_t footprint = sizeof(Sketches);
    for (const ColumnSketch& sketch : *sketches) {
      footprint += sketch.ApproxBytes();
    }
    // `builds` / `rebuilds` count sketched columns.
    return BudgetedCache<Sketches>::Built{std::move(sketches), footprint,
                                          table.num_columns()};
  };
  // Sketching cannot fail.
  return cache_.GetOrBuild(table.name(), build, tick).MoveValue();
}

void LakeSketchCache::PrewarmAll(const DataLake& lake, ThreadPool* pool) {
  // One recency tick for the whole batch: prewarmed entries are equally
  // recent, so the cost-aware (largest-first) tie-break decides eviction
  // order among them under a budget.
  const uint64_t batch_tick = cache_.NextTick();
  const auto& tables = lake.tables();
  ParallelFor(pool, 0, tables.size(), /*grain=*/1, [&](size_t t) {
    GetOrBuildWithTick(tables[t], batch_tick, pool);
  });
}

}  // namespace autofeat
