// Observability layer: metric semantics, span nesting, concurrency safety,
// the JSON report's deterministic projection, and metrics-as-assertions
// against the join-index cache (hit counters as a cheap oracle for "the
// cache actually cached").

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/autofeat.h"
#include "datagen/lake_builder.h"
#include "discovery/data_lake.h"
#include "discovery/join_index_cache.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "support/malformed_json.h"
#include "util/string_utils.h"
#include "util/thread_pool.h"

namespace autofeat {
namespace {

TEST(MetricsTest, CounterSemantics) {
  obs::MetricsRegistry registry;
  obs::Counter* c = registry.GetCounter("test.count");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->value(), 0u);
  c->Increment();
  c->Increment(41);
  EXPECT_EQ(c->value(), 42u);
  // Same name resolves to the same instance.
  EXPECT_EQ(registry.GetCounter("test.count"), c);
  EXPECT_EQ(registry.CounterValue("test.count"), 42u);
  // Missing metrics read as zero; kind mismatch yields nullptr, not UB.
  EXPECT_EQ(registry.CounterValue("test.never_registered"), 0u);
  EXPECT_EQ(registry.GetGauge("test.count"), nullptr);
  EXPECT_EQ(registry.GetQuantile("test.count"), nullptr);
  EXPECT_EQ(registry.num_metrics(), 1u);
}

TEST(MetricsTest, GaugeSemantics) {
  obs::MetricsRegistry registry;
  obs::Gauge* g = registry.GetGauge("test.gauge");
  ASSERT_NE(g, nullptr);
  g->Set(10);
  g->Add(-3);
  EXPECT_EQ(g->value(), 7);
  g->UpdateMax(5);
  EXPECT_EQ(g->value(), 7);  // UpdateMax never lowers.
  g->UpdateMax(9);
  EXPECT_EQ(g->value(), 9);
  EXPECT_EQ(registry.GaugeValue("test.gauge"), 9);
}

TEST(MetricsTest, NullRegistryPropagates) {
  // The disabled path: null registry -> null handles -> no-op updates.
  obs::Counter* c = obs::GetCounter(nullptr, "x");
  obs::Gauge* g = obs::GetGauge(nullptr, "y");
  obs::QuantileHistogram* h = obs::GetQuantile(nullptr, "z");
  EXPECT_EQ(c, nullptr);
  EXPECT_EQ(g, nullptr);
  EXPECT_EQ(h, nullptr);
  obs::Increment(c);
  obs::Set(g, 1);
  obs::UpdateMax(g, 2);
  obs::Record(h, 3);  // Must not crash.
}

TEST(MetricsTest, ConcurrentIncrementsAreExact) {
  obs::MetricsRegistry registry;
  obs::Counter* counter = registry.GetCounter("concurrent.count");
  obs::QuantileHistogram* hist =
      registry.GetQuantile("concurrent.hist", /*deterministic=*/true);
  obs::Gauge* peak = registry.GetGauge("concurrent.peak");
  constexpr size_t kTasks = 64;
  constexpr size_t kPerTask = 1000;

  ThreadPool pool(8);
  pool.set_metrics(&registry);
  ParallelFor(&pool, 0, kTasks, /*grain=*/1, [&](size_t t) {
    for (size_t i = 0; i < kPerTask; ++i) {
      counter->Increment();
      hist->Record(t);
      peak->UpdateMax(static_cast<int64_t>(t));
    }
  });

  EXPECT_EQ(counter->value(), kTasks * kPerTask);
  EXPECT_EQ(hist->count(), kTasks * kPerTask);
  // Sum of 1000 * (0 + 1 + ... + 63).
  EXPECT_EQ(hist->sum(), kPerTask * (kTasks * (kTasks - 1)) / 2);
  EXPECT_EQ(hist->min(), 0u);
  EXPECT_EQ(hist->max(), kTasks - 1);
  EXPECT_EQ(peak->value(), static_cast<int64_t>(kTasks - 1));
  // The pool's own instrumentation saw every submitted task.
  EXPECT_GT(registry.CounterValue("thread_pool.tasks_submitted"), 0u);
}

TEST(TracerTest, SpanNestingAndParents) {
  obs::Tracer tracer;
  {
    obs::ScopedSpan outer(&tracer, "outer");
    {
      obs::ScopedSpan inner(&tracer, "inner");
    }
    obs::ScopedSpan sibling(&tracer, "sibling");
  }
  obs::ScopedSpan root2(&tracer, "root2");

  std::vector<obs::SpanRecord> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].name, "outer");
  EXPECT_EQ(spans[0].id, 1u);
  EXPECT_EQ(spans[0].parent, 0u);
  EXPECT_EQ(spans[1].name, "inner");
  EXPECT_EQ(spans[1].parent, 1u);
  EXPECT_EQ(spans[2].name, "sibling");
  EXPECT_EQ(spans[2].parent, 1u);  // Sibling of inner, child of outer.
  EXPECT_EQ(spans[3].name, "root2");
  EXPECT_EQ(spans[3].parent, 0u);
  // Closed spans have an end; root2 is still open here.
  EXPECT_GE(spans[0].end_seconds, spans[0].start_seconds);
  EXPECT_LT(spans[3].end_seconds, 0.0);
  // All spans opened on one thread share one dense thread id.
  EXPECT_EQ(spans[0].thread, spans[3].thread);
}

TEST(TracerTest, NullTracerIsNoop) {
  obs::ScopedSpan span(nullptr, "nothing");  // Must not crash.
}

TEST(ReportTest, GoldenDeterministicProjection) {
  obs::MetricsRegistry registry;
  registry.GetCounter("a.count")->Increment(3);
  registry.GetGauge("g.peak")->Set(7);
  // Deterministic quantile series: values below 64 are exact, and 100 lands
  // in the bucket whose upper bound is 101, documenting the bounded-error
  // contract in the golden.
  obs::QuantileHistogram* h =
      registry.GetQuantile("h.vals", /*deterministic=*/true);
  for (uint64_t v : {0, 1, 2, 3}) h->Record(v);
  registry.GetQuantile("q.lat", /*deterministic=*/true)->Record(100);
  // Non-deterministic metrics exist but are excluded from the projection.
  registry.GetCounter("thread_pool.tasks_executed", /*deterministic=*/false)
      ->Increment(99);
  registry.GetQuantile("serve.query_latency_ns")->Record(12345);

  obs::Tracer tracer;
  {
    obs::ScopedSpan outer(&tracer, "outer");
    obs::ScopedSpan inner(&tracer, "inner");
  }

  obs::ReportOptions projection;
  projection.include_timings = false;
  projection.include_volatile = false;
  projection.include_digest = false;
  std::string got = obs::JsonReport(registry, &tracer, projection);
  std::string expected =
      "{\n"
      "  \"schema\": \"autofeat.obs.v1\",\n"
      "  \"counters\": {\n"
      "    \"a.count\": 3\n"
      "  },\n"
      "  \"gauges\": {\n"
      "    \"g.peak\": 7\n"
      "  },\n"
      "  \"quantiles\": {\n"
      "    \"h.vals\": {\"count\": 4, \"sum\": 6, \"min\": 0, \"max\": 3, "
      "\"p50\": 1, \"p90\": 3, \"p99\": 3, \"p999\": 3},\n"
      "    \"q.lat\": {\"count\": 1, \"sum\": 100, \"min\": 100, "
      "\"max\": 100, \"p50\": 101, \"p90\": 101, \"p99\": 101, "
      "\"p999\": 101}\n"
      "  },\n"
      "  \"spans\": [\n"
      "    {\"id\": 1, \"parent\": 0, \"name\": \"outer\"},\n"
      "    {\"id\": 2, \"parent\": 1, \"name\": \"inner\"}\n"
      "  ]\n"
      "}\n";
  EXPECT_EQ(got, expected);
  EXPECT_TRUE(obs::JsonIsValid(got));
}

TEST(ReportTest, DigestIgnoresVolatileFields) {
  // Two registries computing the same deterministic work but different
  // scheduling-dependent stats must share a digest.
  obs::MetricsRegistry a;
  obs::MetricsRegistry b;
  a.GetCounter("work.done")->Increment(10);
  b.GetCounter("work.done")->Increment(10);
  a.GetCounter("thread_pool.tasks_executed", false)->Increment(3);
  b.GetCounter("thread_pool.tasks_executed", false)->Increment(700);
  b.GetCounter("thread_pool.parallel_for.calls", false)->Increment(1);

  EXPECT_EQ(obs::DeterministicDigest(a, nullptr),
            obs::DeterministicDigest(b, nullptr));

  // A deterministic difference must change the digest.
  b.GetCounter("work.done")->Increment(1);
  EXPECT_NE(obs::DeterministicDigest(a, nullptr),
            obs::DeterministicDigest(b, nullptr));
}

TEST(ReportTest, FullReportIsValidJsonWithHostileNames) {
  obs::MetricsRegistry registry;
  registry.GetCounter("evil \"quoted\"\\name\n\twith\x01" "controls")
      ->Increment(1);
  obs::Tracer tracer;
  { obs::ScopedSpan span(&tracer, "span \"with\" \\ hostile\nname"); }
  std::string report = obs::JsonReport(registry, &tracer);
  EXPECT_TRUE(obs::JsonIsValid(report)) << report;
  // The digest is embedded in the default report.
  EXPECT_NE(report.find("\"digest\": \"fnv1a:"), std::string::npos);
}

TEST(ReportTest, JsonEscapeRoundTripsHostileStrings) {
  std::string hostile = "a\"b\\c\nd\re\tf\bg\fh\x01i";
  std::string doc = "{\"k\": \"" + JsonEscape(hostile) + "\"}";
  EXPECT_TRUE(obs::JsonIsValid(doc)) << doc;
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("q\"q"), "q\\\"q");
  EXPECT_EQ(JsonEscape("b\\b"), "b\\\\b");
  EXPECT_EQ(JsonEscape("\x01"), "\\u0001");
}

TEST(ReportTest, JsonIsValidRejectsMalformedDocuments) {
  EXPECT_TRUE(obs::JsonIsValid("{}"));
  EXPECT_TRUE(obs::JsonIsValid("[1, 2.5, -3e2, \"x\", true, false, null]"));
  EXPECT_TRUE(obs::JsonIsValid("{\"a\": {\"b\": []}}"));
  for (const char* bad : testsupport::kMalformedJson) {
    EXPECT_FALSE(obs::JsonIsValid(bad)) << bad;
  }
}

// --- Metrics as assertions: the join-index cache actually caches. ---

datagen::BuiltLake SmallLake() {
  datagen::LakeSpec spec;
  spec.rows = 400;
  spec.joinable_tables = 6;
  spec.total_features = 30;
  return datagen::BuildLake(spec);
}

TEST(MetricsAssertionsTest, EngineDisabledByDefault) {
  datagen::BuiltLake built = SmallLake();
  auto drg = BuildDrgFromKfk(built.lake);
  ASSERT_TRUE(drg.ok());
  AutoFeatConfig config;
  AutoFeat engine(&built.lake, &*drg, config);
  EXPECT_EQ(engine.metrics(), nullptr);
  EXPECT_EQ(engine.tracer(), nullptr);
}

TEST(MetricsAssertionsTest, JoinIndexCacheHitsOnRepeatedEdges) {
  datagen::BuiltLake built = SmallLake();
  auto drg = BuildDrgFromKfk(built.lake);
  ASSERT_TRUE(drg.ok());

  AutoFeatConfig config;
  config.sample_rows = 200;
  config.metrics_enabled = true;
  AutoFeat engine(&built.lake, &*drg, config);
  ASSERT_NE(engine.metrics(), nullptr);
  ASSERT_NE(engine.tracer(), nullptr);

  auto result = engine.DiscoverFeatures(built.base_table, built.label_column);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->ranked.size(), 0u);

  const obs::MetricsRegistry& m = *engine.metrics();
  // Prewarm built each reachable (table, key) exactly once; every candidate
  // evaluation afterwards was a hit.
  uint64_t requests = m.CounterValue("join_index_cache.requests");
  uint64_t builds = m.CounterValue("join_index_cache.builds");
  uint64_t hits = m.CounterValue("join_index_cache.hits");
  EXPECT_GT(hits, 0u);
  EXPECT_GT(builds, 0u);
  EXPECT_EQ(requests, builds + hits);
  // Each built entry recorded its interned-key cardinality.
  EXPECT_EQ(m.QuantileCount("join_index_cache.key_cardinality"), builds);
  // Discovery counters moved and reconcile with the result.
  EXPECT_GT(m.CounterValue("discovery.candidates_scored"), 0u);
  EXPECT_EQ(m.CounterValue("discovery.ranked_paths"), result->ranked.size());
  EXPECT_EQ(m.CounterValue("discovery.pruned_quality"),
            result->paths_pruned_quality);
  EXPECT_GT(m.QuantileCount("discovery.frontier_size"), 0u);
  // The span tree contains the discovery phases.
  std::string report = obs::JsonReport(m, engine.tracer());
  EXPECT_TRUE(obs::JsonIsValid(report));
  EXPECT_NE(report.find("\"discover\""), std::string::npos);
  EXPECT_NE(report.find("\"discover.bfs\""), std::string::npos);
}

TEST(MetricsAssertionsTest, PrewarmMakesSubsequentBuildsZero) {
  datagen::BuiltLake built = SmallLake();
  auto drg = BuildDrgFromKfk(built.lake);
  ASSERT_TRUE(drg.ok());

  obs::MetricsRegistry registry;
  JoinIndexCache cache(&built.lake, /*seed=*/42, &registry);
  cache.Prewarm(*drg, /*pool=*/nullptr);
  uint64_t builds_after_prewarm =
      registry.CounterValue("join_index_cache.builds");
  EXPECT_GT(builds_after_prewarm, 0u);
  EXPECT_EQ(registry.CounterValue("join_index_cache.hits"), 0u);

  // Every edge target the DRG knows is already interned: requesting them
  // again reports zero further builds, only hits.
  for (size_t a = 0; a < drg->num_nodes(); ++a) {
    for (size_t b = 0; b < drg->num_nodes(); ++b) {
      for (const JoinStep& e : drg->EdgesBetween(a, b)) {
        auto index = cache.GetOrBuild(drg->NodeName(e.to_node), e.to_column);
        ASSERT_TRUE(index.ok());
      }
    }
  }
  EXPECT_EQ(registry.CounterValue("join_index_cache.builds"),
            builds_after_prewarm);
  EXPECT_GT(registry.CounterValue("join_index_cache.hits"), 0u);
}

TEST(MetricsAssertionsTest, DigestIdenticalAcrossThreadCounts) {
  datagen::BuiltLake built = SmallLake();
  auto drg = BuildDrgFromKfk(built.lake);
  ASSERT_TRUE(drg.ok());

  std::string expected;
  for (size_t threads : {1u, 4u}) {
    AutoFeatConfig config;
    config.sample_rows = 200;
    config.num_threads = threads;
    config.metrics_enabled = true;
    AutoFeat engine(&built.lake, &*drg, config);
    auto result =
        engine.DiscoverFeatures(built.base_table, built.label_column);
    ASSERT_TRUE(result.ok());
    std::string digest =
        obs::DeterministicDigest(*engine.metrics(), engine.tracer());
    if (threads == 1) {
      expected = digest;
    } else {
      EXPECT_EQ(digest, expected)
          << "metrics digest diverged at " << threads << " threads";
    }
  }

  // The data-lake pipeline: one registry and tracer span the discovered
  // DRG (all pairs at threshold 0.55, sketched and scored on the pool),
  // Discover and Augment, so the digest covers DRG construction and model
  // training as well as discovery.
  std::string expected_pipeline;
  double expected_accuracy = 0.0;
  for (size_t threads : {1u, 4u}) {
    obs::MetricsRegistry metrics;
    obs::Tracer tracer;
    std::unique_ptr<ThreadPool> pool;
    if (threads > 1) {
      pool = std::make_unique<ThreadPool>(threads);
      pool->set_metrics(&metrics);
      pool->set_tracer(&tracer);
    }
    MatchOptions match;
    match.threshold = 0.55;
    auto discovered =
        BuildDrgByDiscovery(built.lake, match, pool.get(), &metrics);
    ASSERT_TRUE(discovered.ok());
    ASSERT_GT(discovered->num_edges(), 0u);
    AutoFeatConfig config;
    config.sample_rows = 200;
    config.num_threads = threads;
    config.metrics_enabled = true;
    config.metrics = &metrics;
    config.tracer = &tracer;
    AutoFeat engine(&built.lake, &*discovered, config);
    ASSERT_TRUE(
        engine.DiscoverFeatures(built.base_table, built.label_column).ok());
    auto augmented = engine.Augment(built.base_table, built.label_column,
                                    ml::ModelKind::kRandomForest);
    ASSERT_TRUE(augmented.ok());
    std::string digest = obs::DeterministicDigest(metrics, &tracer);
    if (threads == 1) {
      expected_pipeline = digest;
      expected_accuracy = augmented->accuracy;
    } else {
      EXPECT_EQ(digest, expected_pipeline)
          << "discovered-DRG + Augment digest diverged at " << threads
          << " threads";
      EXPECT_EQ(augmented->accuracy, expected_accuracy);
    }
  }
}

}  // namespace
}  // namespace autofeat
