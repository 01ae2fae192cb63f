// Worker-thread tracing and memory accounting: per-thread span buffers
// merge into one tree, Chrome trace exports are well-formed (every event
// carries ph/ts/pid/tid, flow arrows pair up), the deterministic digest
// ignores worker spans entirely (it must not depend on how many helper
// lanes ran), and the byte-accounting gauges report nonzero, growing,
// peak-consistent values.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/autofeat.h"
#include "datagen/lake_builder.h"
#include "discovery/data_lake.h"
#include "discovery/join_index_cache.h"
#include "obs/chrome_trace.h"
#include "obs/json_value.h"
#include "obs/memory.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "table/table.h"
#include "util/thread_pool.h"

namespace autofeat {
namespace {

TEST(WorkerSpanTest, MergesPerThreadBuffersUnderEnqueueParent) {
  obs::Tracer tracer;
  constexpr size_t kTasks = 16;
  {
    obs::ScopedSpan phase(&tracer, "phase");
    ThreadPool pool(4);
    pool.set_tracer(&tracer);
    obs::TaskContext ctx = obs::CaptureTaskContext(&tracer);
    ParallelFor(&pool, 0, kTasks, /*grain=*/1, [&](size_t) {
      obs::ScopedWorkerSpan span(ctx, "task");
    });
  }

  EXPECT_EQ(tracer.num_spans(), 1u);  // Orchestration spans only.
  EXPECT_GE(tracer.num_worker_spans(), kTasks);

  std::vector<obs::SpanRecord> spans = tracer.Snapshot();
  ASSERT_GE(spans.size(), 1 + kTasks);
  EXPECT_EQ(spans[0].name, "phase");
  EXPECT_FALSE(spans[0].worker);
  size_t tasks = 0;
  for (size_t i = 1; i < spans.size(); ++i) {
    EXPECT_TRUE(spans[i].worker);
    // Ids stay unique and 1-based across the merge.
    EXPECT_EQ(spans[i].id, i + 1);
    if (spans[i].name != "task") continue;
    ++tasks;
    // Every task chains back to the span open at the enqueue site: either
    // directly (chunks the orchestration thread ran inline) or through
    // the pool lane's thread_pool.worker span.
    const obs::SpanRecord& parent = spans.at(spans[i].parent - 1);
    if (parent.name == "thread_pool.worker") {
      EXPECT_EQ(parent.parent, spans[0].id);
    } else {
      EXPECT_EQ(spans[i].parent, spans[0].id);
    }
    EXPECT_GE(spans[i].end_seconds, spans[i].start_seconds);
  }
  EXPECT_EQ(tasks, kTasks);
}

TEST(WorkerSpanTest, NestedWorkerSpansParentLocally) {
  obs::Tracer tracer;
  obs::TaskContext ctx = obs::CaptureTaskContext(&tracer);
  {
    obs::ScopedWorkerSpan outer(ctx, "outer_task");
    obs::ScopedWorkerSpan inner(ctx, "inner_task");
  }
  std::vector<obs::SpanRecord> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "outer_task");
  EXPECT_EQ(spans[1].name, "inner_task");
  // The nested span parents under the enclosing worker span, not the
  // enqueue-site orchestration parent.
  EXPECT_EQ(spans[1].parent, spans[0].id);
  // Only the top-level span carries the flow arrow.
  EXPECT_NE(spans[0].flow_id, 0u);
  EXPECT_EQ(spans[1].flow_id, 0u);
}

TEST(WorkerSpanTest, ContextFreeSpanAdoptsOpenOrchestrationSpan) {
  obs::Tracer tracer;
  {
    obs::ScopedSpan build(&tracer, "build");
    obs::ScopedWorkerSpan span(&tracer, "work_item");
  }
  std::vector<obs::SpanRecord> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].name, "work_item");
  EXPECT_EQ(spans[1].parent, spans[0].id);
  EXPECT_EQ(spans[1].flow_id, 0u);
}

TEST(WorkerSpanTest, NullSafety) {
  obs::TaskContext null_ctx = obs::CaptureTaskContext(nullptr);
  EXPECT_EQ(null_ctx.tracer, nullptr);
  obs::ScopedWorkerSpan a(null_ctx, "nothing");
  obs::ScopedWorkerSpan b(static_cast<obs::Tracer*>(nullptr), "nothing");
  // Must not crash, must not record.
}

TEST(WorkerSpanTest, DigestIgnoresWorkerSpans) {
  // Worker-span COUNT is scheduling-dependent (helper lanes), so the
  // deterministic projection must exclude them entirely: a tracer with
  // many worker spans digests identically to one with none.
  obs::MetricsRegistry registry;
  registry.GetCounter("work.done")->Increment(5);

  obs::Tracer quiet;
  { obs::ScopedSpan s(&quiet, "phase"); }
  obs::Tracer busy;
  {
    obs::ScopedSpan s(&busy, "phase");
    ThreadPool pool(4);
    pool.set_tracer(&busy);
    obs::TaskContext ctx = obs::CaptureTaskContext(&busy);
    ParallelFor(&pool, 0, 32, /*grain=*/1,
                [&](size_t) { obs::ScopedWorkerSpan span(ctx, "task"); });
  }
  EXPECT_GT(busy.num_worker_spans(), 0u);
  EXPECT_EQ(obs::DeterministicDigest(registry, &quiet),
            obs::DeterministicDigest(registry, &busy));
}

TEST(WorkerSpanTest, VolatileReportMarksWorkerSpans) {
  obs::MetricsRegistry registry;
  obs::Tracer tracer;
  {
    obs::ScopedSpan s(&tracer, "phase");
    obs::TaskContext ctx = obs::CaptureTaskContext(&tracer);
    obs::ScopedWorkerSpan w(ctx, "task");
  }
  std::string full = obs::JsonReport(registry, &tracer);
  EXPECT_TRUE(obs::JsonIsValid(full));
  EXPECT_NE(full.find("\"worker\": true"), std::string::npos);
  EXPECT_NE(full.find("\"flow\": "), std::string::npos);

  obs::ReportOptions projection;
  projection.include_timings = false;
  projection.include_volatile = false;
  projection.include_digest = false;
  std::string deterministic = obs::JsonReport(registry, &tracer, projection);
  EXPECT_EQ(deterministic.find("task"), std::string::npos);
  EXPECT_NE(deterministic.find("phase"), std::string::npos);
}

TEST(WorkerSpanTest, AugmentSplitsEachModelIntoTrainingStages) {
  // Every evaluate.path span holds one model's ml.encode, ml.bin, ml.fit
  // and ml.predict spans, run one after another on its lane, so their
  // times add up to no more than the path span's.
  datagen::LakeSpec spec;
  spec.rows = 400;
  spec.joinable_tables = 6;
  spec.total_features = 30;
  datagen::BuiltLake built = datagen::BuildLake(spec);
  auto drg = BuildDrgFromKfk(built.lake);
  ASSERT_TRUE(drg.ok());
  obs::Tracer tracer;
  AutoFeatConfig config;
  config.sample_rows = 200;
  config.num_threads = 4;
  config.metrics_enabled = true;
  config.tracer = &tracer;
  {
    AutoFeat engine(&built.lake, &*drg, config);
    ASSERT_TRUE(engine
                    .Augment(built.base_table, built.label_column,
                             ml::ModelKind::kLightGbm)
                    .ok());
  }
  const std::vector<obs::SpanRecord> spans = tracer.Snapshot();
  size_t plans = 0, paths = 0;
  for (const obs::SpanRecord& span : spans) {
    if (span.name == "augment.plan") ++plans;
    if (span.name != "evaluate.path") continue;
    ++paths;
    std::set<std::string> stages;
    double children = 0.0;
    for (const obs::SpanRecord& child : spans) {
      if (child.parent != span.id) continue;
      stages.insert(child.name);
      EXPECT_EQ(child.thread, span.thread);
      EXPECT_GE(child.start_seconds, span.start_seconds);
      EXPECT_LE(child.end_seconds, span.end_seconds);
      children += child.end_seconds - child.start_seconds;
    }
    EXPECT_EQ(stages, (std::set<std::string>{"ml.encode", "ml.bin", "ml.fit",
                                             "ml.predict"}));
    EXPECT_LE(children, span.end_seconds - span.start_seconds + 1e-9);
  }
  EXPECT_EQ(plans, 1u);
  EXPECT_GE(paths, 2u);  // the base and at least one ranked path
}

// --- Chrome trace export ---

TEST(ChromeTraceTest, EveryEventHasRequiredFieldsAndMultipleThreads) {
  obs::Tracer tracer;
  {
    obs::ScopedSpan phase(&tracer, "phase");
    ThreadPool pool(4);
    pool.set_tracer(&tracer);
    obs::TaskContext ctx = obs::CaptureTaskContext(&tracer);
    // The caller does not wait for helpers to start, so it could run every
    // chunk itself; its chunks hold on (up to 10 s) until a helper has run
    // one.
    const std::thread::id caller = std::this_thread::get_id();
    std::atomic<bool> helper_ran{false};
    ParallelFor(&pool, 0, 64, /*grain=*/1, [&](size_t) {
      obs::ScopedWorkerSpan span(ctx, "task");
      if (std::this_thread::get_id() != caller) {
        helper_ran = true;
        return;
      }
      const auto give_up =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (!helper_ran && std::chrono::steady_clock::now() < give_up) {
        std::this_thread::yield();
      }
    });
  }

  std::string json = obs::ChromeTraceJson(tracer);
  auto doc = obs::ParseJson(json);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const obs::JsonValue* events = doc->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_GT(events->items.size(), 0u);

  std::set<double> tids;
  size_t flow_starts = 0, flow_finishes = 0, complete = 0;
  for (const obs::JsonValue& event : events->items) {
    ASSERT_TRUE(event.is_object());
    const obs::JsonValue* ph = event.Find("ph");
    const obs::JsonValue* ts = event.Find("ts");
    const obs::JsonValue* pid = event.Find("pid");
    const obs::JsonValue* tid = event.Find("tid");
    ASSERT_NE(ph, nullptr);
    ASSERT_NE(ts, nullptr);
    ASSERT_NE(pid, nullptr);
    ASSERT_NE(tid, nullptr);
    EXPECT_TRUE(ph->is_string());
    EXPECT_TRUE(ts->is_number());
    EXPECT_TRUE(pid->is_number());
    EXPECT_TRUE(tid->is_number());
    if (ph->str != "M") tids.insert(tid->number);
    if (ph->str == "s") ++flow_starts;
    if (ph->str == "f") ++flow_finishes;
    if (ph->str == "X") {
      ++complete;
      const obs::JsonValue* dur = event.Find("dur");
      ASSERT_NE(dur, nullptr);
      EXPECT_GE(dur->number, 0.0);
    }
  }
  // The pool ran tasks on at least one worker thread besides the
  // orchestrator, and every consumed flow has both ends.
  EXPECT_GE(tids.size(), 2u);
  EXPECT_GE(flow_starts, 1u);
  EXPECT_GE(flow_finishes, 1u);
  EXPECT_GT(complete, 0u);
}

TEST(ChromeTraceTest, OpenSpansEmitBeginEventsAndHostileNamesSurvive) {
  obs::Tracer tracer;
  size_t open = tracer.BeginSpan("open \"phase\"\\with\nhostile name");
  (void)open;  // Deliberately left open.
  std::string json = obs::ChromeTraceJson(tracer);
  auto doc = obs::ParseJson(json);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const obs::JsonValue* events = doc->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  bool found_begin = false;
  for (const obs::JsonValue& event : events->items) {
    const obs::JsonValue* ph = event.Find("ph");
    if (ph != nullptr && ph->str == "B") found_begin = true;
  }
  EXPECT_TRUE(found_begin);
}

// --- Memory accounting ---

TEST(MemoryAccountingTest, TableApproxBytesGrowsWithContent) {
  Table t("t");
  ASSERT_TRUE(t.AddColumn("id", Column::Int64s({1, 2, 3})).ok());
  size_t base = t.ApproxBytes();
  EXPECT_GT(base, 0u);
  ASSERT_TRUE(
      t.AddColumn("name", Column::Strings({"ann", "bob", "cid"})).ok());
  size_t with_strings = t.ApproxBytes();
  EXPECT_GT(with_strings, base);
  // Equal content reports equal bytes (the accounting is size-based, so
  // the gauges derived from it are deterministic).
  Table u("t");
  ASSERT_TRUE(u.AddColumn("id", Column::Int64s({1, 2, 3})).ok());
  ASSERT_TRUE(
      u.AddColumn("name", Column::Strings({"ann", "bob", "cid"})).ok());
  EXPECT_EQ(u.ApproxBytes(), with_strings);
}

TEST(MemoryAccountingTest, JoinIndexCacheBytesAfterPrewarm) {
  datagen::LakeSpec spec;
  spec.rows = 200;
  spec.joinable_tables = 4;
  spec.total_features = 20;
  datagen::BuiltLake built = datagen::BuildLake(spec);
  auto drg = BuildDrgFromKfk(built.lake);
  ASSERT_TRUE(drg.ok());

  obs::MetricsRegistry registry;
  JoinIndexCache cache(&built.lake, /*seed=*/42, &registry);
  EXPECT_EQ(registry.GaugeValue("join_index_cache.bytes"), 0);
  cache.Prewarm(*drg, /*pool=*/nullptr);
  int64_t bytes = registry.GaugeValue("join_index_cache.bytes");
  int64_t peak = registry.GaugeValue("join_index_cache.bytes_peak");
  EXPECT_GT(bytes, 0);
  EXPECT_GE(peak, bytes);  // High-water mark never trails the level.
}

TEST(MemoryAccountingTest, AddBytesWithPeakKeepsHighWater) {
  obs::MetricsRegistry registry;
  obs::Gauge* bytes = registry.GetGauge("x.bytes");
  obs::Gauge* peak = registry.GetGauge("x.bytes_peak");
  obs::AddBytesWithPeak(bytes, peak, 100);
  obs::AddBytesWithPeak(bytes, peak, 50);
  EXPECT_EQ(bytes->value(), 150);
  EXPECT_EQ(peak->value(), 150);
  obs::AddBytesWithPeak(bytes, peak, -120);  // Eviction / release.
  EXPECT_EQ(bytes->value(), 30);
  EXPECT_EQ(peak->value(), 150);
  // Null-safe.
  obs::AddBytesWithPeak(nullptr, nullptr, 10);
}

TEST(MemoryAccountingTest, ProcessPeakRssIsPositiveAndNonDeterministic) {
  EXPECT_GT(obs::ProcessPeakRssBytes(), 0);

  obs::MetricsRegistry registry;
  registry.GetCounter("work.done")->Increment(1);
  std::string before = obs::DeterministicDigest(registry, nullptr);
  obs::RecordProcessPeakRss(&registry);
  EXPECT_GT(registry.GaugeValue("process.peak_rss_bytes"), 0);
  // RSS is machine/scheduling state, so the gauge must be registered
  // non-deterministic and leave the digest unchanged.
  EXPECT_EQ(obs::DeterministicDigest(registry, nullptr), before);
  // Null-safe.
  obs::RecordProcessPeakRss(nullptr);
}

}  // namespace
}  // namespace autofeat
