// The bench-regression gate: JSON parsing, counter/gauge comparison
// semantics (10% drift in either direction, growth-only byte gauges,
// skipped scheduling-dependent series, timings and latency quantiles never
// compared), and the failure modes CI depends on (mismatched benches,
// malformed documents).

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "obs/bench_diff.h"
#include "obs/json_value.h"
#include "support/malformed_json.h"

namespace autofeat {
namespace {

// A join_path-shaped record: two timing rows, one `_ns` latency quantile
// series, a deterministic counter, a scheduling-dependent counter and a
// byte gauge.
std::string BenchDoc(double eval_seconds, double latency_ns, int candidates,
                     int cache_bytes) {
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"schema\": \"autofeat.bench.v1\", \"bench\": \"join_path\","
      " \"mode\": \"quick\", \"timings\": ["
      "{\"phase\": \"candidate_eval\", \"threads\": 1, \"seconds\": %.6f},"
      "{\"phase\": \"micro_join\", \"threads\": 1, \"seconds\": %.6f}],"
      " \"metrics\": {\"counters\": {"
      "\"discovery.candidates_scored\": %d,"
      "\"thread_pool.tasks_executed\": 9999},"
      " \"gauges\": {\"join_index_cache.bytes\": %d},"
      " \"quantiles\": {\"serve.query_latency_ns\": {\"count\": 100,"
      " \"sum\": 1, \"min\": 1, \"max\": 1, \"p50\": %.0f, \"p90\": %.0f,"
      " \"p99\": %.0f, \"p999\": %.0f}}}}",
      eval_seconds, eval_seconds / 500, candidates, cache_bytes, latency_ns,
      latency_ns, latency_ns, latency_ns);
  return buf;
}

TEST(BenchDiffTest, IdenticalRunsPass) {
  std::string doc = BenchDoc(1.0, 1e6, 500, 100000);
  auto report = obs::DiffBenchReports(doc, doc);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->ok());
  EXPECT_EQ(report->num_regressions(), 0u);
  EXPECT_EQ(report->bench, "join_path");
  EXPECT_EQ(report->metrics.size(), 2u);
  // thread_pool.* is scheduling-dependent and must be skipped.
  for (const obs::BenchDiffEntry& e : report->metrics) {
    EXPECT_EQ(e.name.rfind("thread_pool.", 0), std::string::npos) << e.name;
  }
}

TEST(BenchDiffTest, TimingsAndQuantilesAreNotCompared) {
  // Timings and `_ns` latency quantiles move 100x in both directions while
  // every counter and gauge is equal: wall-clock is bench/ledger's job.
  std::string baseline = BenchDoc(1.0, 1e6, 500, 100000);
  for (double scale : {100.0, 0.01}) {
    std::string current = BenchDoc(scale, scale * 1e6, 500, 100000);
    auto report = obs::DiffBenchReports(baseline, current);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report->ok()) << report->Summary();
    EXPECT_TRUE(report->notes.empty());
    for (const obs::BenchDiffEntry& e : report->metrics) {
      EXPECT_EQ(e.delta_ratio, 0.0) << e.name;
    }
  }
}

TEST(BenchDiffTest, RecordWithoutTimingsParses) {
  std::string with_timings = BenchDoc(1.0, 1e6, 500, 100000);
  std::string without_timings =
      "{\"bench\": \"join_path\", \"mode\": \"quick\","
      " \"metrics\": {\"counters\": {\"discovery.candidates_scored\": 500},"
      " \"gauges\": {\"join_index_cache.bytes\": 100000}}}";
  for (const auto& [baseline, current] :
       {std::pair{with_timings, without_timings},
        std::pair{without_timings, without_timings}}) {
    auto report = obs::DiffBenchReports(baseline, current);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report->ok()) << report->Summary();
    EXPECT_EQ(report->metrics.size(), 2u);
  }
}

TEST(BenchDiffTest, DeterministicMetricDriftFlagsBothDirections) {
  std::string baseline = BenchDoc(1.0, 1e6, 500, 100000);
  // Deterministic counters are pure functions of the workload; drift in
  // either direction is a behavioural change.
  for (int candidates : {300, 700}) {
    std::string current = BenchDoc(1.0, 1e6, candidates, 100000);
    auto report = obs::DiffBenchReports(baseline, current);
    ASSERT_TRUE(report.ok());
    EXPECT_FALSE(report->ok()) << candidates << " candidates not flagged";
    EXPECT_EQ(report->num_regressions(), 1u);
    EXPECT_NE(report->Summary().find("REGRESSION"), std::string::npos);
  }
  // Within 10% passes.
  auto small = obs::DiffBenchReports(baseline, BenchDoc(1.0, 1e6, 540, 100000));
  ASSERT_TRUE(small.ok());
  EXPECT_TRUE(small->ok());
}

TEST(BenchDiffTest, ByteGaugesFlagGrowthOnly) {
  std::string baseline = BenchDoc(1.0, 1e6, 500, 100000);
  // 50% more cache memory: regression.
  auto grown = obs::DiffBenchReports(baseline, BenchDoc(1.0, 1e6, 500, 150000));
  ASSERT_TRUE(grown.ok());
  EXPECT_FALSE(grown->ok());
  // 50% less: an improvement, not a regression.
  auto shrunk = obs::DiffBenchReports(baseline, BenchDoc(1.0, 1e6, 500, 50000));
  ASSERT_TRUE(shrunk.ok());
  EXPECT_TRUE(shrunk->ok());
}

TEST(BenchDiffTest, OneSidedEntriesBecomeNotesNotRegressions) {
  std::string baseline =
      "{\"bench\": \"b\", \"mode\": \"quick\","
      " \"metrics\": {\"counters\": {\"old.count\": 1}}}";
  std::string current =
      "{\"bench\": \"b\", \"mode\": \"quick\","
      " \"metrics\": {\"gauges\": {\"new.bytes\": 1}}}";
  auto report = obs::DiffBenchReports(baseline, current);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok());
  ASSERT_EQ(report->notes.size(), 2u);
  EXPECT_EQ(report->notes[0], "metric only in baseline: old.count");
  EXPECT_EQ(report->notes[1], "metric only in current: new.bytes");
}

TEST(BenchDiffTest, MismatchesAndMalformedInputError) {
  std::string a = BenchDoc(1.0, 1e6, 500, 100000);
  std::string other_bench =
      "{\"bench\": \"other\", \"mode\": \"quick\", \"timings\": []}";
  EXPECT_FALSE(obs::DiffBenchReports(a, other_bench).ok());
  std::string other_mode =
      "{\"bench\": \"join_path\", \"mode\": \"full\", \"timings\": []}";
  EXPECT_FALSE(obs::DiffBenchReports(a, other_mode).ok());
  EXPECT_FALSE(obs::DiffBenchReports(a, "{not json").ok());
  EXPECT_FALSE(obs::DiffBenchReports(a, "{\"bench\": \"join_path\"}").ok());
}

// --- JSON parser units (the gate's only input surface) ---

TEST(JsonValueTest, ParsesScalarsArraysObjects) {
  auto doc = obs::ParseJson(
      "{\"a\": 1.5, \"b\": [true, false, null, -3e2], \"c\": {\"d\": \"x\"}}");
  ASSERT_TRUE(doc.ok());
  ASSERT_TRUE(doc->is_object());
  EXPECT_EQ(doc->Find("a")->number, 1.5);
  const obs::JsonValue* b = doc->Find("b");
  ASSERT_TRUE(b->is_array());
  ASSERT_EQ(b->items.size(), 4u);
  EXPECT_TRUE(b->items[0].boolean);
  EXPECT_TRUE(b->items[2].is_null());
  EXPECT_EQ(b->items[3].number, -300.0);
  EXPECT_EQ(doc->Find("c")->Find("d")->str, "x");
  EXPECT_EQ(doc->Find("missing"), nullptr);
}

TEST(JsonValueTest, DecodesEscapes) {
  auto doc = obs::ParseJson("\"q\\\"b\\\\n\\nt\\tu\\u0041\\u00e9\"");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->str, "q\"b\\n\nt\tuA\xc3\xa9");
}

TEST(JsonValueTest, RejectsMalformedDocuments) {
  for (const char* bad : testsupport::kMalformedJson) {
    EXPECT_FALSE(obs::ParseJson(bad).ok()) << bad;
  }
}

}  // namespace
}  // namespace autofeat
