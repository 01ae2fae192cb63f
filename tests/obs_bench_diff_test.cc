// The bench-regression gate: JSON parsing, timing/metric comparison
// semantics (relative threshold + absolute noise floor, growth-only byte
// gauges, skipped scheduling-dependent series), and the failure modes CI
// depends on (mismatched benches, malformed documents).

#include <gtest/gtest.h>

#include <string>

#include "obs/bench_diff.h"
#include "obs/json_value.h"
#include "support/malformed_json.h"

namespace autofeat {
namespace {

std::string BenchDoc(double eval_seconds, double micro_seconds,
                     int candidates, int cache_bytes) {
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
      " \"gauges\": {\"join_index_cache.bytes\": %d}}}",
      eval_seconds, micro_seconds, candidates, cache_bytes);
  return buf;
}

TEST(BenchDiffTest, IdenticalRunsPass) {
  std::string doc = BenchDoc(1.0, 0.002, 500, 100000);
  auto report = obs::DiffBenchReports(doc, doc);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->ok());
  EXPECT_EQ(report->num_regressions(), 0u);
  EXPECT_EQ(report->bench, "join_path");
  EXPECT_EQ(report->timings.size(), 2u);
  // thread_pool.* is scheduling-dependent and must be skipped.
  for (const obs::BenchDiffEntry& e : report->metrics) {
    EXPECT_EQ(e.name.rfind("thread_pool.", 0), std::string::npos) << e.name;
  }
}

TEST(BenchDiffTest, InjectedSlowdownFlagsRegression) {
  std::string baseline = BenchDoc(1.0, 0.002, 500, 100000);
  // 20% slower candidate_eval: over the 10% threshold and the noise floor.
  std::string current = BenchDoc(1.2, 0.002, 500, 100000);
  auto report = obs::DiffBenchReports(baseline, current);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->ok());
  ASSERT_EQ(report->num_regressions(), 1u);
  bool flagged = false;
  for (const obs::BenchDiffEntry& e : report->timings) {
    if (e.name == "candidate_eval@1") {
      flagged = e.regression;
      EXPECT_NEAR(e.delta_ratio, 0.2, 1e-9);
    }
  }
  EXPECT_TRUE(flagged);
  EXPECT_NE(report->Summary().find("REGRESSION"), std::string::npos);
}

TEST(BenchDiffTest, NoiseFloorAbsorbsTinyAbsoluteDeltas) {
  // micro_join doubles (+100% relative) but the delta is 2ms — far below
  // the 10ms floor, so a pure ratio test would false-positive here.
  std::string baseline = BenchDoc(1.0, 0.002, 500, 100000);
  std::string current = BenchDoc(1.0, 0.004, 500, 100000);
  auto report = obs::DiffBenchReports(baseline, current);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok());
}

TEST(BenchDiffTest, SpeedupNeverFlags) {
  std::string baseline = BenchDoc(1.0, 0.002, 500, 100000);
  std::string current = BenchDoc(0.5, 0.001, 500, 100000);
  auto report = obs::DiffBenchReports(baseline, current);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok());
}

TEST(BenchDiffTest, DeterministicMetricDriftFlagsBothDirections) {
  std::string baseline = BenchDoc(1.0, 0.002, 500, 100000);
  // Deterministic counters are pure functions of the workload; drift in
  // either direction is a behavioural change.
  for (int candidates : {300, 700}) {
    std::string current = BenchDoc(1.0, 0.002, candidates, 100000);
    auto report = obs::DiffBenchReports(baseline, current);
    ASSERT_TRUE(report.ok());
    EXPECT_FALSE(report->ok()) << candidates << " candidates not flagged";
  }
}

TEST(BenchDiffTest, ByteGaugesFlagGrowthOnly) {
  std::string baseline = BenchDoc(1.0, 0.002, 500, 100000);
  // 50% more cache memory: regression.
  auto grown = obs::DiffBenchReports(baseline, BenchDoc(1.0, 0.002, 500,
                                                        150000));
  ASSERT_TRUE(grown.ok());
  EXPECT_FALSE(grown->ok());
  // 50% less: an improvement, not a regression.
  auto shrunk = obs::DiffBenchReports(baseline, BenchDoc(1.0, 0.002, 500,
                                                         50000));
  ASSERT_TRUE(shrunk.ok());
  EXPECT_TRUE(shrunk->ok());
}

TEST(BenchDiffTest, ThresholdsAreConfigurable) {
  std::string baseline = BenchDoc(1.0, 0.002, 500, 100000);
  std::string current = BenchDoc(1.05, 0.002, 500, 100000);
  obs::BenchDiffOptions loose;
  auto ok_report = obs::DiffBenchReports(baseline, current, loose);
  ASSERT_TRUE(ok_report.ok());
  EXPECT_TRUE(ok_report->ok());  // +5% passes the default 10% gate.
  obs::BenchDiffOptions strict;
  strict.time_threshold = 0.02;
  auto strict_report = obs::DiffBenchReports(baseline, current, strict);
  ASSERT_TRUE(strict_report.ok());
  EXPECT_FALSE(strict_report->ok());
}

// A doc whose embedded obs report carries a latency quantile series (the
// serving bench shape): one `_ns` histogram plus a unitless one that the
// gate must ignore.
std::string QuantileDoc(double p50_ns, double p99_ns) {
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"schema\": \"autofeat.bench.v1\", \"bench\": \"serving\","
      " \"mode\": \"quick\", \"timings\": [],"
      " \"metrics\": {\"quantiles\": {"
      "\"serve.query_latency_ns\": {\"count\": 100, \"sum\": 1, \"min\": 1,"
      " \"max\": 1, \"p50\": %.0f, \"p90\": %.0f, \"p99\": %.0f,"
      " \"p999\": %.0f},"
      "\"frontier_size\": {\"count\": 9, \"sum\": 9, \"min\": 1, \"max\": 1,"
      " \"p50\": 1, \"p90\": 1, \"p99\": 1, \"p999\": 1}}}}",
      p50_ns, p99_ns, p99_ns, p99_ns);
  return buf;
}

TEST(BenchDiffTest, QuantileSlowdownFlagsUnderTimingRule) {
  // p99 goes 100ms -> 150ms: +50% relative and a 50ms absolute delta,
  // over both the 10% threshold and the 10ms floor.
  std::string baseline = QuantileDoc(50e6, 100e6);
  std::string current = QuantileDoc(50e6, 150e6);
  auto report = obs::DiffBenchReports(baseline, current);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->ok());
  ASSERT_EQ(report->num_regressions(), 1u);
  bool flagged = false;
  for (const obs::BenchDiffEntry& e : report->quantiles) {
    // The unitless series must not appear at all.
    EXPECT_EQ(e.name.rfind("frontier_size", 0), std::string::npos) << e.name;
    if (e.name == "serve.query_latency_ns/p99") {
      flagged = e.regression;
      EXPECT_NEAR(e.baseline, 0.1, 1e-9);  // ns converted to seconds
      EXPECT_NEAR(e.current, 0.15, 1e-9);
      EXPECT_NEAR(e.delta_ratio, 0.5, 1e-9);
    }
  }
  EXPECT_TRUE(flagged);
  EXPECT_NE(report->Summary().find("quantile"), std::string::npos);
}

TEST(BenchDiffTest, QuantileNoiseFloorAbsorbsSmallDeltas) {
  // p50 doubles 2ms -> 4ms: +100% relative but 2ms absolute, under the
  // 10ms floor — exactly the timing rule.
  std::string baseline = QuantileDoc(2e6, 100e6);
  std::string current = QuantileDoc(4e6, 100e6);
  auto report = obs::DiffBenchReports(baseline, current);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok());
  // And a speedup never flags.
  auto faster = obs::DiffBenchReports(QuantileDoc(50e6, 100e6),
                                      QuantileDoc(25e6, 50e6));
  ASSERT_TRUE(faster.ok());
  EXPECT_TRUE(faster->ok());
}

TEST(BenchDiffTest, QuantileOnlyOnOneSideBecomesANote) {
  std::string with = QuantileDoc(50e6, 100e6);
  std::string without =
      "{\"bench\": \"serving\", \"mode\": \"quick\", \"timings\": [],"
      " \"metrics\": {}}";
  auto report = obs::DiffBenchReports(with, without);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok());
  bool noted = false;
  for (const std::string& note : report->notes) {
    if (note.find("quantile only in baseline") != std::string::npos) {
      noted = true;
    }
  }
  EXPECT_TRUE(noted);
}

TEST(BenchDiffTest, OneSidedEntriesBecomeNotesNotRegressions) {
  std::string baseline =
      "{\"bench\": \"b\", \"mode\": \"quick\", \"timings\": ["
      "{\"phase\": \"old_phase\", \"threads\": 1, \"seconds\": 1.0}],"
      " \"metrics\": {}}";
  std::string current =
      "{\"bench\": \"b\", \"mode\": \"quick\", \"timings\": ["
      "{\"phase\": \"new_phase\", \"threads\": 1, \"seconds\": 1.0}],"
      " \"metrics\": {}}";
  auto report = obs::DiffBenchReports(baseline, current);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok());
  EXPECT_EQ(report->notes.size(), 2u);
}

TEST(BenchDiffTest, MismatchesAndMalformedInputError) {
  std::string a = BenchDoc(1.0, 0.002, 500, 100000);
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
