// DRG-construction scaling: all-pairs vs MinHash-LSH candidate generation.
//
// Grows pod-structured lakes (datagen/scale_lake.h — sparsely joinable,
// linear true edge count) and times BuildDrgByDiscovery in both candidate
// modes at each size, demonstrating the quadratic-vs-near-linear crossover.
// Self-gating: exits non-zero when LSH recall drops below 95% of the exact
// edges, when the candidate count stops growing sub-quadratically, when the
// deterministic obs digest differs across thread counts in either mode, or
// (at >= 1000 tables) when the LSH speedup falls under 5x.
//
// AUTOFEAT_DRG_SCALE_MAX_TABLES caps the scale sweep (CI runs with 200 so
// the committed baseline stays cheap to regenerate); quick mode tops out at
// 1,000 tables, AUTOFEAT_BENCH_MODE=full at 5,000.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "harness.h"
#include "datagen/scale_lake.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace autofeat::benchx {
namespace {

// One "<from>.<col>><to>.<col>=<weight>" line per edge, sorted — an
// order-independent identity of the discovered graph for recall accounting.
std::set<std::string> EdgeSet(const DatasetRelationGraph& drg) {
  std::set<std::string> edges;
  for (size_t a = 0; a < drg.num_nodes(); ++a) {
    for (size_t b : drg.Neighbors(a)) {
      if (b <= a) continue;
      for (const JoinStep& step : drg.EdgesBetween(a, b)) {
        std::ostringstream line;
        line.precision(17);
        line << drg.NodeName(a) << "." << step.from_column << ">"
             << drg.NodeName(b) << "." << step.to_column << "="
             << step.weight;
        edges.insert(line.str());
      }
    }
  }
  return edges;
}

struct ModeRun {
  double seconds = 0.0;
  size_t edges = 0;
  uint64_t candidate_pairs = 0;
  std::set<std::string> edge_set;
  std::unique_ptr<obs::MetricsRegistry> metrics;
};

ModeRun RunMode(const DataLake& lake, CandidateMode mode,
                size_t num_threads) {
  ModeRun run;
  run.metrics = std::make_unique<obs::MetricsRegistry>();
  std::unique_ptr<ThreadPool> pool;
  if (ResolveNumThreads(num_threads) > 1) {
    pool = std::make_unique<ThreadPool>(num_threads);
    pool->set_metrics(run.metrics.get());
  }
  MatchOptions options;
  options.candidate_mode = mode;
  Timer timer;
  auto drg = BuildDrgByDiscovery(lake, options, pool.get(), run.metrics.get());
  run.seconds = timer.ElapsedSeconds();
  drg.status().Abort("drg_scale discovery");
  run.edges = drg->num_edges();
  run.edge_set = EdgeSet(*drg);
  run.candidate_pairs =
      run.metrics->GetCounter("drg.candidate_pairs")->value();
  return run;
}

size_t MaxTablesCap() {
  const char* cap = std::getenv("AUTOFEAT_DRG_SCALE_MAX_TABLES");
  if (cap == nullptr || *cap == '\0') return 0;
  return static_cast<size_t>(std::atoll(cap));
}

}  // namespace
}  // namespace autofeat::benchx

int main() {
  using namespace autofeat;
  using namespace autofeat::benchx;

  PrintModeBanner("drg_scale");
  std::vector<size_t> scales = FullMode()
                                   ? std::vector<size_t>{10, 100, 1000, 5000}
                                   : std::vector<size_t>{10, 50, 200, 1000};
  if (size_t cap = MaxTablesCap(); cap > 0) {
    std::erase_if(scales, [&](size_t n) { return n > cap; });
    std::printf("scale sweep capped at %zu tables "
                "(AUTOFEAT_DRG_SCALE_MAX_TABLES)\n",
                cap);
  }

  std::printf("\n%-8s %12s %12s %8s %12s %12s %8s\n", "tables",
              "all_pairs(s)", "lsh(s)", "speedup", "candidates", "edges",
              "recall");
  PrintRule(80);

  std::vector<BenchTiming> timings;
  std::unique_ptr<obs::MetricsRegistry> report_metrics;
  bool ok = true;
  double largest_speedup = 0.0;
  size_t largest_scale = 0;

  for (size_t n : scales) {
    datagen::ScaleLakeSpec spec;
    spec.num_tables = n;
    DataLake lake = datagen::BuildScaleLake(spec);

    ModeRun all_pairs = RunMode(lake, CandidateMode::kAllPairs, 1);
    ModeRun lsh = RunMode(lake, CandidateMode::kLsh, 1);

    size_t recovered = 0;
    for (const auto& edge : lsh.edge_set) {
      recovered += all_pairs.edge_set.count(edge);
    }
    double recall = all_pairs.edge_set.empty()
                        ? 1.0
                        : static_cast<double>(recovered) /
                              static_cast<double>(all_pairs.edge_set.size());
    double speedup =
        lsh.seconds > 0 ? all_pairs.seconds / lsh.seconds : 0.0;
    std::printf("%-8zu %12.3f %12.3f %7.2fx %12llu %12zu %7.1f%%\n", n,
                all_pairs.seconds, lsh.seconds, speedup,
                static_cast<unsigned long long>(lsh.candidate_pairs),
                all_pairs.edges, recall * 100.0);

    size_t expected_edges = datagen::ExpectedScaleLakeEdges(spec);
    if (all_pairs.edges != expected_edges) {
      std::printf("  FAIL: exact mode found %zu edges, generator promises "
                  "%zu\n",
                  all_pairs.edges, expected_edges);
      ok = false;
    }
    if (recall < 0.95) {
      std::printf("  FAIL: LSH recall %.3f < 0.95\n", recall);
      ok = false;
    }
    // Sub-quadratic growth: on a pod lake true joinability is ~2n pairs;
    // leave headroom for spurious band collisions but stay far under n²/2.
    if (lsh.candidate_pairs > 4 * n + 64) {
      std::printf("  FAIL: %llu candidate pairs exceeds the linear bound "
                  "%zu\n",
                  static_cast<unsigned long long>(lsh.candidate_pairs),
                  4 * n + 64);
      ok = false;
    }

    timings.push_back({"all_pairs_n" + std::to_string(n), 1,
                       all_pairs.seconds});
    timings.push_back({"lsh_n" + std::to_string(n), 1, lsh.seconds});
    report_metrics = std::move(lsh.metrics);
    largest_speedup = speedup;
    largest_scale = n;
  }

  if (largest_scale >= 1000 && largest_speedup < 5.0) {
    std::printf("FAIL: LSH speedup %.2fx < 5x at %zu tables\n",
                largest_speedup, largest_scale);
    ok = false;
  }

  // Determinism: the deterministic obs digest must be byte-identical across
  // thread counts in both modes (checked at a mid scale to keep the 3x2
  // extra discovery runs cheap).
  {
    datagen::ScaleLakeSpec spec;
    spec.num_tables = std::min<size_t>(largest_scale, 200);
    DataLake lake = datagen::BuildScaleLake(spec);
    for (CandidateMode mode : {CandidateMode::kAllPairs, CandidateMode::kLsh}) {
      const char* name =
          mode == CandidateMode::kAllPairs ? "all_pairs" : "lsh";
      std::string digest1;
      bool mode_ok = true;
      for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
        ModeRun run = RunMode(lake, mode, threads);
        std::string digest =
            obs::DeterministicDigest(*run.metrics, /*tracer=*/nullptr);
        if (threads == 1) {
          digest1 = digest;
        } else if (digest != digest1) {
          std::printf("FAIL: %s digest at %zu threads (%s) differs from 1 "
                      "thread (%s)\n",
                      name, threads, digest.c_str(), digest1.c_str());
          mode_ok = false;
        }
      }
      std::printf("%s digest identical at 1/2/8 threads: %s\n", name,
                  mode_ok ? "yes" : "NO");
      ok = ok && mode_ok;
    }
  }

  // The record holds the largest scale's LSH-mode metrics, read after
  // BuildDrgByDiscovery has freed its sketch cache, so `sketch_cache.bytes`
  // reads 0: the `.bytes_peak` gauges are this bench's memory bound.
  WriteBenchJson("drg_scale", timings, report_metrics.get());
  std::printf("\ndrg_scale: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
