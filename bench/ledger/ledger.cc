// ledger — the repository's end-to-end benchmark with a per-layer ledger.
//
//   ledger --workload NAME --seed N [--seconds S] [--trace [0|1]]
//          [--work-dir DIR]
//   ledger --selftest
//
// Generates the workload's seeded lake into DIR (default .bench_work) in a
// child process, then drives the system only through its public entry
// points (DataLake::FromDirectory, BuildDrgByDiscovery / BuildDrgFromKfk,
// AutoFeat::DiscoverFeatures / Augment, LakeService::Create / Apply /
// Discover) and times each call from outside. It prints every end-to-end
// metric by name with its unit, checks the outputs, and ends with one JSON
// line: {"correct", "attempted", "failed", "metrics"}. Any failed operation
// or check makes the exit status 1.
//
// --trace runs the workload twice: untraced (the reference for the tracing
// overhead) and then with a Tracer and registries attached. It prints the
// per-layer ledger, writes DIR/TRACE_ledger_<workload>.json (Chrome trace
// events, open at https://ui.perfetto.dev), and the JSON line carries the
// per-layer metrics instead of the end-to-end ones. See README.md for the
// workloads, the metrics and which end-to-end metric each layer moves.

#include <pthread.h>
#include <sched.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common.h"
#include "obs/chrome_trace.h"
#include "obs/memory.h"
#include "span_ledger.h"
#include "util/string_utils.h"

namespace autofeat::ledger {

bool Tally::Op(const Status& status, const std::string& what) {
  return Check(status.ok(),
               status.ok() ? what : what + ": " + status.ToString());
}

bool Tally::Check(bool ok, const std::string& what) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++attempted_;
  if (!ok) {
    ++failed_;
    if (failures_.size() < 10) failures_.push_back(what);
  }
  return ok;
}

size_t Tally::attempted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return attempted_;
}

size_t Tally::failed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return failed_;
}

std::vector<std::string> Tally::failures() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return failures_;
}

void PinThisThread(size_t slot) {
  // Read once, by the first client thread, which inherits the process's
  // unpinned mask.
  static const std::vector<int> kCpus = [] {
    std::vector<int> cpus;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
      }
    }
    return cpus;
  }();
  if (kCpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(kCpus[slot % kCpus.size()], &set);
  // Best effort: an unpinned thread measures the same work, only noisier.
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

std::string Format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list sizing;
  va_copy(sizing, args);
  const int size = std::vsnprintf(nullptr, 0, fmt, sizing);
  va_end(sizing);
  std::string out(size > 0 ? static_cast<size_t>(size) : 0, '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  va_end(args);
  return out;
}

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"lake_dense", GenerateLakeDense, RunLakeDense},
      {"kfk_train", GenerateKfkTrain, RunKfkTrain},
      {"serve_mixed", GenerateServeMixed, RunServeMixed},
      {"serve_wide", GenerateServeWide, RunServeWide},
  };
  return kWorkloads;
}

namespace {

/// Length cap of the traced pass's measured window. Per-layer figures are
/// per-operation means, which a few seconds of operations fix; a longer
/// window only grows the trace (a serving second is about 60k spans).
constexpr double kTracedSeconds = 3.0;

struct Args {
  std::string workload;
  uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".bench_work";
  bool selftest = false;
};

void PrintUsage() {
  std::fprintf(stderr,
               "usage: ledger --workload NAME --seed N [--seconds S] "
               "[--trace [0|1]] [--work-dir DIR]\n"
               "       ledger --selftest\nworkloads:");
  for (const Workload& w : Workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--selftest") {
      args->selftest = true;
    } else if (arg == "--trace") {
      // Bare --trace, or --trace 0|1 as run.py's callers pass it.
      args->trace = true;
      if (has_value && (std::string(argv[i + 1]) == "0" ||
                        std::string(argv[i + 1]) == "1")) {
        args->trace = std::string(argv[++i]) == "1";
      }
    } else if (arg == "--workload" && has_value) {
      args->workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      char* end = nullptr;
      args->seed = std::strtoull(argv[++i], &end, 10);
      if (*end != '\0') return false;
    } else if (arg == "--seconds" && has_value) {
      char* end = nullptr;
      args->seconds = std::strtod(argv[++i], &end);
      if (*end != '\0' || !(args->seconds > 0) || args->seconds > 600) {
        return false;
      }
    } else if (arg == "--work-dir" && has_value) {
      args->work_dir = argv[++i];
    } else {
      return false;
    }
  }
  return args->selftest || !args->workload.empty();
}

/// Writes the lake in a child process, so neither generation time nor its
/// allocations reach the measured process (peak_rss_mb stays the system's).
Status GenerateInChild(const Workload& workload, uint64_t seed,
                       const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::IOError("cannot create " + dir + ": " + ec.message());
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) return Status::IOError("fork failed");
  if (pid == 0) {
    const Status status = workload.generate(seed, dir);
    if (!status.ok()) {
      std::fprintf(stderr, "generate: %s\n", status.ToString().c_str());
    }
    std::fflush(nullptr);
    _exit(status.ok() ? 0 : 1);
  }
  int wait_status = 0;
  if (waitpid(pid, &wait_status, 0) != pid || !WIFEXITED(wait_status) ||
      WEXITSTATUS(wait_status) != 0) {
    return Status::IOError("lake generation failed");
  }
  return Status::OK();
}

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

double Per(double value, double n) { return n > 0 ? value / n : 0.0; }

std::vector<Metric> EndToEndMetrics(const PassResult& pass) {
  return {
      {"setup_s", "s", Median(pass.setup_s)},
      {"discover_ms", "ms", Median(pass.discover_ms)},
      {"augment_or_mutation_ms", "ms", Median(pass.other_ms)},
      {"ops_per_s", "1/s", Per(static_cast<double>(pass.ops), pass.window_s)},
      {"peak_rss_mb", "MB",
       static_cast<double>(obs::ProcessPeakRssBytes()) / 1e6},
  };
}

/// Reads of one traced pass: span aggregates, both registries and the
/// workload's own probe figures.
class LayerView {
 public:
  LayerView(const std::map<std::string, SpanStat>& spans,
            const obs::MetricsRegistry& metrics,
            const obs::MetricsRegistry& drg_metrics, const PassResult& pass)
      : spans_(spans), metrics_(metrics), drg_(drg_metrics), pass_(pass) {}

  double Count(const std::string& span) const { return Get(span).count; }
  double Total(const std::string& span) const { return Get(span).total_s; }
  double Self(const std::string& span) const { return Get(span).self_s; }
  double Counter(const std::string& name) const {
    return static_cast<double>(metrics_.CounterValue(name));
  }
  double DrgCounter(const std::string& name) const {
    return static_cast<double>(drg_.CounterValue(name));
  }
  bool HasLayer(const std::string& name) const {
    return pass_.layers.count(name) > 0;
  }
  double Layer(const std::string& name) const {
    auto it = pass_.layers.find(name);
    return it == pass_.layers.end() ? 0.0 : it->second;
  }
  /// The benchmark's own per-operation root spans, summed.
  SpanStat Roots() const {
    SpanStat sum;
    for (const auto& [name, stat] : spans_) {
      if (!StartsWith(name, "ledger.")) continue;
      sum.count += stat.count;
      sum.total_s += stat.total_s;
      sum.self_s += stat.self_s;
    }
    return sum;
  }

 private:
  SpanStat Get(const std::string& span) const {
    auto it = spans_.find(span);
    return it == spans_.end() ? SpanStat{} : it->second;
  }

  const std::map<std::string, SpanStat>& spans_;
  const obs::MetricsRegistry& metrics_;
  const obs::MetricsRegistry& drg_;
  const PassResult& pass_;
};

/// The per-layer metrics every workload reports (BENCHMARK.json per_layer).
/// Times are seconds per occurrence of the operation that drives the
/// layer: per load, per DRG build, per probe, or per discovery run.
std::vector<Metric> PerLayerMetrics(const LayerView& v,
                                    const PassResult& untraced,
                                    const PassResult& traced) {
  const double discoveries = v.Count("discover");
  const double builds = v.Count("discovery.drg_build");
  const double untraced_ms = Median(untraced.discover_ms);
  const SpanStat roots = v.Roots();
  return {
      {"table.load_s", "s",
       Per(v.Total("table.load"), v.Count("table.load"))},
      {"discovery.drg_build_s", "s",
       Per(v.Total("discovery.drg_build"), builds)},
      {"discovery.join_index_prewarm_s", "s",
       v.Layer("discovery.join_index_prewarm_s")},
      {"core.prewarm_s", "s", Per(v.Self("discover.prewarm"), discoveries)},
      {"core.seed_base_s", "s",
       Per(v.Self("discover.seed_base_features"), discoveries)},
      {"core.bfs_candidate_s", "s", Per(v.Self("bfs.candidate"), discoveries)},
      {"core.bfs_merge_s", "s", Per(v.Self("discover.bfs"), discoveries)},
      {"fs.selection_s", "s",
       Per(traced.fs_seconds, static_cast<double>(traced.discoveries))},
      {"unattributed_s", "s",
       Per(roots.self_s, static_cast<double>(roots.count))},
      {"trace_overhead_pct", "%",
       untraced_ms > 0
           ? 100.0 * (Median(traced.discover_ms) / untraced_ms - 1.0)
           : 0.0},
      {"drg.pairs_scored", "count",
       Per(v.DrgCounter("drg.pairs_scored"), builds)},
      {"drg.pairs_matched", "count",
       Per(v.DrgCounter("drg.pairs_matched"), builds)},
      {"drg.match_ratio", "ratio",
       Per(v.DrgCounter("drg.pairs_matched"),
           v.DrgCounter("drg.pairs_scored"))},
      {"sketch_cache.builds", "count",
       Per(v.DrgCounter("sketch_cache.builds"), builds)},
      {"join_index_cache.builds", "count",
       Per(v.Counter("join_index_cache.builds"), discoveries)},
      {"join_index_cache.hit_ratio", "ratio",
       Per(v.Counter("join_index_cache.hits"),
           v.Counter("join_index_cache.requests"))},
      {"discovery.candidates_scored", "count",
       Per(v.Counter("discovery.candidates_scored"), discoveries)},
      {"discovery.view_scored", "count",
       Per(v.Counter("discovery.view_scored"), discoveries)},
      {"discovery.states_materialised", "count",
       Per(v.Counter("discovery.states_materialised"), discoveries)},
      {"discovery.ranked_paths", "count",
       Per(v.Counter("discovery.ranked_paths"), discoveries)},
      {"discovery.rank_ratio", "ratio",
       Per(v.Counter("discovery.ranked_paths"),
           v.Counter("discovery.candidates_scored"))},
      {"evaluation.models_trained", "count",
       Per(v.Counter("evaluation.models_trained"), v.Count("augment"))},
      {"serve.pairs_rescored", "count", v.Layer("serve.pairs_rescored")},
      {"serve.pairs_skipped", "count", v.Layer("serve.pairs_skipped")},
      {"serve.rescore_ratio", "ratio", v.Layer("serve.rescore_ratio")},
  };
}

/// Layer figures only some workloads exercise: printed in the ledger, left
/// out of the JSON line (where a layer a workload never runs would read as
/// a constant zero).
std::vector<Metric> WorkloadLayerMetrics(const LayerView& v) {
  std::vector<Metric> out;
  const double discoveries = v.Count("discover");
  auto span_metric = [&](const char* name, double value, double n) {
    if (n > 0) out.push_back({name, "s", value / n});
  };
  if (v.HasLayer("discovery.sketch_s")) {
    const double sketch = v.Layer("discovery.sketch_s");
    out.push_back({"discovery.sketch_s", "s", sketch});
    const double builds = v.Count("discovery.drg_build");
    if (builds > 0) {
      out.push_back({"discovery.pair_score_s", "s",
                     v.Total("discovery.drg_build") / builds - sketch});
    }
  }
  span_metric("core.sample_s", v.Self("discover.stratified_sample"),
              v.Count("discover.stratified_sample") > 0 ? discoveries : 0);
  span_metric("core.evaluate_s", v.Total("augment.evaluate"),
              v.Count("augment"));
  for (const auto& [name, unit] :
       {std::pair{"core.materialize_s", "s"}, {"ml.train_s", "s"},
        {"serve.mutation_wait_ms", "ms"}}) {
    if (v.HasLayer(name)) out.push_back({name, unit, v.Layer(name)});
  }
  span_metric("serve.create_s", v.Total("serve.create"),
              v.Count("serve.create"));
  span_metric("serve.mutation_s", v.Total("serve.mutation"),
              v.Count("serve.mutation"));
  span_metric("serve.pin_snapshot_s", v.Total("serve.pin_snapshot"),
              v.Count("serve.discover"));
  span_metric("serve.query_overhead_s", v.Self("serve.discover"),
              v.Count("serve.discover"));
  return out;
}

void PrintMetrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-34s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

void PrintSpanTable(const std::map<std::string, SpanStat>& spans,
                    const LayerView& view) {
  std::vector<std::pair<std::string, SpanStat>> rows(spans.begin(),
                                                     spans.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.self_s > b.second.self_s;
  });
  std::printf("span ledger (self = duration minus the union of child "
              "intervals)\n  %-30s %9s %12s %12s\n",
              "span", "count", "total_s", "self_s");
  for (const auto& [name, stat] : rows) {
    std::printf("  %-30s %9zu %12.6f %12.6f\n", name.c_str(), stat.count,
                stat.total_s, stat.self_s);
  }
  const SpanStat roots = view.Roots();
  std::printf("  attributed below the ledger.* roots: %.2f%% of %.3f s\n",
              100.0 * (1.0 - Per(roots.self_s, roots.total_s)),
              roots.total_s);
}

void PrintPass(const PassResult& pass) {
  for (const std::string& note : pass.notes) {
    std::printf("  %s\n", note.c_str());
  }
}

/// The result: the last line of standard output. Values keep every digit
/// they were measured with.
void PrintJsonLine(bool correct, size_t attempted, size_t failed,
                   const std::vector<Metric>& metrics) {
  std::string line = Format(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
      correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double value = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    line += Format("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                   i > 0 ? ", " : "", JsonEscape(metrics[i].name).c_str(),
                   value, JsonEscape(metrics[i].unit).c_str());
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    PrintUsage();
    return 2;
  }
  if (args.selftest) return SelfTest() ? 0 : 1;
  const Workload* workload = nullptr;
  for (const Workload& w : Workloads()) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) {
    PrintUsage();
    return 2;
  }

  std::printf("ledger: workload=%s seed=%llu seconds=%g trace=%d\n",
              workload->name, static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  const std::string lake_dir =
      Format("%s/lake-%s-%llu-%d", args.work_dir.c_str(), workload->name,
             static_cast<unsigned long long>(args.seed),
             static_cast<int>(getpid()));
  Status generated = GenerateInChild(*workload, args.seed, lake_dir);
  if (!generated.ok()) {
    std::fprintf(stderr, "ledger: %s\n", generated.ToString().c_str());
    return 1;
  }

  PassOptions options;
  options.seed = args.seed;
  options.seconds = args.seconds;
  options.lake_dir = lake_dir;
  PassResult untraced;
  workload->run(options, &untraced);
  size_t attempted = untraced.tally.attempted();
  size_t failed = untraced.tally.failed();
  std::vector<std::string> failures = untraced.tally.failures();

  std::vector<Metric> reported;
  if (!args.trace) {
    reported = EndToEndMetrics(untraced);
    PrintMetrics("end-to-end (untraced)", reported);
    PrintPass(untraced);
  } else {
    obs::Tracer tracer;
    obs::MetricsRegistry metrics;
    obs::MetricsRegistry drg_metrics;
    options.seconds = std::min(args.seconds, kTracedSeconds);
    options.tracer = &tracer;
    options.metrics = &metrics;
    options.drg_metrics = &drg_metrics;
    PassResult traced;
    workload->run(options, &traced);
    attempted += traced.tally.attempted();
    failed += traced.tally.failed();
    for (const std::string& f : traced.tally.failures()) failures.push_back(f);

    const std::map<std::string, SpanStat> spans =
        AggregateByName(tracer.Snapshot());
    const LayerView view(spans, metrics, drg_metrics, traced);
    reported = PerLayerMetrics(view, untraced, traced);
    PrintSpanTable(spans, view);
    PrintMetrics("per-layer (traced pass)", reported);
    PrintMetrics("per-layer, this workload only", WorkloadLayerMetrics(view));
    PrintMetrics("end-to-end of the traced pass (diagnostic)",
                 EndToEndMetrics(traced));
    PrintPass(traced);
    const std::string trace_path = Format(
        "%s/TRACE_ledger_%s.json", args.work_dir.c_str(), workload->name);
    std::ofstream out(trace_path);
    out << obs::ChromeTraceJson(tracer);
    if (out) {
      std::printf("trace written to %s\n", trace_path.c_str());
    } else {
      std::fprintf(stderr, "warning: cannot write %s\n", trace_path.c_str());
    }
  }

  std::error_code ec;
  std::filesystem::remove_all(lake_dir, ec);
  std::printf("checks: %zu attempted, %zu failed\n", attempted, failed);
  for (const std::string& f : failures) {
    std::printf("  FAILED: %s\n", f.c_str());
  }
  PrintJsonLine(failed == 0, attempted, failed, reported);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace autofeat::ledger

int main(int argc, char** argv) {
  return autofeat::ledger::Main(argc, argv);
}
