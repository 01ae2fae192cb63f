// Serving workloads: a LakeService (LSH candidate mode) over a pod lake
// (datagen::BuildScaleLake, 120 rows a table, pods of 5) plus a labelled
// base table that joins pod 0, with concurrent Discover readers and one
// mutator cycling add -> append 4 rows -> drop of a fresh table joinable
// into one pod, so the lake's size stays stationary.
//
//  * serve_mixed — 200 tables; two closed-loop readers beside an open-loop
//    mutator at 50 mutations/s whose pods rotate through pod 0, so reads
//    see writes. Each mutation is timed from its due time, which counts the
//    wait a stall imposes on the mutations behind it.
//  * serve_wide — 1000 tables; one closed-loop reader and one closed-loop
//    writer. Mutations touch pods 1..199 only, so every query must return
//    the same answer, while incremental DRG maintenance runs at scale.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.h"
#include "datagen/scale_lake.h"
#include "discovery/data_lake.h"
#include "discovery/join_index_cache.h"
#include "discovery/sketch_cache.h"
#include "qa/invariants.h"
#include "serve/lake_service.h"
#include "serve/mutation.h"
#include "span_ledger.h"
#include "table/columnar.h"
#include "util/rng.h"
#include "util/timer.h"

namespace autofeat::ledger {
namespace {

using Clock = std::chrono::steady_clock;

constexpr const char* kBase = "ledger_base";
constexpr const char* kLabel = "label";
constexpr size_t kRows = 120;
constexpr size_t kPodSize = 5;
constexpr size_t kAppendRows = 4;
constexpr int kSetupReps = 3;
/// Traffic before the measured window: fills the join-index cache and
/// brings the mutation cycle into its steady state.
constexpr double kWarmupSeconds = 1.0;

struct ServeSpec {
  size_t tables;
  size_t readers;
  /// Mutations per second of an open-loop mutator; 0 = closed loop.
  double mutation_rate;
  /// The mutation cycle rotates through pods [first_pod, tables / pod
  /// size). With first_pod > 0 it never touches the query's pod 0, so every
  /// query must return the same answer.
  size_t first_pod;
};

constexpr ServeSpec kServeMixed{200, 2, 50.0, 0};
constexpr ServeSpec kServeWide{1000, 1, 0.0, 1};

Status Generate(const ServeSpec& spec, uint64_t seed, const std::string& dir) {
  datagen::ScaleLakeSpec lake_spec;
  lake_spec.num_tables = spec.tables;
  lake_spec.pod_size = kPodSize;
  lake_spec.rows = kRows;
  lake_spec.features_per_table = 2;
  lake_spec.seed = seed;
  DataLake lake = datagen::BuildScaleLake(lake_spec);

  // The query's entry point: pod 0's key domain plus a seeded label.
  Rng rng(DeriveSeed(seed, 0xBA5E));
  Table base(kBase);
  Column key(DataType::kInt64);
  Column label(DataType::kInt64);
  for (size_t i = 0; i < kRows; ++i) {
    key.AppendInt64(static_cast<int64_t>(i));
    label.AppendInt64(rng.Bernoulli(0.5) ? 1 : 0);
  }
  AF_RETURN_NOT_OK(base.AddColumn("key_p0", std::move(key)));
  AF_RETURN_NOT_OK(base.AddColumn(kLabel, std::move(label)));
  AF_RETURN_NOT_OK(lake.AddTable(std::move(base)));

  for (const Table& table : lake.tables()) {
    AF_RETURN_NOT_OK(
        WriteColumnarFile(table, dir + "/" + table.name() + ".afc"));
  }
  return Status::OK();
}

/// Step `step` (0 add, 1 append, 2 drop) of mutation cycle `cycle`; the
/// payload is a pure function of (seed, cycle).
serve::LakeMutation MakeMutation(const ServeSpec& spec, uint64_t seed,
                                 uint64_t cycle, int step) {
  const size_t pods = spec.tables / kPodSize;
  const size_t pod = spec.first_pod + cycle % (pods - spec.first_pod);
  const std::string name = "ledger_mut" + std::to_string(cycle);
  const std::string key_name = "key_p" + std::to_string(pod);
  const int64_t domain = static_cast<int64_t>(pod * kRows);
  Rng rng(DeriveSeed(seed, 1000 + cycle * 3 + static_cast<uint64_t>(step)));
  serve::LakeMutation mutation;
  if (step == 2) {
    mutation.kind = serve::LakeMutation::Kind::kDropTable;
    mutation.table = name;
    return mutation;
  }
  // An added table covers the pod's whole key domain; appended rows draw
  // keys from it.
  const size_t rows = step == 0 ? kRows : kAppendRows;
  const int64_t last_key = static_cast<int64_t>(kRows) - 1;
  Table payload(name);
  Column key(DataType::kInt64);
  for (size_t i = 0; i < rows; ++i) {
    key.AppendInt64(domain + (step == 0 ? static_cast<int64_t>(i)
                                        : rng.UniformInt(0, last_key)));
  }
  payload.AddColumn(key_name, std::move(key)).Abort();
  for (size_t m = 0; m < 2; ++m) {
    Column feature(DataType::kDouble);
    for (size_t i = 0; i < rows; ++i) feature.AppendDouble(rng.Normal());
    payload
        .AddColumn("lm" + std::to_string(cycle) + "_" + std::to_string(m),
                   std::move(feature))
        .Abort();
  }
  mutation.kind = step == 0 ? serve::LakeMutation::Kind::kAddTable
                            : serve::LakeMutation::Kind::kAppendRows;
  mutation.table = name;
  mutation.payload = std::move(payload);
  return mutation;
}

serve::ServeOptions MakeServeOptions() {
  serve::ServeOptions serve_options;
  serve_options.match.candidate_mode = CandidateMode::kLsh;
  serve_options.config.seed = kEngineSeed;
  serve_options.config.num_threads = 1;
  return serve_options;
}

Result<std::unique_ptr<serve::LakeService>> SetUp(
    const PassOptions& options, const serve::ServeOptions& serve_options) {
  obs::ScopedSpan root(options.tracer, "ledger.setup");
  DataLake lake;
  {
    obs::ScopedSpan span(options.tracer, "table.load");
    AF_ASSIGN_OR_RETURN(
        lake, DataLake::FromDirectory(options.lake_dir, LakeFormat::kColumnar));
  }
  obs::ScopedSpan span(options.tracer, "serve.create");
  return serve::LakeService::Create(std::move(lake), serve_options,
                                    options.metrics, options.tracer);
}

/// Readers and the mutator of one traffic phase, plus what they recorded.
class Traffic {
 public:
  Traffic(const ServeSpec& spec, const PassOptions& options,
          serve::LakeService* service, std::string reference,
          PassResult* result)
      : spec_(spec),
        options_(options),
        service_(service),
        reference_(std::move(reference)),
        result_(result) {}

  /// Runs readers and mutator for `seconds`; the mutator then completes its
  /// cycle so the lake returns to its base size. With `record` the samples
  /// land in the PassResult.
  void Run(double seconds, bool record) {
    stop_ = false;
    Timer window;
    std::vector<std::vector<double>> query_ms(spec_.readers);
    std::vector<double> fs_seconds(spec_.readers, 0.0);
    std::vector<std::thread> threads;
    for (size_t r = 0; r < spec_.readers; ++r) {
      threads.emplace_back([this, r, &query_ms, &fs_seconds] {
        PinThisThread(r);
        Read(&query_ms[r], &fs_seconds[r]);
      });
    }
    std::vector<double> mutation_ms;
    std::vector<double> wait_ms;
    threads.emplace_back([this, &mutation_ms, &wait_ms] {
      PinThisThread(spec_.readers);
      Mutate(&mutation_ms, &wait_ms);
    });
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    stop_ = true;
    for (std::thread& t : threads) t.join();
    if (!record) return;
    result_->window_s += window.ElapsedSeconds();
    for (size_t r = 0; r < spec_.readers; ++r) {
      result_->discover_ms.insert(result_->discover_ms.end(),
                                  query_ms[r].begin(), query_ms[r].end());
      result_->fs_seconds += fs_seconds[r];
      result_->discoveries += query_ms[r].size();
      result_->ops += query_ms[r].size();
    }
    result_->other_ms.insert(result_->other_ms.end(), mutation_ms.begin(),
                             mutation_ms.end());
    result_->ops += mutation_ms.size();
    wait_ms_.insert(wait_ms_.end(), wait_ms.begin(), wait_ms.end());
  }

  const std::vector<double>& wait_ms() const { return wait_ms_; }

 private:
  void Read(std::vector<double>* latencies, double* fs_seconds) {
    while (!stop_) {
      Timer timer;
      Result<serve::LakeService::DiscoverOutcome> out = [&] {
        obs::ScopedSpan root(options_.tracer, "ledger.query");
        return service_->Discover(kBase, kLabel, options_.metrics,
                                  options_.tracer);
      }();
      const double ms = timer.ElapsedMillis();
      if (!result_->tally.Op(out.status(), "Discover")) continue;
      latencies->push_back(ms);
      *fs_seconds += out->discovery.feature_selection_seconds;
      if (spec_.first_pod > 0) {
        result_->tally.Check(
            qa::DiscoveryFingerprint(out->discovery) == reference_,
            "query answer stationary while mutations miss its pod");
      }
    }
  }

  void Mutate(std::vector<double>* latencies, std::vector<double>* waits) {
    const bool open_loop = spec_.mutation_rate > 0;
    const Clock::time_point start = Clock::now();
    for (uint64_t i = 0;; ++i) {
      const uint64_t n = next_mutation_;
      const int step = static_cast<int>(n % 3);
      if (stop_ && step == 0) break;
      serve::LakeMutation mutation =
          MakeMutation(spec_, options_.seed, n / 3, step);
      Clock::time_point due = Clock::now();
      if (open_loop) {
        due = start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(
                              static_cast<double>(i) / spec_.mutation_rate));
        std::this_thread::sleep_until(due);
      }
      const Clock::time_point begin = Clock::now();
      Status status = [&] {
        obs::ScopedSpan root(options_.tracer, "ledger.mutation");
        return service_->Apply(mutation).status();
      }();
      const Clock::time_point end = Clock::now();
      ++next_mutation_;
      if (!result_->tally.Op(status, serve::MutationSummary(mutation))) {
        continue;
      }
      latencies->push_back(
          std::chrono::duration<double, std::milli>(end - due).count());
      waits->push_back(
          std::chrono::duration<double, std::milli>(begin - due).count());
    }
  }

  const ServeSpec& spec_;
  const PassOptions& options_;
  serve::LakeService* service_;
  const std::string reference_;
  PassResult* result_;
  std::atomic<bool> stop_{false};
  /// Mutations sent so far (mutator thread only between Runs).
  uint64_t next_mutation_ = 0;
  std::vector<double> wait_ms_;
};

std::string QueryFingerprint(const serve::LakeService& service,
                             Tally* tally) {
  Result<serve::LakeService::DiscoverOutcome> out =
      service.Discover(kBase, kLabel);
  if (!tally->Op(out.status(), "Discover")) return "";
  return qa::DiscoveryFingerprint(out->discovery);
}

/// "n=N p50 X ms, p90 Y ms, p99 Z ms" with every tail the percentile rule
/// allows. With a `tally`, a missing p90 fails the run.
std::string Describe(const char* what, const std::vector<double>& ms,
                     Tally* tally) {
  std::string text = Format("%s: n=%zu p50 %.3f ms", what, ms.size(),
                            Median(ms));
  for (double q : {0.90, 0.99}) {
    std::optional<double> tail = TailPercentile(ms, q);
    if (tail.has_value()) text += Format(", p%.0f %.3f ms", q * 100, *tail);
  }
  if (tally != nullptr) {
    tally->Check(TailPercentile(ms, 0.90).has_value(),
                 std::string(what) + " p90 has >= 10 samples beyond it");
  }
  return text;
}

void Run(const ServeSpec& spec, const PassOptions& options,
         PassResult* result) {
  Tally& tally = result->tally;
  const serve::ServeOptions serve_options = MakeServeOptions();
  std::unique_ptr<serve::LakeService> service;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    service.reset();  // one service resident at a time
    Timer timer;
    Result<std::unique_ptr<serve::LakeService>> created =
        SetUp(options, serve_options);
    result->setup_s.push_back(timer.ElapsedSeconds());
    if (!tally.Op(created.status(), "set-up")) return;
    service = created.MoveValue();
  }

  const std::string reference = QueryFingerprint(*service, &tally);
  Traffic traffic(spec, options, service.get(), reference, result);
  traffic.Run(kWarmupSeconds, /*record=*/false);
  traffic.Run(options.seconds, /*record=*/true);

  // Equivalence with a cold rebuild of the final state.
  const serve::LakeService::SnapshotPin snap = service->snapshot();
  {
    obs::ScopedSpan root(options.tracer, "ledger.check");
    Result<DatasetRelationGraph> cold = [&] {
      obs::ScopedSpan span(options.tracer, "discovery.drg_build");
      return BuildDrgByDiscovery(snap->lake, serve_options.match, nullptr,
                                 options.drg_metrics);
    }();
    if (tally.Op(cold.status(), "cold DRG rebuild")) {
      tally.Check(snap->drg.OrderedFingerprint() == cold->OrderedFingerprint(),
                  "served DRG equals a cold rebuild of the final lake");
    }
  }
  Result<std::unique_ptr<serve::LakeService>> cold_service =
      serve::LakeService::Create(snap->lake, serve_options);
  if (tally.Op(cold_service.status(), "cold service")) {
    tally.Check(QueryFingerprint(*service, &tally) ==
                    QueryFingerprint(**cold_service, &tally),
                "final Discover equals a cold service's");
  }

  size_t rescored = 0;
  size_t skipped = 0;
  size_t mutations = 0;
  for (const serve::EpochLineage& epoch : service->Lineage()) {
    if (epoch.mutation_id == 0) continue;
    rescored += epoch.pairs_rescored;
    skipped += epoch.pairs_skipped;
    ++mutations;
  }
  const std::vector<double>& waits = traffic.wait_ms();
  result->notes.push_back(Format(
      "lake %zu tables, DRG %zu edges at epoch %llu",
      snap->lake.num_tables(), snap->drg.num_edges(),
      static_cast<unsigned long long>(snap->epoch)));
  // The traced pass's short window is for the ledger, not for tails.
  Tally* tails = options.tracer == nullptr ? &tally : nullptr;
  result->notes.push_back(Describe("queries", result->discover_ms, tails));
  result->notes.push_back(Describe("mutations", result->other_ms, tails));
  if (spec.mutation_rate > 0 && !waits.empty()) {
    result->notes.push_back(Format(
        "open-loop mutator at %.0f/s: start lag p50 %.3f ms, max %.3f ms",
        spec.mutation_rate, Median(waits),
        *std::max_element(waits.begin(), waits.end())));
  }
  if (options.tracer == nullptr) return;

  // Per-layer probes and lineage (traced pass only).
  // The sketch_cache.bytes gauge adds every carried entry at each epoch and
  // never subtracts when an old epoch's cache dies, so it is no measure of
  // memory; peak_rss_mb is.
  result->notes.push_back(Format(
      "sketch_cache.bytes gauge %.1f MB after %zu mutations; the live "
      "cache holds %.1f MB",
      static_cast<double>(options.metrics->GaugeValue("sketch_cache.bytes")) /
          1e6,
      mutations,
      static_cast<double>(snap->sketch_cache->resident_bytes()) / 1e6));
  const double per_mutation = mutations > 0 ? 1.0 / mutations : 0.0;
  result->layers["serve.pairs_rescored"] = rescored * per_mutation;
  result->layers["serve.pairs_skipped"] = skipped * per_mutation;
  result->layers["serve.rescore_ratio"] =
      rescored + skipped > 0 ? static_cast<double>(rescored) /
                                   static_cast<double>(rescored + skipped)
                             : 0.0;
  if (spec.mutation_rate > 0) {
    result->layers["serve.mutation_wait_ms"] = Median(waits);
  }
  {
    Timer timer;
    LakeSketchCache::Build(snap->lake, serve_options.match.max_sample_values);
    result->layers["discovery.sketch_s"] = timer.ElapsedSeconds();
  }
  JoinIndexCache cache(&snap->lake, kEngineSeed);
  Timer timer;
  cache.Prewarm(snap->drg);
  result->layers["discovery.join_index_prewarm_s"] = timer.ElapsedSeconds();
}

}  // namespace

Status GenerateServeMixed(uint64_t seed, const std::string& dir) {
  return Generate(kServeMixed, seed, dir);
}
void RunServeMixed(const PassOptions& options, PassResult* result) {
  Run(kServeMixed, options, result);
}
Status GenerateServeWide(uint64_t seed, const std::string& dir) {
  return Generate(kServeWide, seed, dir);
}
void RunServeWide(const PassOptions& options, PassResult* result) {
  Run(kServeWide, options, result);
}

}  // namespace autofeat::ledger
