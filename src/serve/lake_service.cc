#include "serve/lake_service.h"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <utility>

#include "obs/trace.h"
#include "util/string_utils.h"

namespace autofeat::serve {

namespace {

uint64_t ElapsedNs(std::chrono::steady_clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

}  // namespace

LakeService::LakeService(ServeOptions options, obs::MetricsRegistry* metrics,
                         obs::Tracer* tracer, obs::EventLog* event_log)
    : options_(std::move(options)),
      metrics_(metrics),
      tracer_(tracer),
      event_log_(event_log),
      mutations_(obs::GetCounter(metrics, "serve.mutations")),
      mutations_failed_(obs::GetCounter(metrics, "serve.mutations_failed")),
      queries_(obs::GetCounter(metrics, "serve.queries")),
      tables_rematched_(obs::GetCounter(metrics, "serve.tables_rematched")),
      pairs_rescored_(obs::GetCounter(metrics, "serve.pairs_rescored")),
      pairs_skipped_(obs::GetCounter(metrics, "serve.pairs_skipped")),
      // Whether a query crosses the slow threshold is wall-clock dependent,
      // as are the latency quantiles — all excluded from the digest.
      slow_queries_(obs::GetCounter(metrics, "serve.slow_queries",
                                    /*deterministic=*/false)),
      epoch_gauge_(obs::GetGauge(metrics, "serve.epoch")),
      query_latency_(obs::GetQuantile(metrics, "serve.query_latency_ns")),
      mutation_latency_(
          obs::GetQuantile(metrics, "serve.mutation_latency_ns")) {
  if (ResolveNumThreads(options_.config.num_threads) > 1) {
    pool_ = std::make_unique<ThreadPool>(options_.config.num_threads);
    if (metrics_ != nullptr) pool_->set_metrics(metrics_);
    if (tracer_ != nullptr) pool_->set_tracer(tracer_);
  }
}

Result<std::unique_ptr<LakeService>> LakeService::Create(
    DataLake initial, ServeOptions options, obs::MetricsRegistry* metrics,
    obs::Tracer* tracer, obs::EventLog* event_log) {
  std::unique_ptr<LakeService> service(
      new LakeService(std::move(options), metrics, tracer, event_log));
  auto snap = std::make_shared<LakeSnapshot>();
  snap->epoch = 0;
  snap->lake = std::move(initial);
  snap->sketch_cache = std::make_shared<LakeSketchCache>(
      &snap->lake, service->options_.match.max_sample_values, metrics,
      service->options_.match.memory_budget_bytes);
  snap->sketch_cache->set_event_log(event_log);
  snap->sketch_cache->PrewarmAll(service->pool_.get());
  // Epoch 0 takes its pairs from the batch candidate generator; its counters
  // stay out of the service registry, which counts serving work only. The
  // index's profiles seed the cache RematchTable reads, so no mutation
  // re-profiles (and, under a budget, re-sketches) an untouched table.
  std::vector<std::vector<ColumnLshProfile>> profiles;
  const std::vector<std::pair<size_t, size_t>> pairs = CandidateTablePairs(
      snap->lake, *snap->sketch_cache, service->options_.match,
      service->pool_.get(), /*metrics=*/nullptr, &profiles);
  for (size_t i = 0; i < profiles.size(); ++i) {
    service->profiles_.emplace(snap->lake.tables()[i].name(),
                               std::move(profiles[i]));
  }
  const size_t n = snap->lake.num_tables();
  const size_t skipped = (n > 1 ? n * (n - 1) / 2 : 0) - pairs.size();
  obs::Increment(service->pairs_skipped_, skipped);
  service->StorePairScores(*snap, pairs);
  AF_ASSIGN_OR_RETURN(snap->drg,
                      service->match_store_.BuildGraph(snap->lake.TableNames()));
  snap->join_cache = std::make_shared<JoinIndexCache>(
      &snap->lake, service->options_.config.seed, metrics, tracer,
      service->options_.config.memory_budget_bytes);
  snap->join_cache->set_event_log(event_log);
  obs::Set(service->epoch_gauge_, 0);

  EpochLineage lineage;
  lineage.epoch = 0;
  lineage.mutation_id = 0;
  lineage.cause = "create";
  lineage.num_tables = snap->lake.num_tables();
  lineage.drg_edges = snap->drg.num_edges();
  lineage.pairs_rescored = pairs.size();
  lineage.pairs_skipped = skipped;
  service->RecordLineage(std::move(lineage));

  service->current_ = std::move(snap);
  return service;
}

const std::vector<ColumnLshProfile>& LakeService::ProfileFor(
    const LakeSnapshot& snap, size_t index, const std::string& name) {
  auto it = profiles_.find(name);
  if (it != profiles_.end()) return it->second;
  LakeSketchCache::TableSketchesPin pin = snap.sketch_cache->GetOrBuild(index);
  return profiles_
      .emplace(name, ComputeTableLshProfiles(snap.lake.tables()[index], *pin,
                                             options_.match.lsh))
      .first->second;
}

void LakeService::StorePairScores(
    const LakeSnapshot& snap,
    const std::vector<std::pair<size_t, size_t>>& pairs) {
  std::vector<std::vector<ColumnMatch>> matches = ScoreTablePairs(
      snap.lake, *snap.sketch_cache, pairs, options_.match, pool_.get());
  const auto tables = snap.lake.tables();
  for (size_t p = 0; p < pairs.size(); ++p) {
    const auto& [i, j] = pairs[p];
    match_store_.SetMatches(tables[i].name(), tables[j].name(),
                            std::move(matches[p]));
  }
  obs::Increment(pairs_rescored_, pairs.size());
}

Status LakeService::RematchTable(const LakeSnapshot& snap,
                                 const std::string& target,
                                 MatchStats* stats) {
  const auto tables = snap.lake.tables();
  const size_t n = tables.size();
  size_t target_idx = n;
  for (size_t i = 0; i < n; ++i) {
    if (tables[i].name() == target) {
      target_idx = i;
      break;
    }
  }
  if (target_idx == n) {
    return Status::KeyError("re-match target not in lake: " + target);
  }

  // One table against all: the pairwise form of the cold index's collision
  // test, over profiles cached across mutations. `tprof` stays valid across
  // later ProfileFor insertions — unordered_map references survive
  // rehashing.
  const bool lsh = UsesLshCandidates(options_.match);
  const std::vector<ColumnLshProfile>* tprof =
      lsh ? &ProfileFor(snap, target_idx, target) : nullptr;
  std::vector<std::pair<size_t, size_t>> pairs;
  for (size_t u = 0; u < n; ++u) {
    if (u == target_idx) continue;
    if (lsh &&
        !LshTablesCollide(*tprof, ProfileFor(snap, u, tables[u].name()))) {
      obs::Increment(pairs_skipped_);
      if (stats != nullptr) ++stats->skipped;
      continue;
    }
    pairs.emplace_back(std::min(u, target_idx), std::max(u, target_idx));
  }
  StorePairScores(snap, pairs);
  if (stats != nullptr) stats->rescored += pairs.size();
  obs::Increment(tables_rematched_);
  return Status::OK();
}

Result<uint64_t> LakeService::Apply(const LakeMutation& mutation) {
  std::lock_guard<std::mutex> writer(writer_mutex_);
  const auto start = std::chrono::steady_clock::now();
  const uint64_t mutation_id = ++next_mutation_id_;
  const char* kind_name = MutationKindName(mutation.kind);
  obs::ScopedSpan span(tracer_, "serve.mutation");
  SnapshotPin prev = snapshot();
  auto next = std::make_shared<LakeSnapshot>();
  next->epoch = prev->epoch + 1;
  next->lake = prev->lake;  // O(tables) pointer copies (COW storage)
  Status applied = ApplyMutationToLake(&next->lake, mutation);
  if (!applied.ok()) {
    // Failed mutations are no-ops: nothing published, epoch unchanged —
    // the same contract a cold replay of the trace observes.
    obs::Increment(mutations_failed_);
    const uint64_t latency_ns = ElapsedNs(start);
    obs::Record(mutation_latency_, latency_ns);
    obs::Append(event_log_, "mutation_apply",
                {{"mutation", mutation_id},
                 {"kind", kind_name},
                 {"table", mutation.TargetTable()},
                 {"ok", false},
                 {"latency_ns", latency_ns}});
    return applied;
  }
  const std::string target = mutation.TargetTable();
  const std::unordered_set<std::string> invalidated{target};

  EpochLineage lineage;
  lineage.epoch = next->epoch;
  lineage.mutation_id = mutation_id;
  lineage.cause = kind_name;
  lineage.target_table = target;

  // Precise invalidation: every untouched table's sketches carry over by
  // pointer; the target's entry (if any) is left behind.
  next->sketch_cache = std::make_shared<LakeSketchCache>(
      &next->lake, options_.match.max_sample_values, metrics_,
      options_.match.memory_budget_bytes);
  next->sketch_cache->set_event_log(event_log_);
  lineage.sketch_entries_carried =
      next->sketch_cache->CarryOver(*prev->sketch_cache, invalidated);

  // Incremental DRG maintenance: drop the target's pairs, re-score only
  // pairs touching it, rebuild the graph canonically (see drg_delta.h).
  match_store_.PurgeTable(target);
  profiles_.erase(target);
  lineage.pairs_carried = match_store_.num_pairs();
  if (mutation.kind != LakeMutation::Kind::kDropTable) {
    MatchStats stats;
    AF_RETURN_NOT_OK(RematchTable(*next, target, &stats));
    lineage.pairs_rescored = stats.rescored;
    lineage.pairs_skipped = stats.skipped;
  }
  AF_ASSIGN_OR_RETURN(next->drg,
                      match_store_.BuildGraph(next->lake.TableNames()));
  lineage.num_tables = next->lake.num_tables();
  lineage.drg_edges = next->drg.num_edges();

  next->join_cache = std::make_shared<JoinIndexCache>(
      &next->lake, options_.config.seed, metrics_, tracer_,
      options_.config.memory_budget_bytes);
  next->join_cache->set_event_log(event_log_);
  lineage.join_entries_carried =
      next->join_cache->CarryOver(*prev->join_cache, invalidated);

  obs::Increment(mutations_);
  obs::Set(epoch_gauge_, static_cast<int64_t>(next->epoch));
  {
    std::lock_guard<std::mutex> lock(snapshot_mutex_);
    current_ = std::move(next);
  }
  const uint64_t latency_ns = ElapsedNs(start);
  obs::Record(mutation_latency_, latency_ns);
  obs::Append(event_log_, "mutation_apply",
              {{"mutation", mutation_id},
               {"kind", kind_name},
               {"table", target},
               {"ok", true},
               {"latency_ns", latency_ns}});
  RecordLineage(std::move(lineage));
  return epoch();
}

Result<uint64_t> LakeService::AddTable(Table table) {
  LakeMutation m;
  m.kind = LakeMutation::Kind::kAddTable;
  m.payload = std::move(table);
  return Apply(m);
}

Result<uint64_t> LakeService::AppendRows(const std::string& table,
                                         const Table& rows) {
  LakeMutation m;
  m.kind = LakeMutation::Kind::kAppendRows;
  m.table = table;
  m.payload = rows;
  return Apply(m);
}

Result<uint64_t> LakeService::DropTable(const std::string& table) {
  LakeMutation m;
  m.kind = LakeMutation::Kind::kDropTable;
  m.table = table;
  return Apply(m);
}

LakeService::SnapshotPin LakeService::snapshot() const {
  std::lock_guard<std::mutex> lock(snapshot_mutex_);
  return current_;
}

AutoFeatConfig LakeService::QueryConfig(const LakeSnapshot& snap,
                                        obs::MetricsRegistry* metrics,
                                        obs::Tracer* tracer) const {
  AutoFeatConfig config = options_.config;
  config.join_cache = snap.join_cache.get();
  if (metrics != nullptr || tracer != nullptr) {
    config.metrics_enabled = true;
    config.metrics = metrics;
    config.tracer = tracer;
  }
  return config;
}

Result<LakeService::DiscoverOutcome> LakeService::Discover(
    const std::string& base_table, const std::string& label_column,
    obs::MetricsRegistry* metrics, obs::Tracer* tracer) const {
  const auto start = std::chrono::steady_clock::now();
  const uint64_t query_id = next_query_id_.fetch_add(1) + 1;
  obs::Increment(queries_);
  obs::Append(event_log_, "query_start",
              {{"query", query_id},
               {"kind", "discover"},
               {"base", base_table},
               {"label", label_column}});
  // The per-query span tree: a constant-named root (query ids stay out of
  // the deterministic projection), the snapshot pin as a child, and the
  // engine's own spans nested under the root.
  obs::ScopedSpan qspan(tracer, "serve.discover");
  SnapshotPin snap;
  {
    obs::ScopedSpan pin_span(tracer, "serve.pin_snapshot");
    // Pin one snapshot for the whole query: concurrent mutations publish
    // new snapshots but never touch this one.
    snap = snapshot();
  }
  // Flow link from command ingest (the capture point under qspan) to the
  // execution worker span — the enqueue -> execute arrow in Perfetto.
  obs::TaskContext ctx = obs::CaptureTaskContext(tracer);
  AutoFeat engine(&snap->lake, &snap->drg,
                  QueryConfig(*snap, metrics, tracer));
  Result<DiscoveryResult> discovery = [&] {
    obs::ScopedWorkerSpan exec(ctx, "serve.execute");
    return engine.DiscoverFeatures(base_table, label_column);
  }();
  const uint64_t latency_ns = ElapsedNs(start);
  obs::Record(query_latency_, latency_ns);
  obs::Append(event_log_, "query_end",
              {{"query", query_id},
               {"kind", "discover"},
               {"epoch", snap->epoch},
               {"ok", discovery.ok()},
               {"ranked", discovery.ok() ? discovery->ranked.size() : 0},
               {"latency_ns", latency_ns}});
  MaybeRecordSlowQuery(query_id, "discover", latency_ns);
  AF_RETURN_NOT_OK(discovery.status());
  DiscoverOutcome outcome;
  outcome.epoch = snap->epoch;
  outcome.discovery = std::move(*discovery);
  return outcome;
}

Result<LakeService::AugmentOutcome> LakeService::Augment(
    const std::string& base_table, const std::string& label_column,
    ml::ModelKind model, obs::MetricsRegistry* metrics,
    obs::Tracer* tracer) const {
  const auto start = std::chrono::steady_clock::now();
  const uint64_t query_id = next_query_id_.fetch_add(1) + 1;
  obs::Increment(queries_);
  obs::Append(event_log_, "query_start",
              {{"query", query_id},
               {"kind", "augment"},
               {"base", base_table},
               {"label", label_column}});
  obs::ScopedSpan qspan(tracer, "serve.augment");
  SnapshotPin snap;
  {
    obs::ScopedSpan pin_span(tracer, "serve.pin_snapshot");
    snap = snapshot();
  }
  obs::TaskContext ctx = obs::CaptureTaskContext(tracer);
  AutoFeat engine(&snap->lake, &snap->drg,
                  QueryConfig(*snap, metrics, tracer));
  Result<AugmentationResult> augmentation = [&] {
    obs::ScopedWorkerSpan exec(ctx, "serve.execute");
    return engine.Augment(base_table, label_column, model);
  }();
  const uint64_t latency_ns = ElapsedNs(start);
  obs::Record(query_latency_, latency_ns);
  obs::Append(event_log_, "query_end",
              {{"query", query_id},
               {"kind", "augment"},
               {"epoch", snap->epoch},
               {"ok", augmentation.ok()},
               {"latency_ns", latency_ns}});
  MaybeRecordSlowQuery(query_id, "augment", latency_ns);
  AF_RETURN_NOT_OK(augmentation.status());
  AugmentOutcome outcome;
  outcome.epoch = snap->epoch;
  outcome.augmentation = std::move(*augmentation);
  return outcome;
}

void LakeService::MaybeRecordSlowQuery(uint64_t query_id, const char* kind,
                                       uint64_t latency_ns) const {
  if (options_.slow_query_threshold_ns == 0 ||
      latency_ns <= options_.slow_query_threshold_ns) {
    return;
  }
  obs::Increment(slow_queries_);
  obs::Append(event_log_, "slow_query",
              {{"query", query_id},
               {"kind", kind},
               {"latency_ns", latency_ns},
               {"threshold_ns", options_.slow_query_threshold_ns}});
}

void LakeService::RecordLineage(EpochLineage record) {
  obs::Append(event_log_, "epoch_publish",
              {{"epoch", record.epoch},
               {"mutation", record.mutation_id},
               {"cause", record.cause},
               {"table", record.target_table},
               {"tables", record.num_tables},
               {"drg_edges", record.drg_edges},
               {"pairs_rescored", record.pairs_rescored},
               {"pairs_skipped", record.pairs_skipped},
               {"pairs_carried", record.pairs_carried},
               {"join_entries_carried", record.join_entries_carried},
               {"sketch_entries_carried", record.sketch_entries_carried}});
  std::lock_guard<std::mutex> lock(lineage_mutex_);
  lineage_.push_back(std::move(record));
}

std::vector<EpochLineage> LakeService::Lineage() const {
  std::lock_guard<std::mutex> lock(lineage_mutex_);
  return lineage_;
}

std::string LakeService::LineageJson() const {
  std::vector<EpochLineage> records = Lineage();
  std::ostringstream out;
  out << "[";
  for (size_t i = 0; i < records.size(); ++i) {
    const EpochLineage& r = records[i];
    out << (i == 0 ? "\n  " : ",\n  ");
    out << "{\"epoch\": " << r.epoch << ", \"mutation\": " << r.mutation_id
        << ", \"cause\": \"" << JsonEscape(r.cause) << "\", \"table\": \""
        << JsonEscape(r.target_table) << "\", \"tables\": " << r.num_tables
        << ", \"drg_edges\": " << r.drg_edges
        << ", \"pairs_rescored\": " << r.pairs_rescored
        << ", \"pairs_skipped\": " << r.pairs_skipped
        << ", \"pairs_carried\": " << r.pairs_carried
        << ", \"join_entries_carried\": " << r.join_entries_carried
        << ", \"sketch_entries_carried\": " << r.sketch_entries_carried
        << "}";
  }
  out << (records.empty() ? "]\n" : "\n]\n");
  return out.str();
}

}  // namespace autofeat::serve
