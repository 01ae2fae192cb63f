#include "serve/lake_service.h"

#include <algorithm>
#include <chrono>
#include <optional>
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

// The table pairs with at least one match, i.e. with a DRG edge.
size_t CountMatched(const std::vector<std::vector<ColumnMatch>>& matches) {
  return static_cast<size_t>(
      std::count_if(matches.begin(), matches.end(),
                    [](const auto& m) { return !m.empty(); }));
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
          obs::GetQuantile(metrics, "serve.mutation_latency_ns")),
      sketch_cache_(std::make_shared<LakeSketchCache>(
          options_.match.max_sample_values, metrics,
          options_.match.memory_budget_bytes)) {
  if (ResolveNumThreads(options_.config.num_threads) > 1) {
    pool_ = std::make_unique<ThreadPool>(options_.config.num_threads);
    if (metrics_ != nullptr) pool_->set_metrics(metrics_);
    if (tracer_ != nullptr) pool_->set_tracer(tracer_);
  }
  sketch_cache_->set_event_log(event_log_);
}

Result<std::unique_ptr<LakeService>> LakeService::Create(
    DataLake initial, ServeOptions options, obs::MetricsRegistry* metrics,
    obs::Tracer* tracer, obs::EventLog* event_log) {
  std::unique_ptr<LakeService> service(
      new LakeService(std::move(options), metrics, tracer, event_log));
  auto snap = std::make_shared<LakeSnapshot>();
  snap->epoch = 0;
  snap->lake = std::move(initial);
  service->sketch_cache_->PrewarmAll(snap->lake, service->pool_.get());
  snap->sketch_cache = service->sketch_cache_;
  // Epoch 0 takes its pairs from the batch candidate generator; its counters
  // stay out of the service registry, which counts serving work only. The
  // key sets it derives are the ones RematchTable reads, so no mutation
  // re-derives (and, under a budget, re-sketches) an untouched table's.
  const std::vector<std::pair<size_t, size_t>> pairs = CandidateTablePairs(
      snap->lake, *service->sketch_cache_, service->options_.match,
      service->pool_.get(), /*metrics=*/nullptr, &service->bucket_keys_);
  const size_t n = snap->lake.num_tables();
  const size_t skipped = (n > 1 ? n * (n - 1) / 2 : 0) - pairs.size();
  obs::Increment(service->pairs_skipped_, skipped);
  const std::vector<std::vector<ColumnMatch>> matches =
      service->ScorePairs(snap->lake, pairs);
  service->matched_pairs_ = CountMatched(matches);
  AF_ASSIGN_OR_RETURN(snap->drg, FoldPairMatches(snap->lake, pairs, matches));
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

LakeService::~LakeService() {
  std::lock_guard<std::mutex> writer(writer_mutex_);
  ReclaimSnapshots();
}

void LakeService::ReclaimSnapshots() {
  if (retired_.empty()) return;
  obs::ScopedSpan span(tracer_, "serve.reclaim");
  retired_.erase(std::remove_if(retired_.begin(), retired_.end(),
                                [](const SnapshotPin& snap) {
                                  return snap.use_count() == 1;
                                }),
                 retired_.end());
}

std::vector<std::vector<ColumnMatch>> LakeService::ScorePairs(
    const DataLake& lake,
    const std::vector<std::pair<size_t, size_t>>& pairs) {
  obs::Increment(pairs_rescored_, pairs.size());
  return ScoreTablePairs(lake, *sketch_cache_, pairs, options_.match,
                         pool_.get());
}

std::vector<std::vector<ColumnMatch>> LakeService::RematchTable(
    const DataLake& lake, size_t target, EpochLineage* lineage,
    std::vector<std::pair<size_t, size_t>>* pairs) {
  const auto tables = lake.tables();
  const size_t n = tables.size();
  // One table against all: the cold build's collision test (do the two
  // key sets intersect?) as one pass over each other table's cached set.
  const bool lsh = UsesLshCandidates(options_.match);
  std::optional<BucketKeyProbe> probe;
  if (lsh) {
    LakeSketchCache::TableSketchesPin pin =
        sketch_cache_->GetOrBuild(tables[target]);
    std::vector<uint64_t> keys =
        TableBucketKeys(tables[target], *pin, options_.match.lsh);
    if (target == bucket_keys_.size()) {
      bucket_keys_.push_back(std::move(keys));
    } else {
      bucket_keys_[target] = std::move(keys);
    }
    probe.emplace(bucket_keys_[target]);
  }
  for (size_t u = 0; u < n; ++u) {
    if (u == target) continue;
    if (lsh && !probe->Collides(bucket_keys_[u])) {
      obs::Increment(pairs_skipped_);
      ++lineage->pairs_skipped;
      continue;
    }
    pairs->emplace_back(std::min(u, target), std::max(u, target));
  }
  lineage->pairs_rescored += pairs->size();
  obs::Increment(tables_rematched_);
  return ScorePairs(lake, *pairs);
}

Result<uint64_t> LakeService::Apply(const LakeMutation& mutation) {
  std::lock_guard<std::mutex> writer(writer_mutex_);
  const auto start = std::chrono::steady_clock::now();
  const uint64_t mutation_id = ++next_mutation_id_;
  const char* kind_name = MutationKindName(mutation.kind);
  obs::ScopedSpan span(tracer_, "serve.mutation");
  ReclaimSnapshots();
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

  EpochLineage lineage;
  lineage.epoch = next->epoch;
  lineage.mutation_id = mutation_id;
  lineage.cause = kind_name;
  lineage.target_table = target;

  // An append or drop erases the target's sketches; an added table has
  // none yet.
  if (mutation.kind != LakeMutation::Kind::kAddTable) {
    sketch_cache_->Invalidate(target);
  }
  next->sketch_cache = sketch_cache_;

  // Incremental DRG maintenance on a copy of the previous graph, whose
  // nodes are in lake order: the target's node is removed, appended or
  // kept, and the matches of the pairs RematchTable re-scores replace its
  // edges (see DatasetRelationGraph's discovered-graph edits).
  const bool add = mutation.kind == LakeMutation::Kind::kAddTable;
  const bool drop = mutation.kind == LakeMutation::Kind::kDropTable;
  size_t node = prev->lake.num_tables();  // where an added table lands
  if (!add) {
    AF_ASSIGN_OR_RETURN(node, prev->drg.NodeId(target));
  }
  std::vector<std::pair<size_t, size_t>> pairs;
  std::vector<std::vector<ColumnMatch>> matches;
  if (drop) {
    if (!bucket_keys_.empty()) {
      bucket_keys_.erase(bucket_keys_.begin() +
                         static_cast<std::ptrdiff_t>(node));
    }
  } else {
    obs::ScopedSpan rematch_span(tracer_, "serve.rematch");
    matches = RematchTable(next->lake, node, &lineage, &pairs);
  }
  {
    obs::ScopedSpan drg_span(tracer_, "serve.drg_rebuild");
    next->drg = prev->drg;
    if (add) next->drg.AddNode(target);
    if (drop) {
      next->drg.RemoveNode(node);
    } else {
      AF_RETURN_NOT_OK(next->drg.ReplaceNodeEdges(node, pairs, matches));
    }
  }
  // Each matched pair is one distinct neighbour in the graph.
  lineage.pairs_carried =
      matched_pairs_ - (add ? 0 : prev->drg.Neighbors(node).size());
  matched_pairs_ = lineage.pairs_carried + CountMatched(matches);
  lineage.num_tables = next->lake.num_tables();
  lineage.drg_edges = next->drg.num_edges();

  {
    // Queries of older epochs keep reading their own join indexes.
    obs::ScopedSpan carry_span(tracer_, "serve.join_carry");
    next->join_cache = std::make_shared<JoinIndexCache>(
        &next->lake, options_.config.seed, metrics_, tracer_,
        options_.config.memory_budget_bytes);
    next->join_cache->set_event_log(event_log_);
    lineage.join_entries_carried =
        next->join_cache->CarryOver(*prev->join_cache, target);
  }

  obs::Increment(mutations_);
  obs::Set(epoch_gauge_, static_cast<int64_t>(next->epoch));
  {
    std::lock_guard<std::mutex> lock(snapshot_mutex_);
    current_ = std::move(next);
  }
  retired_.push_back(std::move(prev));
  ReclaimSnapshots();
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
               {"join_entries_carried", record.join_entries_carried}});
  std::lock_guard<std::mutex> lock(lineage_mutex_);
  lineage_.push_back(std::move(record));
  if (lineage_.size() > kLineageRecordsKept) lineage_.pop_front();
}

std::vector<EpochLineage> LakeService::Lineage() const {
  std::lock_guard<std::mutex> lock(lineage_mutex_);
  return {lineage_.begin(), lineage_.end()};
}

std::string LakeService::LineageJson() const {
  std::ostringstream out;
  std::lock_guard<std::mutex> lock(lineage_mutex_);
  out << "[";
  for (size_t i = 0; i < lineage_.size(); ++i) {
    const EpochLineage& r = lineage_[i];
    out << (i == 0 ? "\n  " : ",\n  ");
    out << "{\"epoch\": " << r.epoch << ", \"mutation\": " << r.mutation_id
        << ", \"cause\": \"" << JsonEscape(r.cause) << "\", \"table\": \""
        << JsonEscape(r.target_table) << "\", \"tables\": " << r.num_tables
        << ", \"drg_edges\": " << r.drg_edges
        << ", \"pairs_rescored\": " << r.pairs_rescored
        << ", \"pairs_skipped\": " << r.pairs_skipped
        << ", \"pairs_carried\": " << r.pairs_carried
        << ", \"join_entries_carried\": " << r.join_entries_carried << "}";
  }
  out << (lineage_.empty() ? "]\n" : "\n]\n");
  return out.str();
}

}  // namespace autofeat::serve
