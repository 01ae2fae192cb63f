// LakeService: the long-lived serving core of AutoFeat-as-a-service.
//
// One process-resident service owns the lake, the discovered DRG and both
// lake-wide caches across requests, behind
//
//  * a mutation API — AddTable / AppendRows / DropTable — performing
//    *incremental* DRG maintenance (only pairs touching the mutated table
//    are re-scored; candidate generation for the touched table runs the
//    pairwise LSH collision predicate against cached per-table profiles
//    instead of rebuilding the lake-wide index) and *precise* cache
//    invalidation (both caches carry every untouched entry into the next
//    snapshot by pointer copy; only the touched table's entries rebuild);
//  * a concurrent query API — Discover / Augment — that any number of
//    threads may call while mutations run.
//
// Epoch scheme: the service publishes immutable snapshots. A snapshot pins
// {epoch, lake, DRG, join-index cache, sketch cache} behind one
// shared_ptr<const Snapshot>; queries pin the current snapshot for their
// whole run and never block on (or observe) a concurrent mutation, while
// the lake's copy-on-write table storage makes the per-mutation snapshot
// copy O(tables) pointer copies. A mutation builds the next snapshot off
// the current one under the writer mutex (mutations serialise; queries do
// not), then swaps the published pointer. Old snapshots stay alive until
// their last reader drops the pin — there is no use-after-evict by
// construction.
//
// Equivalence contract: after any mutation sequence the published DRG is
// byte-identical — node order, edge order, weights — to a cold
// BuildDrgByDiscovery over the final lake state, and Discover/Augment
// results (and their deterministic obs digests) match a cold service built
// at that state. The qa invariant `serve.incremental_equivalence` fuzzes
// this; see DESIGN.md "Serving architecture" for the argument.

#ifndef AUTOFEAT_SERVE_LAKE_SERVICE_H_
#define AUTOFEAT_SERVE_LAKE_SERVICE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/autofeat.h"
#include "core/config.h"
#include "discovery/data_lake.h"
#include "discovery/join_index_cache.h"
#include "discovery/lsh_index.h"
#include "discovery/schema_matcher.h"
#include "discovery/sketch_cache.h"
#include "graph/drg.h"
#include "graph/drg_delta.h"
#include "ml/trainer.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "serve/mutation.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace autofeat::serve {

/// \brief Service configuration: how DRG edges are discovered and how
/// queries run.
struct ServeOptions {
  /// Schema-matcher options for DRG discovery (candidate_mode kLsh enables
  /// the incremental LSH profile path; kAllPairs re-scores the touched
  /// table against every other table).
  MatchOptions match;
  /// Per-query engine configuration. num_threads also sizes the service's
  /// maintenance pool (sketching + pair re-scoring fan out over it);
  /// join_cache is overwritten per query with the snapshot's shared cache.
  AutoFeatConfig config;
  /// Queries whose wall latency exceeds this threshold append a
  /// `slow_query` event to the attached event log; 0 disables. Whether a
  /// given query is "slow" is wall-clock dependent, so replay-determinism
  /// of the event log holds only at 0 (no slow-query events) — the
  /// stripped-timestamp byte-identity contract assumes the default.
  uint64_t slow_query_threshold_ns = 0;
};

/// \brief Provenance of one published epoch: what caused it and how much
/// incremental maintenance it needed versus carried over. Every field is a
/// pure function of the mutation trace (deterministic across replays).
struct EpochLineage {
  uint64_t epoch = 0;
  /// Monotonic mutation id (1-based); 0 for the epoch-0 initial build.
  uint64_t mutation_id = 0;
  /// "create" for epoch 0, else the mutation kind ("add"/"append"/"drop").
  std::string cause;
  /// Mutated table; empty for epoch 0.
  std::string target_table;
  size_t num_tables = 0;
  size_t drg_edges = 0;
  /// Candidate pairs actually re-scored for this epoch vs pairs skipped by
  /// the LSH collision predicate vs scored pairs carried from the previous
  /// epoch's match store untouched.
  size_t pairs_rescored = 0;
  size_t pairs_skipped = 0;
  size_t pairs_carried = 0;
  /// Cache entries carried into this epoch's caches by pointer copy.
  size_t join_entries_carried = 0;
  size_t sketch_entries_carried = 0;
};

/// \brief A published, immutable view of the service state at one epoch.
struct LakeSnapshot {
  uint64_t epoch = 0;
  DataLake lake;
  DatasetRelationGraph drg;
  /// Shared across queries of this epoch; entries for untouched tables are
  /// carried (by pointer) from the previous epoch's cache.
  std::shared_ptr<JoinIndexCache> join_cache;
  std::shared_ptr<LakeSketchCache> sketch_cache;
};

/// \brief The long-lived in-process AutoFeat service.
///
/// Thread safety: Apply/AddTable/AppendRows/DropTable serialise on an
/// internal writer mutex; Discover/Augment/snapshot() are safe from any
/// number of threads concurrently with each other and with mutations.
class LakeService {
 public:
  using SnapshotPin = std::shared_ptr<const LakeSnapshot>;

  /// \brief Outcome of one Discover query.
  struct DiscoverOutcome {
    /// Epoch the query ran against (its whole run saw exactly this state).
    uint64_t epoch = 0;
    DiscoveryResult discovery;
  };

  /// \brief Outcome of one Augment query.
  struct AugmentOutcome {
    uint64_t epoch = 0;
    AugmentationResult augmentation;
  };

  /// Builds the service over `initial`: sketches every table, discovers
  /// the epoch-0 DRG with the batch candidate generator and pair scorer
  /// (CandidateTablePairs / ScoreTablePairs, so the graph equals
  /// BuildDrgByDiscovery's) and prepares the caches. A non-null `metrics`
  /// receives the `serve.*` counters plus both caches' counters for every
  /// epoch, and the `serve.query_latency_ns` / `serve.mutation_latency_ns`
  /// quantile histograms (non-deterministic — wall-clock derived). A
  /// non-null `event_log` receives the structured serving events
  /// (query_start/query_end, mutation_apply, epoch_publish, cache
  /// evict/rebuild, slow_query — see obs/event_log.h).
  static Result<std::unique_ptr<LakeService>> Create(
      DataLake initial, ServeOptions options,
      obs::MetricsRegistry* metrics = nullptr, obs::Tracer* tracer = nullptr,
      obs::EventLog* event_log = nullptr);

  // -- Mutations (serialised; each returns the new epoch) -----------------

  /// Applies one mutation: lake update, incremental re-match of the touched
  /// table, canonical DRG rebuild, cache carry-over, snapshot publish. A
  /// failed mutation (duplicate add, schema-mismatched append, missing
  /// drop target) changes nothing and leaves the current epoch in place.
  Result<uint64_t> Apply(const LakeMutation& mutation);

  Result<uint64_t> AddTable(Table table);
  Result<uint64_t> AppendRows(const std::string& table, const Table& rows);
  Result<uint64_t> DropTable(const std::string& table);

  // -- Queries (concurrent) -----------------------------------------------

  /// Runs discovery for (base_table, label_column) against the current
  /// snapshot. `metrics`/`tracer` (optional) receive this query's engine
  /// counters — cache counters go to the service registry, so a query's
  /// deterministic digest is a pure function of the snapshot state.
  Result<DiscoverOutcome> Discover(const std::string& base_table,
                                   const std::string& label_column,
                                   obs::MetricsRegistry* metrics = nullptr,
                                   obs::Tracer* tracer = nullptr) const;

  /// Full augmentation (discovery + top-k training) against the current
  /// snapshot.
  Result<AugmentOutcome> Augment(const std::string& base_table,
                                 const std::string& label_column,
                                 ml::ModelKind model,
                                 obs::MetricsRegistry* metrics = nullptr,
                                 obs::Tracer* tracer = nullptr) const;

  /// The current snapshot. Hold the pin to keep reading one consistent
  /// state across multiple calls.
  SnapshotPin snapshot() const;

  uint64_t epoch() const { return snapshot()->epoch; }
  const ServeOptions& options() const { return options_; }

  // -- Lineage (concurrent) -----------------------------------------------

  /// One record per published epoch (epoch 0 first), in publish order.
  std::vector<EpochLineage> Lineage() const;

  /// Lineage() rendered as a JSON array (pretty-printed, one record per
  /// object) — what the daemon's `lineage` command prints.
  std::string LineageJson() const;

 private:
  /// Per-mutation incremental-maintenance tallies feeding EpochLineage.
  struct MatchStats {
    size_t rescored = 0;
    size_t skipped = 0;
  };

  LakeService(ServeOptions options, obs::MetricsRegistry* metrics,
              obs::Tracer* tracer, obs::EventLog* event_log);

  /// The cached LSH profile of `table` (position `index` in `snap`),
  /// computing and memoising it on first use. Create seeds the cache with
  /// the candidate index's profiles, so only added or mutated tables are
  /// profiled here.
  const std::vector<ColumnLshProfile>& ProfileFor(const LakeSnapshot& snap,
                                                  size_t index,
                                                  const std::string& name);

  /// Re-scores every candidate pair touching `target` (present in
  /// snap->lake) and updates the match store. Writer mutex held. A
  /// non-null `stats` receives this call's rescored/skipped tallies.
  Status RematchTable(const LakeSnapshot& snap, const std::string& target,
                      MatchStats* stats = nullptr);

  /// Scores `pairs` (ascending (i, j) positions in snap->lake) with the
  /// batch pair scorer and installs the matches in the store. Writer mutex
  /// held (or, in Create, the service not yet published).
  void StorePairScores(const LakeSnapshot& snap,
                       const std::vector<std::pair<size_t, size_t>>& pairs);

  /// Records one epoch's lineage (and its `epoch_publish` event).
  void RecordLineage(EpochLineage record);

  /// Appends a `slow_query` event when `latency_ns` crosses the configured
  /// threshold (0 disables).
  void MaybeRecordSlowQuery(uint64_t query_id, const char* kind,
                            uint64_t latency_ns) const;

  AutoFeatConfig QueryConfig(const LakeSnapshot& snap,
                             obs::MetricsRegistry* metrics,
                             obs::Tracer* tracer) const;

  ServeOptions options_;
  obs::MetricsRegistry* metrics_;
  obs::Tracer* tracer_;
  obs::EventLog* event_log_;
  obs::Counter* mutations_;
  obs::Counter* mutations_failed_;
  obs::Counter* queries_;
  obs::Counter* tables_rematched_;
  obs::Counter* pairs_rescored_;
  obs::Counter* pairs_skipped_;
  obs::Counter* slow_queries_;
  obs::Gauge* epoch_gauge_;
  /// Wall-clock latency series (service registry, non-deterministic).
  obs::QuantileHistogram* query_latency_;
  obs::QuantileHistogram* mutation_latency_;
  /// Monotonic query ids; mutable because queries are const. Ids feed the
  /// event log and trace flow links only — never the per-query registries,
  /// whose digests stay pure functions of snapshot state.
  mutable std::atomic<uint64_t> next_query_id_{0};
  /// Monotonic mutation ids (guarded by writer_mutex_).
  uint64_t next_mutation_id_ = 0;
  std::unique_ptr<ThreadPool> pool_;

  /// Per-epoch provenance, publish order (guarded by lineage_mutex_ so
  /// readers never contend with the writer path beyond this vector).
  mutable std::mutex lineage_mutex_;
  std::vector<EpochLineage> lineage_;

  // Writer-side state (guarded by writer_mutex_): the canonical match
  // store the DRG is rebuilt from, and the per-table LSH profiles.
  std::mutex writer_mutex_;
  DrgMatchStore match_store_;
  std::unordered_map<std::string, std::vector<ColumnLshProfile>> profiles_;

  // The published snapshot (guarded by snapshot_mutex_ for the pointer
  // swap only; the pointee is immutable).
  mutable std::mutex snapshot_mutex_;
  SnapshotPin current_;
};

}  // namespace autofeat::serve

#endif  // AUTOFEAT_SERVE_LAKE_SERVICE_H_
