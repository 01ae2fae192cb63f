// LakeService: the long-lived serving core of AutoFeat-as-a-service.
//
// One process-resident service owns the lake, the discovered DRG and both
// lake-wide caches across requests, behind
//
//  * a mutation API — AddTable / AppendRows / DropTable — performing
//    *incremental* DRG maintenance (only pairs touching the mutated table
//    are re-scored, and only its node's edges in a copy of the previous
//    graph are edited; candidate generation for the touched table tests
//    its LSH bucket-key set in one pass against every other table's set,
//    the same sets epoch 0's whole-lake candidate pass derived and kept,
//    instead of pairing the whole lake again) and *precise* cache
//    invalidation (only the touched table's entries rebuild: the one
//    service-lifetime sketch cache erases them in place, and each epoch's
//    join cache carries every other entry of the last one by pointer);
//  * a concurrent query API — Discover / Augment — that any number of
//    threads may call while mutations run.
//
// Epoch scheme: the service publishes immutable snapshots. A snapshot pins
// {epoch, lake, DRG, join-index cache} behind one shared_ptr<const
// Snapshot>; queries pin the current snapshot for their whole run and never
// block on (or observe) a concurrent mutation, while the lake's
// copy-on-write table storage makes the per-mutation snapshot copy
// O(tables) pointer copies. A mutation builds the next snapshot off
// the current one under the writer mutex (mutations serialise; queries do
// not), then swaps the published pointer. The writer keeps every snapshot
// it supersedes and frees one only once no reader pins it, at the start
// and end of each mutation and at shutdown: a snapshot stays alive while
// any reader holds it (there is no use-after-evict by construction), and
// no query thread ever pays to free one.
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
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/autofeat.h"
#include "core/config.h"
#include "discovery/data_lake.h"
#include "discovery/join_index_cache.h"
#include "discovery/lsh_index.h"
#include "discovery/schema_matcher.h"
#include "discovery/sketch_cache.h"
#include "graph/drg.h"
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
  /// the incremental bucket-key test; kAllPairs re-scores the touched table
  /// against every other table).
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
  /// the LSH bucket-key test vs matched pairs (table pairs with an edge)
  /// carried from the previous epoch's DRG untouched.
  size_t pairs_rescored = 0;
  size_t pairs_skipped = 0;
  size_t pairs_carried = 0;
  /// Join-index entries carried into this epoch's cache by pointer copy.
  size_t join_entries_carried = 0;
};

/// \brief A published, immutable view of the service state at one epoch.
struct LakeSnapshot {
  uint64_t epoch = 0;
  DataLake lake;
  DatasetRelationGraph drg;
  /// Shared across queries of this epoch; entries for untouched tables are
  /// carried (by pointer) from the previous epoch's cache.
  std::shared_ptr<JoinIndexCache> join_cache;
  /// The service's one sketch cache, read-only: a reader of an older epoch
  /// can read its sizes but never get a newer table's sketches. Kept only
  /// because the ledger bench reads its resident_bytes().
  std::shared_ptr<const LakeSketchCache> sketch_cache;
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

  /// Frees every retired snapshot no reader pins; the rest die with their
  /// last reader's pin.
  ~LakeService();

  // -- Mutations (serialised; each returns the new epoch) -----------------

  /// Applies one mutation: lake update, sketch invalidation, incremental
  /// re-match of the touched table (span `serve.rematch`), an edit of a
  /// copy of the previous DRG at the touched table's node only
  /// (`serve.drg_rebuild`; see DatasetRelationGraph's discovered-graph
  /// edits), join-cache carry-over
  /// (`serve.join_carry`), snapshot publish, and freeing the superseded
  /// snapshots no reader pins (`serve.reclaim`). A failed mutation (duplicate
  /// add, schema-mismatched append, missing drop target) changes nothing
  /// and leaves the current epoch in place.
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

  /// How many of the most recent epochs' records the service keeps. Each
  /// record also went out as an `epoch_publish` event when it was
  /// published, so an attached event log holds the whole history.
  static constexpr size_t kLineageRecordsKept = 4096;

  /// One record per published epoch, in publish order: epoch 0 first until
  /// more than kLineageRecordsKept epochs exist, then the most recent
  /// kLineageRecordsKept.
  std::vector<EpochLineage> Lineage() const;

  /// Lineage() rendered as a JSON array (pretty-printed, one record per
  /// object) — what the daemon's `lineage` command prints. Formats under
  /// the lineage lock instead of copying the records first.
  std::string LineageJson() const;

 private:
  LakeService(ServeOptions options, obs::MetricsRegistry* metrics,
              obs::Tracer* tracer, obs::EventLog* event_log);

  /// Frees the retired snapshots no reader pins (span `serve.reclaim`).
  /// Writer mutex held.
  void ReclaimSnapshots();

  /// Re-scores every candidate pair touching the table at position
  /// `target` of `lake`: fills `pairs` (ascending (i, j)) and returns their
  /// matches, oriented i -> j. Under LSH the target's bucket keys replace
  /// bucket_keys_[target], or are appended for an added table. Adds the
  /// pairs rescored and skipped to `lineage`. Writer mutex held.
  std::vector<std::vector<ColumnMatch>> RematchTable(
      const DataLake& lake, size_t target, EpochLineage* lineage,
      std::vector<std::pair<size_t, size_t>>* pairs);

  /// Scores `pairs` (ascending (i, j) positions in `lake`) with the batch
  /// pair scorer and counts them in `serve.pairs_rescored`.
  std::vector<std::vector<ColumnMatch>> ScorePairs(
      const DataLake& lake,
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

  /// Per-epoch provenance of the last kLineageRecordsKept epochs, publish
  /// order (guarded by lineage_mutex_ so readers never contend with the
  /// writer path beyond this list). A deque grows by fixed blocks and drops
  /// its oldest record in O(1).
  mutable std::mutex lineage_mutex_;
  std::deque<EpochLineage> lineage_;

  // Writer-side state (guarded by writer_mutex_): the number of matched
  // table pairs in the current DRG, each table's LSH bucket-key set by
  // lake position (empty unless UsesLshCandidates), and the sketch cache
  // both come from (snapshots share it read-only).
  std::mutex writer_mutex_;
  size_t matched_pairs_ = 0;
  std::vector<std::vector<uint64_t>> bucket_keys_;
  std::shared_ptr<LakeSketchCache> sketch_cache_;

  // The published snapshot (guarded by snapshot_mutex_ for the pointer
  // swap only; the pointee is immutable).
  mutable std::mutex snapshot_mutex_;
  SnapshotPin current_;
  /// Superseded snapshots a reader may still pin (guarded by
  /// writer_mutex_). Apply retires the snapshot it replaces here, so the
  /// last reference to any snapshot is the writer's. Readers pin only
  /// through current_, so a retired snapshot whose count is 1 can never be
  /// pinned again.
  std::vector<SnapshotPin> retired_;
};

}  // namespace autofeat::serve

#endif  // AUTOFEAT_SERVE_LAKE_SERVICE_H_
