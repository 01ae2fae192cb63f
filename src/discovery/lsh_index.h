// MinHash-LSH candidate generation for sub-quadratic DRG construction.
//
// All-pairs discovery scores every table pair — O(n²) in the number of
// tables — which caps lake size long before memory does. This module is the
// cheap first stage of a two-stage pipeline (FREYJA-style): fixed-width
// MinHash signatures are computed per column from the same hash-native
// profile the exact matcher scores with (ColumnSketch), banded into an LSH
// table, and every band-bucket collision between columns of two different
// tables makes that *table pair* a candidate. Exact scoring (MatchSchemas /
// MatchByValueOverlap) then runs only on candidates.
//
// Soundness: with the default MatchOptions weights, a reported edge needs
// value overlap — name similarity alone cannot reach the threshold — and
// value overlap is exactly what MinHash collisions witness. Two recall
// mechanisms cover the two overlap regimes:
//
//  * banding — b bands of r rows collide with probability 1-(1-s^r)^b for
//    Jaccard similarity s; the fixed 32 bands of 2 rows catch s >= 0.3
//    with >95% coverage, which is the regime of genuine key↔key joins;
//  * small-column rescue — asymmetric containment (a tiny FK domain inside
//    a large PK range) has near-zero Jaccard, so columns with at most
//    `small_column_rescue` distinct values additionally index every sketch
//    hash: any column pair (of rescued columns) whose sketches intersect
//    at all is guaranteed to collide.
//
// One banding path: ComputeColumnLshProfile is the only code that derives
// bucket keys. The cold index files every column's profile into buckets and
// serves every whole-lake build (CandidateTablePairs in data_lake.h, batch
// and the serving layer's epoch 0 alike). The serving layer's one-table
// re-match collapses a table's profiles into one sorted key set
// (TableBucketKeys) and tests it against every other table's set with a
// BucketKeyProbe. Keys carry their band and type group in their derivation
// stream, so two tables share a bucket exactly when their key sets
// intersect: both paths make the same candidate decisions by construction.
//
// Determinism: every key is derived from the profile's stored hashes
// (SketchValueHash: FNV-1a + the splitmix64 finaliser, never std::hash)
// through DeriveSeed, and the candidate pair list is sorted and
// deduplicated, so the output (and every counter derived from it) is
// byte-identical at any thread count and across platforms.

#ifndef AUTOFEAT_DISCOVERY_LSH_INDEX_H_
#define AUTOFEAT_DISCOVERY_LSH_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "discovery/sketch_cache.h"

namespace autofeat {

class DataLake;
class ThreadPool;

namespace obs {
class MetricsRegistry;
}  // namespace obs

/// \brief Tuning knob of the candidate generator. The default is chosen
/// for recall (a missed candidate silently drops a DRG edge; a spurious one
/// only costs one exact scoring call). Every non-empty column is indexed
/// under 32 bands of 2 rows.
struct LshOptions {
  /// Columns with at most this many distinct values index every sketch
  /// value hash in addition to their bands (containment rescue — see file
  /// comment). 0 disables the rescue.
  size_t small_column_rescue = 64;
};

/// \brief Fixed-width MinHash signature of one column sketch. `mins[k]` is
/// the minimum of the k-th derived hash over the sketch's hashes; empty
/// when the column was not indexed (empty sketch).
struct MinHashSignature {
  std::vector<uint64_t> mins;

  bool empty() const { return mins.empty(); }
};

/// Signature of one sketch: mins[k] = min over the stored hashes h of
/// DeriveSeed(h, k). Pure function of the sketch's hash set. The derivation
/// streams are batched through the SIMD MinHash kernel.
MinHashSignature ComputeMinHashSignature(const ColumnSketch& sketch,
                                         size_t num_hashes);

/// Scalar reference of ComputeMinHashSignature (per-stream DeriveSeed loop),
/// kept for differential testing — must be bit-exact with the batched form.
MinHashSignature ComputeMinHashSignatureReference(const ColumnSketch& sketch,
                                                  size_t num_hashes);

/// \brief One column's LSH state: the exact set of bucket keys
/// LshCandidateIndex::Build files the column under.
///
/// Profiles make the bucket structure a pure per-column function: two
/// columns collide in the cold index iff their profiles share a bucket key.
/// The serving layer must reproduce the index's candidate decisions for one
/// mutated table without rebuilding the lake-wide index (the incremental DRG
/// is gated byte-identical to a cold rebuild), so it keeps each table's
/// profiles collapsed into one key set (TableBucketKeys).
struct ColumnLshProfile {
  /// Sorted bucket keys in one keyspace, separated by derivation stream:
  /// band b of type group g is DeriveSeed(band content, 2b + g); each
  /// rescued sketch hash h is DeriveSeed(h, 2 * 32 + g). Key-like
  /// columns (int64/string, g = 1) and doubles (g = 0) never share a key,
  /// mirroring the matcher's join-plausibility filter.
  std::vector<uint64_t> bucket_keys;
  /// False when the column enters no bucket (empty sketch).
  bool indexed = false;
};

/// The profile Build would index this column under. Pure function of
/// (sketch, column type, options).
ColumnLshProfile ComputeColumnLshProfile(const ColumnSketch& sketch,
                                         DataType type,
                                         const LshOptions& options);

/// Profiles for every column of `table` over its sketches.
std::vector<ColumnLshProfile> ComputeTableLshProfiles(
    const Table& table, const std::vector<ColumnSketch>& sketches,
    const LshOptions& options);

/// The union of one table's column profiles: every bucket key any of its
/// columns is filed under, sorted and deduplicated. Two tables share a
/// bucket in the cold index iff their key sets intersect, because a key's
/// derivation stream already separates bands and type groups.
std::vector<uint64_t> TableBucketKeys(
    const std::vector<ColumnLshProfile>& profiles);

/// \brief One table's key set, prepared for testing it against many others:
/// a bit filter over the keys' high bits (they are DeriveSeed outputs, so
/// uniformly mixed) at 128 to 256 bits per key. A probe is built once per
/// re-match; each test is then one pass over the other table's keys, and
/// only the few that hit the filter are confirmed in the sorted keys.
class BucketKeyProbe {
 public:
  /// `keys`: a sorted, deduplicated key set (TableBucketKeys).
  explicit BucketKeyProbe(std::vector<uint64_t> keys);

  /// True iff the key set `other` shares a key with the probed one, i.e.
  /// the cold index would emit the two tables as a candidate pair.
  bool Collides(const std::vector<uint64_t>& other) const;

 private:
  std::vector<uint64_t> keys_;
  std::vector<uint64_t> filter_;
  int shift_ = 0;
};

/// \brief Banded LSH index over every column of a lake, emitting candidate
/// table pairs for exact DRG scoring.
class LshCandidateIndex {
 public:
  /// Computes every column's ColumnLshProfile (in parallel over tables when
  /// `pool` is given; results identical at any thread count) over the
  /// sketches in `cache`, files each profile's bucket keys, and
  /// materialises the sorted, deduplicated candidate table-pair list.
  ///
  /// A non-null `metrics` records `lsh.bands` (the band count, 32),
  /// `lsh.signature_bytes` (total signature footprint), `lsh.columns_indexed`
  /// / `lsh.columns_skipped` (empty columns), `lsh.bucket_collisions`
  /// (cross-table column collisions before table-pair dedup) and maintains
  /// the `lsh_index.bytes` / `.bytes_peak` gauges from ApproxBytes().
  /// Profile building records `sketch.minhash` worker spans into the
  /// pool's tracer, when both exist. `cache` is non-const because sketches
  /// build (and, under a memory budget, rebuild) lazily on request; the
  /// index pins each table's entry only while profiling it.
  static LshCandidateIndex Build(const DataLake& lake,
                                 LakeSketchCache& cache,
                                 const LshOptions& options,
                                 ThreadPool* pool = nullptr,
                                 obs::MetricsRegistry* metrics = nullptr);

  /// Candidate (i, j) table-index pairs, i < j, ascending — the subset of
  /// the upper triangle the exact matcher needs to score. Folding matches
  /// in this order preserves the all-pairs edge-insertion order on the
  /// surviving pairs.
  const std::vector<std::pair<size_t, size_t>>& candidate_table_pairs()
      const {
    return pairs_;
  }

  size_t num_indexed_columns() const { return columns_indexed_; }
  size_t num_skipped_columns() const { return columns_skipped_; }
  /// Total bytes of all column signatures (part of ApproxBytes()).
  size_t signature_bytes() const { return signature_bytes_; }
  /// Cross-table column-level bucket collisions (>= candidate pair count).
  size_t num_bucket_collisions() const { return bucket_collisions_; }

  /// Moves out every table's column profiles, in lake order, as Build
  /// computed them (for callers that re-match single tables later).
  std::vector<std::vector<ColumnLshProfile>> TakeTableProfiles() {
    return std::move(profiles_);
  }

  /// Approximate heap footprint: signatures + bucket entries + the pair
  /// list. Size-based (entry counts, not container capacity), so equal
  /// content reports equal bytes and the derived gauges stay deterministic.
  size_t ApproxBytes() const;

 private:
  std::vector<std::pair<size_t, size_t>> pairs_;
  std::vector<std::vector<ColumnLshProfile>> profiles_;
  size_t columns_indexed_ = 0;
  size_t columns_skipped_ = 0;
  size_t signature_bytes_ = 0;
  size_t bucket_entries_ = 0;
  size_t bucket_collisions_ = 0;
};

}  // namespace autofeat

#endif  // AUTOFEAT_DISCOVERY_LSH_INDEX_H_
