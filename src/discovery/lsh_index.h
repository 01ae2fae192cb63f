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
//    Jaccard similarity s; the defaults (32 x 2) catch s >= 0.3 with
//    >95% coverage, which is the regime of genuine key↔key joins;
//  * small-column rescue — asymmetric containment (a tiny FK domain inside
//    a large PK range) has near-zero Jaccard, so columns with at most
//    `small_column_rescue` distinct values additionally index every sketch
//    hash: any column pair (of rescued columns) whose sketches intersect
//    at all is guaranteed to collide.
//
// One banding path: ComputeColumnLshProfile is the only code that derives
// bucket keys. The cold index files every column's profile into buckets;
// the serving layer intersects profiles pairwise. Both therefore make the
// same candidate decisions by construction.
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

/// \brief Tuning knobs of the candidate generator. Defaults are chosen for
/// recall (a missed candidate silently drops a DRG edge; a spurious one
/// only costs one exact scoring call).
struct LshOptions {
  /// Bands x rows-per-band = signature width. More bands raise recall at
  /// low Jaccard; more rows per band sharpen the threshold. 32 x 2 catches
  /// Jaccard >= 0.3 pairs with > 95% probability.
  size_t num_bands = 32;
  size_t rows_per_band = 2;
  /// Cheap-profile prefilter: columns with fewer distinct non-null values
  /// than this never enter the index (1 = index everything non-empty; the
  /// exact matcher already discounts low-cardinality evidence, so raising
  /// this trades recall for fewer candidates).
  size_t min_distinct = 1;
  /// Cheap-profile prefilter: when > 0, bucket collisions between columns
  /// whose distinct counts differ by more than this factor are ignored
  /// (FREYJA-style cardinality-ratio bound). 0 disables the bound.
  double max_cardinality_ratio = 0.0;
  /// Columns with at most this many distinct values index every sketch
  /// value hash in addition to their bands (containment rescue — see file
  /// comment). 0 disables the rescue.
  size_t small_column_rescue = 64;

  size_t num_hashes() const { return num_bands * rows_per_band; }
};

/// \brief Fixed-width MinHash signature of one column sketch. `mins[k]` is
/// the minimum of the k-th derived hash over the sketch's hashes; empty
/// when the column was not indexed (empty sketch or filtered out).
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
/// The serving layer's incremental matcher cannot afford to rebuild the
/// whole lake-wide index per mutation, but it must reproduce the cold
/// index's candidate decisions exactly (the incremental DRG is gated
/// byte-identical to a cold rebuild). Profiles make the bucket structure a
/// pure per-column function: two columns collide in the cold index iff
/// their profiles share a bucket key, so candidate generation for a touched
/// table is a pairwise check against every other table's cached profiles.
struct ColumnLshProfile {
  /// Sorted bucket keys in one keyspace, separated by derivation stream:
  /// band b of type group g is DeriveSeed(band content, 2b + g); each
  /// rescued sketch hash h is DeriveSeed(h, 2 * num_bands + g). Key-like
  /// columns (int64/string, g = 1) and doubles (g = 0) never share a key,
  /// mirroring the matcher's join-plausibility filter.
  std::vector<uint64_t> bucket_keys;
  uint64_t num_distinct = 0;
  /// False when the column enters no bucket (empty/filtered sketch).
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

/// True iff the two columns would share a bucket in the cold index (sorted
/// key intersection), subject to the same cardinality-ratio bound Build
/// applies to collisions.
bool LshProfilesCollide(const ColumnLshProfile& a, const ColumnLshProfile& b,
                        const LshOptions& options);

/// True iff any column pair across the two tables collides — i.e. the cold
/// index would emit this table pair as a candidate.
bool LshTablesCollide(const std::vector<ColumnLshProfile>& a,
                      const std::vector<ColumnLshProfile>& b,
                      const LshOptions& options);

/// \brief Banded LSH index over every column of a lake, emitting candidate
/// table pairs for exact DRG scoring.
class LshCandidateIndex {
 public:
  /// Computes every column's ColumnLshProfile (in parallel over tables when
  /// `pool` is given; results identical at any thread count) over the
  /// sketches in `cache`, files each profile's bucket keys, and
  /// materialises the sorted, deduplicated candidate table-pair list.
  ///
  /// A non-null `metrics` records `lsh.bands` (configured band count),
  /// `lsh.signature_bytes` (total signature footprint), `lsh.columns_indexed`
  /// / `lsh.columns_skipped` (prefilter effect), `lsh.bucket_collisions`
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

  /// Approximate heap footprint: signatures + bucket entries + the pair
  /// list. Size-based (entry counts, not container capacity), so equal
  /// content reports equal bytes and the derived gauges stay deterministic.
  size_t ApproxBytes() const;

 private:
  std::vector<std::pair<size_t, size_t>> pairs_;
  size_t columns_indexed_ = 0;
  size_t columns_skipped_ = 0;
  size_t signature_bytes_ = 0;
  size_t bucket_entries_ = 0;
  size_t bucket_collisions_ = 0;
};

}  // namespace autofeat

#endif  // AUTOFEAT_DISCOVERY_LSH_INDEX_H_
