// MinHash-LSH candidate generation for sub-quadratic DRG construction.
//
// All-pairs discovery scores every table pair — O(n²) in the number of
// tables — which caps lake size long before memory does. This module is the
// cheap first stage of a two-stage pipeline (FREYJA-style): fixed-width
// MinHash signatures are computed per column from the same hash-native
// profile the exact matcher scores with (ColumnSketch) and banded into
// bucket keys, and every bucket two tables' columns share makes that *table
// pair* a candidate. Exact scoring (MatchSchemas / MatchByValueOverlap) then
// runs only on candidates.
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
// One candidate structure: TableBucketKeys derives a table's bucket keys,
// the union over its columns, sorted and deduplicated, and is the only code
// that does. Keys carry their band and type group in their derivation
// stream, so two tables share a bucket exactly when their key sets
// intersect. Every whole-lake build (CandidateTablePairs in data_lake.h,
// batch and the serving layer's epoch 0 alike) finds all intersecting
// pairs at once with LshCandidatePairs; the serving layer's one-table
// re-match tests the touched table's set against every other table's with
// a BucketKeyProbe. Both decide from the same key sets.
//
// Determinism: every key is derived from the sketch's stored hashes
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

/// Every bucket key a column of `table` is filed under, sorted and
/// deduplicated; `sketches` holds one sketch per column. A non-empty column
/// gets one key per band, DeriveSeed(band content, 2b + g), and a rescued
/// one also DeriveSeed(h, 2 * 32 + g) for each sketch hash h. Key-like
/// columns (int64/string, g = 1) and doubles (g = 0) never share a key,
/// mirroring the matcher's join-plausibility filter. An empty column adds
/// no key. Pure function of (sketches, column types, options).
std::vector<uint64_t> TableBucketKeys(const Table& table,
                                      const std::vector<ColumnSketch>& sketches,
                                      const LshOptions& options);

/// Every (i, j) pair of tables, i < j ascending, whose key sets
/// (`table_keys[t]`, each sorted and deduplicated) share a key. One pass:
/// the (key, table) entries are sorted once and each run of equal keys
/// pairs its tables. Folding matches in this order preserves the all-pairs
/// edge-insertion order on the surviving pairs.
///
/// A non-null `metrics` records `lsh.bucket_collisions` (table pairs per
/// shared key, before deduplication) and charges the entry array to the
/// `lsh_index.bytes` / `.bytes_peak` gauges while it lives: `.bytes` is
/// back to where it was on return.
std::vector<std::pair<size_t, size_t>> LshCandidatePairs(
    const std::vector<std::vector<uint64_t>>& table_keys,
    obs::MetricsRegistry* metrics = nullptr);

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
  /// LshCandidatePairs would emit the two tables as a candidate pair.
  bool Collides(const std::vector<uint64_t>& other) const;

 private:
  std::vector<uint64_t> keys_;
  std::vector<uint64_t> filter_;
  int shift_ = 0;
};

}  // namespace autofeat

#endif  // AUTOFEAT_DISCOVERY_LSH_INDEX_H_
