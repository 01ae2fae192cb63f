#include "discovery/lsh_index.h"

#include <algorithm>
#include <unordered_map>

#include "discovery/data_lake.h"
#include "obs/memory.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/rng.h"
#include "util/simd.h"
#include "util/thread_pool.h"

namespace autofeat {

MinHashSignature ComputeMinHashSignature(const ColumnSketch& sketch,
                                         size_t num_hashes) {
  MinHashSignature sig;
  if (sketch.hashes.empty() || num_hashes == 0) return sig;
  sig.mins.assign(num_hashes, ~uint64_t{0});
  for (uint64_t h : sketch.hashes) {
    // Batched over the derivation streams: the vector kernel re-derives the
    // splitmix64 finaliser in 64-bit lanes, bit-exact with DeriveSeed — the
    // signatures feed the candidate list and must not depend on the
    // build's ISA.
    simd::MinHashUpdate(h, sig.mins.data(), num_hashes);
  }
  return sig;
}

MinHashSignature ComputeMinHashSignatureReference(const ColumnSketch& sketch,
                                                  size_t num_hashes) {
  MinHashSignature sig;
  if (sketch.hashes.empty() || num_hashes == 0) return sig;
  sig.mins.assign(num_hashes, ~uint64_t{0});
  for (uint64_t h : sketch.hashes) {
    for (size_t k = 0; k < num_hashes; ++k) {
      sig.mins[k] = std::min(sig.mins[k], DeriveSeed(h, k));
    }
  }
  return sig;
}

namespace {

// Bands x rows-per-band = signature width. More bands raise recall at low
// Jaccard; more rows per band sharpen the threshold. 32 x 2 catches
// Jaccard >= 0.3 pairs with > 95% probability.
constexpr size_t kNumBands = 32;
constexpr size_t kRowsPerBand = 2;
constexpr size_t kNumHashes = kNumBands * kRowsPerBand;

// A column in the index: table position, column position, and its true
// distinct count.
struct ColumnRef {
  uint32_t table = 0;
  uint32_t column = 0;
  uint64_t num_distinct = 0;
};

// Mixes a band's row minima into one bucket fingerprint.
uint64_t BandContentHash(const uint64_t* mins, size_t rows) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (size_t r = 0; r < rows; ++r) {
    h ^= mins[r];
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

ColumnLshProfile ComputeColumnLshProfile(const ColumnSketch& sketch,
                                         DataType type,
                                         const LshOptions& options) {
  ColumnLshProfile profile;
  profile.num_distinct = sketch.num_distinct;
  const MinHashSignature sig = ComputeMinHashSignature(sketch, kNumHashes);
  // Small-column rescue: every sketch hash gets its own bucket, so two
  // rescued columns whose sketches intersect at all are guaranteed a
  // collision, covering asymmetric containment joins banding would miss.
  const bool rescued = options.small_column_rescue > 0 &&
                       !sketch.hashes.empty() &&
                       sketch.num_distinct <= options.small_column_rescue;
  if (sig.empty() && !rescued) return profile;
  profile.indexed = true;
  const uint64_t group = type != DataType::kDouble ? 1 : 0;
  for (size_t b = 0; !sig.empty() && b < kNumBands; ++b) {
    uint64_t content =
        BandContentHash(sig.mins.data() + b * kRowsPerBand, kRowsPerBand);
    profile.bucket_keys.push_back(DeriveSeed(content, 2 * b + group));
  }
  if (rescued) {
    const uint64_t rescue_stream = 2 * kNumBands + group;
    for (uint64_t h : sketch.hashes) {
      profile.bucket_keys.push_back(DeriveSeed(h, rescue_stream));
    }
  }
  std::sort(profile.bucket_keys.begin(), profile.bucket_keys.end());
  return profile;
}

std::vector<ColumnLshProfile> ComputeTableLshProfiles(
    const Table& table, const std::vector<ColumnSketch>& sketches,
    const LshOptions& options) {
  std::vector<ColumnLshProfile> profiles(sketches.size());
  for (size_t c = 0; c < sketches.size(); ++c) {
    profiles[c] = ComputeColumnLshProfile(
        sketches[c], table.schema().field(c).type, options);
  }
  return profiles;
}

bool LshProfilesCollide(const ColumnLshProfile& a,
                        const ColumnLshProfile& b) {
  if (!a.indexed || !b.indexed) return false;
  // Sorted-list intersection over the bucket keys.
  size_t i = 0, j = 0;
  while (i < a.bucket_keys.size() && j < b.bucket_keys.size()) {
    if (a.bucket_keys[i] == b.bucket_keys[j]) return true;
    if (a.bucket_keys[i] < b.bucket_keys[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return false;
}

bool LshTablesCollide(const std::vector<ColumnLshProfile>& a,
                      const std::vector<ColumnLshProfile>& b) {
  for (const ColumnLshProfile& ca : a) {
    for (const ColumnLshProfile& cb : b) {
      if (LshProfilesCollide(ca, cb)) return true;
    }
  }
  return false;
}

LshCandidateIndex LshCandidateIndex::Build(const DataLake& lake,
                                           LakeSketchCache& cache,
                                           const LshOptions& options,
                                           ThreadPool* pool,
                                           obs::MetricsRegistry* metrics) {
  LshCandidateIndex index;
  const auto& tables = lake.tables();

  // Stage 1: per-column profiles, one task per table. Each slot is written
  // by exactly one task and a profile is a pure function of the column's
  // sketch, so the fan-out is thread-count-independent.
  std::vector<std::vector<ColumnLshProfile>>& profiles = index.profiles_;
  profiles.resize(tables.size());
  obs::Tracer* tracer = pool != nullptr ? pool->tracer() : nullptr;
  obs::TaskContext ctx =
      obs::CaptureTaskContext(tables.empty() ? nullptr : tracer);
  ParallelFor(pool, 0, tables.size(), /*grain=*/1, [&](size_t t) {
    obs::ScopedWorkerSpan span(ctx, "sketch.minhash");
    LakeSketchCache::TableSketchesPin pin = cache.GetOrBuild(t);
    profiles[t] = ComputeTableLshProfiles(tables[t], *pin, options);
  });

  // Stage 2: file every indexed column under its profile's bucket keys,
  // sequentially (bucket fill is cheap relative to signature hashing; a
  // shared hash map is not worth the synchronisation).
  std::unordered_map<uint64_t, std::vector<ColumnRef>> buckets;
  for (size_t t = 0; t < tables.size(); ++t) {
    for (size_t c = 0; c < profiles[t].size(); ++c) {
      const ColumnLshProfile& profile = profiles[t][c];
      if (!profile.indexed) {
        ++index.columns_skipped_;
        continue;
      }
      ++index.columns_indexed_;
      // An indexed column carries a full-width signature.
      index.signature_bytes_ +=
          sizeof(MinHashSignature) + kNumHashes * sizeof(uint64_t);
      ColumnRef ref{static_cast<uint32_t>(t), static_cast<uint32_t>(c),
                    profile.num_distinct};
      for (uint64_t key : profile.bucket_keys) buckets[key].push_back(ref);
      index.bucket_entries_ += profile.bucket_keys.size();
    }
  }

  // Stage 3: every cross-table pair sharing a bucket becomes a candidate
  // table pair. The pair list is sorted and deduplicated, so neither the
  // map's iteration order nor the thread count can leak into the output.
  std::vector<std::pair<size_t, size_t>> pairs;
  for (const auto& [key, refs] : buckets) {
    (void)key;
    if (refs.size() < 2) continue;
    for (size_t a = 0; a < refs.size(); ++a) {
      for (size_t b = a + 1; b < refs.size(); ++b) {
        if (refs[a].table == refs[b].table) continue;
        ++index.bucket_collisions_;
        pairs.emplace_back(std::min(refs[a].table, refs[b].table),
                           std::max(refs[a].table, refs[b].table));
      }
    }
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  index.pairs_ = std::move(pairs);

  obs::Increment(obs::GetCounter(metrics, "lsh.bands"), kNumBands);
  obs::Increment(obs::GetCounter(metrics, "lsh.signature_bytes"),
                 index.signature_bytes_);
  obs::Increment(obs::GetCounter(metrics, "lsh.columns_indexed"),
                 index.columns_indexed_);
  obs::Increment(obs::GetCounter(metrics, "lsh.columns_skipped"),
                 index.columns_skipped_);
  obs::Increment(obs::GetCounter(metrics, "lsh.bucket_collisions"),
                 index.bucket_collisions_);
  obs::AddBytesWithPeak(obs::GetGauge(metrics, "lsh_index.bytes"),
                        obs::GetGauge(metrics, "lsh_index.bytes_peak"),
                        static_cast<int64_t>(index.ApproxBytes()));
  return index;
}

size_t LshCandidateIndex::ApproxBytes() const {
  return sizeof(LshCandidateIndex) + signature_bytes_ +
         bucket_entries_ * (sizeof(ColumnRef) + sizeof(uint64_t)) +
         pairs_.size() * sizeof(std::pair<size_t, size_t>);
}

}  // namespace autofeat
