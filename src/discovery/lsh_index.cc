#include "discovery/lsh_index.h"

#include <algorithm>

#include "obs/memory.h"
#include "obs/metrics.h"
#include "util/rng.h"
#include "util/simd.h"

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

// Mixes a band's row minima into one bucket fingerprint.
uint64_t BandContentHash(const uint64_t* mins, size_t rows) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (size_t r = 0; r < rows; ++r) {
    h ^= mins[r];
    h *= 0x100000001b3ULL;
  }
  return h;
}

// Appends the bucket keys of one column, unsorted: one per band, plus one
// per sketch hash when the column is small enough to be rescued.
void AppendColumnBucketKeys(const ColumnSketch& sketch, DataType type,
                            const LshOptions& options,
                            std::vector<uint64_t>* keys) {
  if (sketch.hashes.empty()) return;
  const uint64_t group = type != DataType::kDouble ? 1 : 0;
  const MinHashSignature sig = ComputeMinHashSignature(sketch, kNumHashes);
  for (size_t b = 0; b < kNumBands; ++b) {
    uint64_t content =
        BandContentHash(sig.mins.data() + b * kRowsPerBand, kRowsPerBand);
    keys->push_back(DeriveSeed(content, 2 * b + group));
  }
  // Small-column rescue: every sketch hash gets its own bucket, so two
  // rescued columns whose sketches intersect at all are guaranteed a
  // collision, covering asymmetric containment joins banding would miss.
  if (options.small_column_rescue > 0 &&
      sketch.num_distinct <= options.small_column_rescue) {
    const uint64_t rescue_stream = 2 * kNumBands + group;
    for (uint64_t h : sketch.hashes) {
      keys->push_back(DeriveSeed(h, rescue_stream));
    }
  }
}

}  // namespace

std::vector<uint64_t> TableBucketKeys(const Table& table,
                                      const std::vector<ColumnSketch>& sketches,
                                      const LshOptions& options) {
  std::vector<uint64_t> keys;
  for (size_t c = 0; c < sketches.size(); ++c) {
    AppendColumnBucketKeys(sketches[c], table.schema().field(c).type, options,
                           &keys);
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

std::vector<std::pair<size_t, size_t>> LshCandidatePairs(
    const std::vector<std::vector<uint64_t>>& table_keys,
    obs::MetricsRegistry* metrics) {
  // One (key, table) entry per key of each set; sorting brings every bucket
  // together as one run, tables ascending within it.
  size_t total = 0;
  for (const std::vector<uint64_t>& keys : table_keys) total += keys.size();
  std::vector<std::pair<uint64_t, uint32_t>> entries;
  entries.reserve(total);
  for (size_t t = 0; t < table_keys.size(); ++t) {
    for (uint64_t key : table_keys[t]) {
      entries.emplace_back(key, static_cast<uint32_t>(t));
    }
  }
  obs::Gauge* bytes = obs::GetGauge(metrics, "lsh_index.bytes");
  obs::Gauge* bytes_peak = obs::GetGauge(metrics, "lsh_index.bytes_peak");
  const int64_t entry_bytes =
      static_cast<int64_t>(total * sizeof(entries[0]));
  obs::AddBytesWithPeak(bytes, bytes_peak, entry_bytes);
  std::sort(entries.begin(), entries.end());

  // A key set holds each key once, so a run's tables are distinct and
  // every two of them collide.
  std::vector<std::pair<size_t, size_t>> pairs;
  for (size_t begin = 0, end = 0; begin < entries.size(); begin = end) {
    end = begin + 1;
    while (end < entries.size() &&
           entries[end].first == entries[begin].first) {
      ++end;
    }
    for (size_t a = begin; a < end; ++a) {
      for (size_t b = a + 1; b < end; ++b) {
        pairs.emplace_back(entries[a].second, entries[b].second);
      }
    }
  }
  std::vector<std::pair<uint64_t, uint32_t>>().swap(entries);  // frees them
  obs::AddBytesWithPeak(bytes, bytes_peak, -entry_bytes);
  obs::Increment(obs::GetCounter(metrics, "lsh.bucket_collisions"),
                 pairs.size());
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  return pairs;
}

BucketKeyProbe::BucketKeyProbe(std::vector<uint64_t> keys)
    : keys_(std::move(keys)) {
  // At least 128 filter bits per key: fewer than 1 in 128 keys of a table
  // that shares none pays a binary search.
  int log_bits = 6;
  while ((size_t{1} << log_bits) < 128 * keys_.size()) ++log_bits;
  shift_ = 64 - log_bits;
  filter_.assign((size_t{1} << log_bits) / 64, 0);
  for (uint64_t key : keys_) {
    const uint64_t slot = key >> shift_;
    filter_[slot >> 6] |= uint64_t{1} << (slot & 63);
  }
}

bool BucketKeyProbe::Collides(const std::vector<uint64_t>& other) const {
  for (uint64_t key : other) {
    const uint64_t slot = key >> shift_;
    if ((filter_[slot >> 6] >> (slot & 63) & 1) != 0 &&
        std::binary_search(keys_.begin(), keys_.end(), key)) {
      return true;
    }
  }
  return false;
}

}  // namespace autofeat
