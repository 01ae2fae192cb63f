// Seeded random number generation. Every stochastic component in the library
// takes an explicit Rng (or seed) so that runs are reproducible.

#ifndef AUTOFEAT_UTIL_RNG_H_
#define AUTOFEAT_UTIL_RNG_H_

#include <cstdint>
#include <random>
#include <string_view>
#include <vector>

namespace autofeat {

/// \brief Deterministic pseudo-random generator (mt19937_64 wrapper).
class Rng {
 public:
  explicit Rng(uint64_t seed = 42) : engine_(seed) {}

  /// Uniform integer in [lo, hi] (inclusive).
  int64_t UniformInt(int64_t lo, int64_t hi) {
    std::uniform_int_distribution<int64_t> dist(lo, hi);
    return dist(engine_);
  }

  /// Uniform index in [0, n).
  size_t UniformIndex(size_t n) {
    return static_cast<size_t>(UniformInt(0, static_cast<int64_t>(n) - 1));
  }

  /// Uniform double in [lo, hi).
  double Uniform(double lo = 0.0, double hi = 1.0) {
    std::uniform_real_distribution<double> dist(lo, hi);
    return dist(engine_);
  }

  /// Standard normal sample scaled to (mean, stddev).
  double Normal(double mean = 0.0, double stddev = 1.0) {
    std::normal_distribution<double> dist(mean, stddev);
    return dist(engine_);
  }

  bool Bernoulli(double p) {
    std::bernoulli_distribution dist(p);
    return dist(engine_);
  }

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    if (v->empty()) return;
    for (size_t i = v->size() - 1; i > 0; --i) {
      std::swap((*v)[i], (*v)[UniformIndex(i + 1)]);
    }
  }

  /// A random permutation of [0, n).
  std::vector<size_t> Permutation(size_t n) {
    std::vector<size_t> perm(n);
    for (size_t i = 0; i < n; ++i) perm[i] = i;
    Shuffle(&perm);
    return perm;
  }

  /// Derives an independent child generator (for per-component streams).
  Rng Fork() { return Rng(engine_()); }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

/// Derives a statistically independent seed for stream `stream` of a master
/// `seed` (splitmix64 finaliser). Parallel call sites seed one Rng per task
/// from (seed, task_index) so results do not depend on how many threads
/// consumed a shared generator.
inline uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// 64-bit FNV-1a of `bytes`, continuing from `state` (the offset basis by
/// default, so chained calls hash the concatenation). The one byte-string
/// hash of the library: platform-stable, unlike std::hash, so it may decide
/// outputs (`.afc` checksums, obs digests, sketch and LSH keys, cache
/// stream ids).
inline uint64_t Fnv1a64(std::string_view bytes,
                        uint64_t state = 0xCBF29CE484222325ULL) {
  for (unsigned char c : bytes) {
    state ^= c;
    state *= 0x100000001B3ULL;
  }
  return state;
}

}  // namespace autofeat

#endif  // AUTOFEAT_UTIL_RNG_H_
