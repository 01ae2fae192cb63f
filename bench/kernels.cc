// Scoring-kernel microbenchmark (not a paper figure).
//
// Times each SIMD-rewritten hot kernel against the scalar reference it
// replaced, on inputs shaped like the discovery hot path: dense SU/MI
// scoring (the per-candidate cost center), single-column entropy, MinHash
// signature hashing, and the numeric join gather. The one exception is
// GBDT histogram accumulation (AccumulateGh), which has a single
// plain-loop kernel and is timed alone. Each phase reports min-of-reps
// wall seconds; the su_dense pair is the acceptance gate — the binary
// exits non-zero if the optimised dense MI/SU path is not at least 2x the
// reference while a vector backend is compiled in. The timings are printed
// only; timing claims are made with bench/ledger.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "harness.h"
#include "discovery/lsh_index.h"
#include "discovery/sketch_cache.h"
#include "relational/join_index.h"
#include "stats/discretize.h"
#include "stats/information.h"
#include "table/column.h"
#include "util/rng.h"
#include "util/simd.h"
#include "util/timer.h"

namespace autofeat::benchx {
namespace {

// Global sink so no timed loop can be dead-code-eliminated.
double g_sink = 0.0;

// Min-of-reps wall seconds of fn() (each rep runs `inner` calls).
template <typename Fn>
double MinSeconds(size_t reps, Fn&& fn) {
  double best = 1e300;
  for (size_t r = 0; r < reps; ++r) {
    Timer timer;
    fn();
    best = std::min(best, timer.ElapsedSeconds());
  }
  return best;
}

std::vector<int> RandomCodes(Rng* rng, size_t n, int k, double missing) {
  std::vector<int> x(n);
  for (size_t i = 0; i < n; ++i) {
    x[i] = rng->Bernoulli(missing) ? kMissingBin
                                   : static_cast<int>(rng->UniformIndex(
                                         static_cast<size_t>(k)));
  }
  return x;
}

int Run() {
  const bool full = FullMode();
  const size_t n = full ? 400000 : 100000;
  const size_t reps = 5;
  Rng rng(4242);
  auto record = [](const std::string& phase, double seconds) {
    std::printf("  %-28s %9.3f ms\n", phase.c_str(), seconds * 1e3);
  };

  std::printf("kernels microbench (simd backend: %s, %s mode, n=%zu)\n",
              simd::kBackendName, full ? "full" : "quick", n);

  // --- Dense pair scoring: the per-candidate MI/SU cost center. ---
  std::vector<int> x = RandomCodes(&rng, n, 24, 0.05);
  std::vector<int> y = RandomCodes(&rng, n, 24, 0.05);
  const size_t pair_calls = 8;
  double su_ref = MinSeconds(reps, [&] {
    for (size_t c = 0; c < pair_calls; ++c) {
      g_sink += reference::SymmetricalUncertainty(x, y);
      g_sink += reference::MutualInformationCorrected(x, y);
    }
  });
  double su_simd = MinSeconds(reps, [&] {
    for (size_t c = 0; c < pair_calls; ++c) {
      g_sink += SymmetricalUncertainty(x, y);
      g_sink += MutualInformationCorrected(x, y);
    }
  });
  record("su_dense_reference", su_ref);
  record("su_dense_simd", su_simd);

  // --- Single-column entropy (the satellite fast path). ---
  double ent_ref = MinSeconds(reps, [&] {
    for (size_t c = 0; c < pair_calls; ++c) g_sink += reference::Entropy(x);
  });
  double ent_simd = MinSeconds(reps, [&] {
    for (size_t c = 0; c < pair_calls; ++c) g_sink += Entropy(x);
  });
  record("entropy_single_reference", ent_ref);
  record("entropy_single_simd", ent_simd);

  // --- GBDT histogram accumulation (64 bins, row-index indirection). ---
  // Fixed-point (g, h) pairs scaled as the GBDT scales them: g in [-1, 1]
  // times 2^b, and h = 1/4 times 2^(b+2).
  const size_t hist_rows = n;
  const int bits = 62 - static_cast<int>(std::bit_width(hist_rows));
  std::vector<uint8_t> codes(hist_rows);
  std::vector<int64_t> gh_rows(2 * hist_rows);
  std::vector<uint32_t> rows(hist_rows);
  for (size_t i = 0; i < hist_rows; ++i) {
    codes[i] = static_cast<uint8_t>(rng.UniformIndex(64));
    gh_rows[2 * i] =
        std::llround(std::ldexp(std::clamp(rng.Normal(), -1.0, 1.0), bits));
    gh_rows[2 * i + 1] = int64_t{1} << bits;
    rows[i] = static_cast<uint32_t>(i);
  }
  std::vector<int64_t> gh(2 * 64, 0);
  const size_t hist_calls = 8;
  double hist_simd = MinSeconds(reps, [&] {
    for (size_t c = 0; c < hist_calls; ++c) {
      std::fill(gh.begin(), gh.end(), 0);
      simd::AccumulateGh(codes.data(), gh_rows.data(), rows.data(), hist_rows,
                         gh.data());
      g_sink += static_cast<double>(gh[0]);
    }
  });
  record("hist_gh_simd", hist_simd);

  // --- MinHash signatures (64 derivation streams per value). ---
  std::vector<std::string> sketch_values;
  for (size_t v = 0; v < 2000; ++v) {
    sketch_values.push_back("value_" + std::to_string(v));
  }
  const ColumnSketch sketch =
      BuildColumnSketch(Column::Strings(sketch_values), /*max_sample=*/4096);
  double mh_ref = MinSeconds(reps, [&] {
    MinHashSignature sig = ComputeMinHashSignatureReference(sketch, 64);
    g_sink += static_cast<double>(sig.mins[0]);
  });
  double mh_simd = MinSeconds(reps, [&] {
    MinHashSignature sig = ComputeMinHashSignature(sketch, 64);
    g_sink += static_cast<double>(sig.mins[0]);
  });
  record("minhash_reference", mh_ref);
  record("minhash_simd", mh_simd);

  // --- Numeric gather through a join row mapping (30% unmatched). ---
  const size_t gather_rows = 4 * n;
  std::vector<double> src_values(n);
  for (double& v : src_values) v = rng.Normal();
  Column src = Column::Doubles(src_values);
  std::vector<uint32_t> mapping(gather_rows);
  for (uint32_t& r : mapping) {
    r = rng.Bernoulli(0.3) ? kNoMatchRow
                           : static_cast<uint32_t>(rng.UniformIndex(n));
  }
  double gather_ref = MinSeconds(reps, [&] {
    std::vector<double> out = GatherNumericReference(src, mapping);
    g_sink += out[0];
  });
  double gather_simd = MinSeconds(reps, [&] {
    std::vector<double> out = GatherNumeric(src, mapping);
    g_sink += out[0];
  });
  record("gather_reference", gather_ref);
  record("gather_simd", gather_simd);

  double su_speedup = su_ref / su_simd;
  std::printf("speedups: su_dense %.2fx, entropy %.2fx, minhash %.2fx, "
              "gather %.2fx  (sink %g)\n",
              su_speedup, ent_ref / ent_simd, mh_ref / mh_simd,
              gather_ref / gather_simd, g_sink);
  if (std::string(simd::kBackendName) != "scalar" && su_speedup < 2.0) {
    std::fprintf(stderr,
                 "FAIL: dense MI/SU kernel speedup %.2fx < 2x on the %s "
                 "backend\n",
                 su_speedup, simd::kBackendName);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace autofeat::benchx

int main() { return autofeat::benchx::Run(); }
