#include "stats/information.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <unordered_map>

#include "stats/discretize.h"
#include "util/simd.h"

namespace autofeat {

namespace {

// Missing-coded rows are excluded from all estimates (pairwise-complete):
// joins null out entire row ranges at once, so "missing" as a category
// would dominate any inter-feature dependence measure.
bool Present(int a) { return a != kMissingBin; }

// The SIMD counting kernels hard-code the missing sentinel.
static_assert(kMissingBin == -1,
              "simd::CountPresent/CountJointPresent mask lanes equal to -1");

// Codes produced by the discretisers are small (<= ~33); the dense path
// covers them. Larger/negative-range codes fall back to hashing.
constexpr int kDenseLimit = 64;

// ---- Reusable per-thread scratch ------------------------------------------
//
// Every scoring call used to allocate its contingency tables (and, on the
// hash path, three unordered_maps) from scratch; under BFS evaluation that
// is several allocations per candidate. One scratch block per worker thread
// amortises them: buffers are sized on first use, reused across candidates
// and chunks, and released when the owning thread (pool worker or caller)
// exits.

// Hash-path counter: maps packed code tuples to dense indices in
// first-occurrence order, counts in a flat vector. Two properties matter:
// (a) clear() keeps capacity, so steady-state calls allocate nothing;
// (b) the entropy reduction runs over `counts` in first-occurrence order —
// a pure function of the input sequence — never over the map's bucket
// order, which depends on the container's allocation history and would
// otherwise leak the loop schedule into last-ulp entropy values.
struct HashCounter {
  std::unordered_map<uint64_t, uint32_t> index;
  std::vector<uint32_t> counts;

  void Clear() {
    index.clear();
    counts.clear();
  }
  void Add(uint64_t key) {
    auto [it, inserted] =
        index.try_emplace(key, static_cast<uint32_t>(counts.size()));
    if (inserted) {
      counts.push_back(1);
    } else {
      ++counts[it->second];
    }
  }
  // Plug-in entropy over the accumulated counts (every count is > 0).
  double Entropy(size_t n) const {
    if (n == 0) return 0.0;
    return simd::SumPLogP(counts.data(), counts.size(),
                          static_cast<double>(n));
  }
  // Miller-Madow corrected form; every slot is occupied by construction.
  double EntropyMM(size_t n) const {
    if (n == 0) return 0.0;
    return Entropy(n) + (static_cast<double>(counts.size()) - 1.0) /
                            (2.0 * static_cast<double>(n));
  }
};

struct EntropyScratch {
  std::vector<uint32_t> joint;   // kx*ky cells + one trash slot
  std::vector<uint32_t> cx, cy;  // dense marginals
  HashCounter hx, hy, hxy, hz;   // hash fallback + triple terms
};

EntropyScratch& Scratch() {
  thread_local EntropyScratch scratch;
  return scratch;
}

struct PairEntropies {
  double hx = 0, hy = 0, hxy = 0;
  double hx_mm = 0, hy_mm = 0, hxy_mm = 0;
};

// Miller-Madow correction term over a dense count vector.
double MmTerm(const uint32_t* counts, size_t k, size_t n) {
  if (n == 0) return 0.0;
  return (static_cast<double>(simd::CountNonZero32(counts, k)) - 1.0) /
         (2.0 * static_cast<double>(n));
}

// Dense two-way contingency entropies without copying the inputs: pass 1 is
// a masked min/max over complete rows, pass 2 counts joint cells branch-free
// (incomplete rows land in a trash slot past the table), marginals are then
// row/column sums of the joint table and all three entropies go through the
// vectorised p*log(p) reduction. Returns false when either code range
// exceeds the dense limit.
bool DensePairEntropies(const std::vector<int>& x, const std::vector<int>& y,
                        PairEntropies* out) {
  assert(x.size() == y.size());
  int mm[4] = {INT32_MAX, INT32_MIN, INT32_MAX, INT32_MIN};
  simd::PairMinMaxPresent(x.data(), y.data(), x.size(), mm);
  if (mm[0] > mm[1]) {  // no complete rows
    *out = PairEntropies{};
    return true;
  }
  if (static_cast<int64_t>(mm[1]) - mm[0] >= kDenseLimit ||
      static_cast<int64_t>(mm[3]) - mm[2] >= kDenseLimit) {
    return false;
  }
  const int kx = mm[1] - mm[0] + 1;
  const int ky = mm[3] - mm[2] + 1;
  const size_t cells = static_cast<size_t>(kx) * static_cast<size_t>(ky);

  EntropyScratch& s = Scratch();
  s.joint.assign(cells + 1, 0);
  simd::CountJointPresent(x.data(), y.data(), x.size(), mm[0], mm[2], ky,
                          /*trash=*/cells, s.joint.data());
  const size_t n = x.size() - s.joint[cells];

  s.cx.assign(static_cast<size_t>(kx), 0);
  s.cy.assign(static_cast<size_t>(ky), 0);
  const uint32_t* joint = s.joint.data();
  for (int i = 0; i < kx; ++i) {
    const uint32_t* row = joint + static_cast<size_t>(i) * ky;
    uint32_t row_sum = 0;
    for (int j = 0; j < ky; ++j) {
      row_sum += row[j];
      s.cy[static_cast<size_t>(j)] += row[j];
    }
    s.cx[static_cast<size_t>(i)] = row_sum;
  }

  const double dn = static_cast<double>(n);
  out->hx = simd::SumPLogP(s.cx.data(), static_cast<size_t>(kx), dn);
  out->hy = simd::SumPLogP(s.cy.data(), static_cast<size_t>(ky), dn);
  out->hxy = simd::SumPLogP(joint, cells, dn);
  out->hx_mm = out->hx + MmTerm(s.cx.data(), static_cast<size_t>(kx), n);
  out->hy_mm = out->hy + MmTerm(s.cy.data(), static_cast<size_t>(ky), n);
  out->hxy_mm = out->hxy + MmTerm(joint, cells, n);
  return true;
}

// ---- Hash fallback (arbitrary code ranges) --------------------------------

// Packs small signed codes into tuple keys (bias keeps them non-negative).
uint64_t Pack1(int a) { return static_cast<uint64_t>(a + (1 << 20)); }
uint64_t Pack2(int a, int b) { return (Pack1(a) << 21) | Pack1(b); }
uint64_t Pack3(int a, int b, int c) { return (Pack2(a, b) << 21) | Pack1(c); }

PairEntropies HashPairEntropies(const std::vector<int>& x,
                                const std::vector<int>& y) {
  PairEntropies out;
  EntropyScratch& s = Scratch();
  s.hx.Clear();
  s.hy.Clear();
  s.hxy.Clear();
  size_t n = 0;
  for (size_t i = 0; i < x.size(); ++i) {
    if (!Present(x[i]) || !Present(y[i])) continue;
    s.hx.Add(Pack1(x[i]));
    s.hy.Add(Pack1(y[i]));
    s.hxy.Add(Pack2(x[i], y[i]));
    ++n;
  }
  out.hx = s.hx.Entropy(n);
  out.hy = s.hy.Entropy(n);
  out.hxy = s.hxy.Entropy(n);
  out.hx_mm = s.hx.EntropyMM(n);
  out.hy_mm = s.hy.EntropyMM(n);
  out.hxy_mm = s.hxy.EntropyMM(n);
  return out;
}

PairEntropies ComputePairEntropies(const std::vector<int>& x,
                                   const std::vector<int>& y) {
  PairEntropies out;
  if (DensePairEntropies(x, y, &out)) return out;
  return HashPairEntropies(x, y);
}

// Single-vector dense entropy: one masked min/max pass, one counting pass
// into a flat table with a trash slot for missing rows. No joint table, no
// input copy — this is what Entropy(x) used to pay for by reusing the pair
// machinery with y == x.
bool DenseSingleEntropy(const std::vector<int>& x, double* h) {
  int mm[2] = {INT32_MAX, INT32_MIN};
  simd::MinMaxPresent(x.data(), x.size(), mm);
  if (mm[0] > mm[1]) {  // empty or all-missing
    *h = 0.0;
    return true;
  }
  if (static_cast<int64_t>(mm[1]) - mm[0] >= kDenseLimit) return false;
  const size_t k = static_cast<size_t>(mm[1] - mm[0] + 1);
  EntropyScratch& s = Scratch();
  s.cx.assign(k + 1, 0);
  simd::CountPresent(x.data(), x.size(), mm[0], /*trash=*/k, s.cx.data());
  const size_t n = x.size() - s.cx[k];
  *h = simd::SumPLogP(s.cx.data(), k, static_cast<double>(n));
  return true;
}

}  // namespace

double Entropy(const std::vector<int>& x) {
  double h = 0.0;
  if (DenseSingleEntropy(x, &h)) return h;
  EntropyScratch& s = Scratch();
  s.hx.Clear();
  size_t n = 0;
  for (int a : x) {
    if (!Present(a)) continue;
    s.hx.Add(Pack1(a));
    ++n;
  }
  return s.hx.Entropy(n);
}

double JointEntropy(const std::vector<int>& x, const std::vector<int>& y) {
  return ComputePairEntropies(x, y).hxy;
}

double MutualInformation(const std::vector<int>& x,
                         const std::vector<int>& y) {
  PairEntropies e = ComputePairEntropies(x, y);
  return std::max(0.0, e.hx + e.hy - e.hxy);
}

double MutualInformationCorrected(const std::vector<int>& x,
                                  const std::vector<int>& y) {
  PairEntropies e = ComputePairEntropies(x, y);
  return std::max(0.0, e.hx_mm + e.hy_mm - e.hxy_mm);
}

double SymmetricalUncertainty(const std::vector<int>& x,
                              const std::vector<int>& y) {
  PairEntropies e = ComputePairEntropies(x, y);
  if (e.hx + e.hy <= 0.0) return 0.0;
  double mi = std::max(0.0, e.hx + e.hy - e.hxy);
  return 2.0 * mi / (e.hx + e.hy);
}

namespace {

struct TripleEntropies {
  double hxz = 0, hyz = 0, hxyz = 0, hz = 0;
  double hxz_mm = 0, hyz_mm = 0, hxyz_mm = 0, hz_mm = 0;
};

TripleEntropies ComputeTripleEntropies(const std::vector<int>& x,
                                       const std::vector<int>& y,
                                       const std::vector<int>& z) {
  assert(x.size() == y.size() && y.size() == z.size());
  TripleEntropies out;
  EntropyScratch& s = Scratch();
  s.hx.Clear();
  s.hy.Clear();
  s.hxy.Clear();
  s.hz.Clear();
  size_t n = 0;
  for (size_t i = 0; i < x.size(); ++i) {
    if (!Present(x[i]) || !Present(y[i]) || !Present(z[i])) continue;
    s.hx.Add(Pack2(x[i], z[i]));
    s.hy.Add(Pack2(y[i], z[i]));
    s.hxy.Add(Pack3(x[i], y[i], z[i]));
    s.hz.Add(Pack1(z[i]));
    ++n;
  }
  out.hxz = s.hx.Entropy(n);
  out.hyz = s.hy.Entropy(n);
  out.hxyz = s.hxy.Entropy(n);
  out.hz = s.hz.Entropy(n);
  out.hxz_mm = s.hx.EntropyMM(n);
  out.hyz_mm = s.hy.EntropyMM(n);
  out.hxyz_mm = s.hxy.EntropyMM(n);
  out.hz_mm = s.hz.EntropyMM(n);
  return out;
}

}  // namespace

double ConditionalMutualInformation(const std::vector<int>& x,
                                    const std::vector<int>& y,
                                    const std::vector<int>& z) {
  TripleEntropies e = ComputeTripleEntropies(x, y, z);
  return std::max(0.0, e.hxz + e.hyz - e.hxyz - e.hz);
}

double ConditionalMutualInformationCorrected(const std::vector<int>& x,
                                             const std::vector<int>& y,
                                             const std::vector<int>& z) {
  TripleEntropies e = ComputeTripleEntropies(x, y, z);
  return std::max(0.0, e.hxz_mm + e.hyz_mm - e.hxyz_mm - e.hz_mm);
}

// ---- Scalar reference implementations -------------------------------------
//
// The pre-SIMD code path, kept verbatim as the differential oracle for
// tests/kernels_test.cc and the before/after axis of bench/kernels.cc.
// Same estimators, independent mechanics: input-copying dense remap,
// size_t counts, std::log, fresh hash maps per call.

namespace reference {

namespace {

double EntropyOfDense(const std::vector<size_t>& counts, size_t n) {
  if (n == 0) return 0.0;
  double h = 0.0;
  double dn = static_cast<double>(n);
  for (size_t c : counts) {
    if (c == 0) continue;
    double p = static_cast<double>(c) / dn;
    h -= p * std::log(p);
  }
  return h;
}

size_t OccupiedCells(const std::vector<size_t>& counts) {
  size_t k = 0;
  for (size_t c : counts) k += (c != 0);
  return k;
}

double DenseMmTerm(const std::vector<size_t>& counts, size_t n) {
  if (n == 0) return 0.0;
  return (static_cast<double>(OccupiedCells(counts)) - 1.0) /
         (2.0 * static_cast<double>(n));
}

// Remaps arbitrary int codes (missing rows of either input dropped) into
// dense 0..k-1 codes. Returns false if the dense limit is exceeded.
struct DensePair {
  std::vector<int> x, y;  // parallel, remapped, complete rows only
  int kx = 0, ky = 0;
};

bool BuildDensePair(const std::vector<int>& x, const std::vector<int>& y,
                    DensePair* out) {
  assert(x.size() == y.size());
  int min_x = 0, max_x = -1, min_y = 0, max_y = -1;
  bool first = true;
  for (size_t i = 0; i < x.size(); ++i) {
    if (!Present(x[i]) || !Present(y[i])) continue;
    if (first) {
      min_x = max_x = x[i];
      min_y = max_y = y[i];
      first = false;
    } else {
      min_x = std::min(min_x, x[i]);
      max_x = std::max(max_x, x[i]);
      min_y = std::min(min_y, y[i]);
      max_y = std::max(max_y, y[i]);
    }
  }
  if (first) {
    out->kx = out->ky = 0;
    return true;
  }
  if (max_x - min_x >= kDenseLimit || max_y - min_y >= kDenseLimit) {
    return false;
  }
  out->kx = max_x - min_x + 1;
  out->ky = max_y - min_y + 1;
  out->x.clear();
  out->y.clear();
  out->x.reserve(x.size());
  out->y.reserve(y.size());
  for (size_t i = 0; i < x.size(); ++i) {
    if (!Present(x[i]) || !Present(y[i])) continue;
    out->x.push_back(x[i] - min_x);
    out->y.push_back(y[i] - min_y);
  }
  return true;
}

PairEntropies DensePairEntropiesRef(const DensePair& p) {
  PairEntropies out;
  size_t n = p.x.size();
  if (n == 0 || p.kx == 0 || p.ky == 0) return out;
  std::vector<size_t> cx(static_cast<size_t>(p.kx), 0);
  std::vector<size_t> cy(static_cast<size_t>(p.ky), 0);
  std::vector<size_t> cxy(static_cast<size_t>(p.kx) * p.ky, 0);
  for (size_t i = 0; i < n; ++i) {
    ++cx[static_cast<size_t>(p.x[i])];
    ++cy[static_cast<size_t>(p.y[i])];
    ++cxy[static_cast<size_t>(p.x[i]) * p.ky + p.y[i]];
  }
  out.hx = EntropyOfDense(cx, n);
  out.hy = EntropyOfDense(cy, n);
  out.hxy = EntropyOfDense(cxy, n);
  out.hx_mm = out.hx + DenseMmTerm(cx, n);
  out.hy_mm = out.hy + DenseMmTerm(cy, n);
  out.hxy_mm = out.hxy + DenseMmTerm(cxy, n);
  return out;
}

double EntropyOfCounts(const std::unordered_map<uint64_t, size_t>& counts,
                       size_t n) {
  if (n == 0) return 0.0;
  double h = 0.0;
  double dn = static_cast<double>(n);
  for (const auto& [key, c] : counts) {
    double p = static_cast<double>(c) / dn;
    h -= p * std::log(p);
  }
  return h;
}

double EntropyMMOfCounts(const std::unordered_map<uint64_t, size_t>& counts,
                         size_t n) {
  if (n == 0) return 0.0;
  return EntropyOfCounts(counts, n) +
         (static_cast<double>(counts.size()) - 1.0) /
             (2.0 * static_cast<double>(n));
}

PairEntropies HashPairEntropiesRef(const std::vector<int>& x,
                                   const std::vector<int>& y) {
  PairEntropies out;
  std::unordered_map<uint64_t, size_t> cx, cy, cxy;
  size_t n = 0;
  for (size_t i = 0; i < x.size(); ++i) {
    if (!Present(x[i]) || !Present(y[i])) continue;
    ++cx[Pack1(x[i])];
    ++cy[Pack1(y[i])];
    ++cxy[Pack2(x[i], y[i])];
    ++n;
  }
  out.hx = EntropyOfCounts(cx, n);
  out.hy = EntropyOfCounts(cy, n);
  out.hxy = EntropyOfCounts(cxy, n);
  out.hx_mm = EntropyMMOfCounts(cx, n);
  out.hy_mm = EntropyMMOfCounts(cy, n);
  out.hxy_mm = EntropyMMOfCounts(cxy, n);
  return out;
}

PairEntropies ComputePairEntropiesRef(const std::vector<int>& x,
                                      const std::vector<int>& y) {
  DensePair dense;
  if (BuildDensePair(x, y, &dense)) return DensePairEntropiesRef(dense);
  return HashPairEntropiesRef(x, y);
}

}  // namespace

double Entropy(const std::vector<int>& x) {
  return ComputePairEntropiesRef(x, x).hx;
}

double JointEntropy(const std::vector<int>& x, const std::vector<int>& y) {
  return ComputePairEntropiesRef(x, y).hxy;
}

double MutualInformation(const std::vector<int>& x,
                         const std::vector<int>& y) {
  PairEntropies e = ComputePairEntropiesRef(x, y);
  return std::max(0.0, e.hx + e.hy - e.hxy);
}

double MutualInformationCorrected(const std::vector<int>& x,
                                  const std::vector<int>& y) {
  PairEntropies e = ComputePairEntropiesRef(x, y);
  return std::max(0.0, e.hx_mm + e.hy_mm - e.hxy_mm);
}

double SymmetricalUncertainty(const std::vector<int>& x,
                              const std::vector<int>& y) {
  PairEntropies e = ComputePairEntropiesRef(x, y);
  if (e.hx + e.hy <= 0.0) return 0.0;
  double mi = std::max(0.0, e.hx + e.hy - e.hxy);
  return 2.0 * mi / (e.hx + e.hy);
}

}  // namespace reference

}  // namespace autofeat
