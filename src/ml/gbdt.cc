#include "ml/gbdt.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <utility>

#include "util/simd.h"
#include "util/thread_pool.h"

namespace autofeat::ml {

namespace {

// Rows per chunk of the gradient pass, a parallel histogram and prediction.
constexpr size_t kRowChunk = 2048;
// Nodes with at least this many rows build their histogram in row chunks on
// the pool; smaller ones would spend more on waking a helper than it saves.
constexpr size_t kParallelHistogramRows = 2 * kRowChunk;

size_t NumRowChunks(size_t rows) { return (rows + kRowChunk - 1) / kRowChunk; }

double Sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }

// std::lower_bound's index over the sorted edges[0, n) with no branch on
// the data: a bin code, the index of the first edge >= value. Every edge
// before `base` is below the value, and the answer is at most base + n.
size_t FirstEdgeAtLeast(const double* edges, size_t n, double value) {
  const double* base = edges;
  while (n > 1) {
    const size_t half = n / 2;
    base = base[half] < value ? base + half : base;
    n -= half;
  }
  return static_cast<size_t>(base - edges) + (n == 1 && *base < value);
}

// Newton gain of a candidate child with gradient sum g and hessian sum h.
double LeafGain(double g, double h, double lambda) {
  return g * g / (h + lambda);
}

}  // namespace

std::vector<double> FeatureBinner::FitEdges(std::vector<double> values,
                                            int max_bins) {
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  std::vector<double> edges;
  if (values.size() <= 1) return edges;  // Constant: single bin, no edges.
  size_t bins = std::min<size_t>(static_cast<size_t>(max_bins),
                                 values.size());
  if (values.size() <= bins) {
    // One bin per distinct value: edges at midpoints.
    for (size_t i = 0; i + 1 < values.size(); ++i) {
      edges.push_back((values[i] + values[i + 1]) / 2.0);
    }
  } else {
    for (size_t b = 1; b < bins; ++b) {
      size_t idx = b * values.size() / bins;
      double edge = (values[idx - 1] + values[idx]) / 2.0;
      if (edges.empty() || edge > edges.back()) edges.push_back(edge);
    }
  }
  return edges;
}

std::vector<uint8_t> FeatureBinner::BinColumn(
    const std::vector<double>& edges, const std::vector<double>& values) {
  std::vector<uint8_t> codes(values.size());
  for (size_t r = 0; r < values.size(); ++r) {
    // First edge >= value; values above all edges land in the last bin.
    codes[r] = static_cast<uint8_t>(
        FirstEdgeAtLeast(edges.data(), edges.size(), values[r]));
  }
  return codes;
}

void FeatureBinner::Fit(const Dataset& data, int max_bins) {
  edges_.clear();
  for (size_t f = 0; f < data.num_features(); ++f) {
    edges_.push_back(FitEdges(data.column(f), max_bins));
  }
}

uint8_t FeatureBinner::Bin(size_t feature, double value) const {
  const std::vector<double>& edges = edges_[feature];
  return static_cast<uint8_t>(
      FirstEdgeAtLeast(edges.data(), edges.size(), value));
}

std::vector<std::vector<uint8_t>> FeatureBinner::BinAll(
    const Dataset& data) const {
  std::vector<std::vector<uint8_t>> out;
  out.reserve(edges_.size());
  for (size_t f = 0; f < edges_.size(); ++f) {
    out.push_back(BinColumn(edges_[f], data.column(f)));
  }
  return out;
}

Status Gbdt::CheckTrainingShape(size_t num_rows, int max_bins) {
  if (num_rows == 0) return Status::InvalidArgument("empty training set");
  if (num_rows >= (size_t{1} << 32)) {
    return Status::InvalidArgument(
        "GBDT training set has 2^32 or more rows; row ids are 32-bit");
  }
  if (max_bins < 2 || max_bins > 256) {
    return Status::InvalidArgument(
        "GBDT max_bins must be in [2, 256]; bin codes are 8-bit");
  }
  return Status::OK();
}

// One tree's growth state. Nodes own contiguous ranges of `rows_`; a
// histogram holds an int64 (g, h) pair per bin of each candidate feature,
// feature after feature.
class Gbdt::Grower {
 public:
  Grower(Gbdt* model, const Codes& binned, const std::vector<int64_t>& gh,
         int bits, const std::vector<size_t>& features,
         std::vector<uint32_t>* rows, std::vector<uint32_t>* scratch,
         ThreadPool* pool, Tree* tree)
      : options_(model->options_),
        binned_(binned),
        gh_(gh.data()),
        g_unit_(std::ldexp(1.0, -bits)),
        h_unit_(std::ldexp(1.0, -bits - 2)),
        rows_(*rows),
        scratch_(*scratch),
        importances_(model->importances_),
        pool_(pool),
        tree_(tree) {
    offsets_.push_back(0);
    for (size_t f : features) {
      size_t nbins = model->binner_.num_bins(f);
      if (nbins <= 1) continue;
      features_.push_back(f);
      offsets_.push_back(offsets_.back() + 2 * nbins);
    }
  }

  // Grows the tree over rows_[0, size).
  void Grow(size_t size) {
    GhSum sum;
    for (size_t i = 0; i < size; ++i) {
      sum.g += gh_[2 * size_t{rows_[i]}];
      sum.h += gh_[2 * size_t{rows_[i]} + 1];
    }
    std::vector<int64_t> hist;
    if (Splittable(size, 0)) hist = Histogram(0, size);
    GrowNode(0, size, std::move(hist), sum, 0);
  }

  // Adds each leaf's value to the score of every row in its range: the
  // same leaf a walk over the codes reaches, since both compare the codes
  // with the same split bins.
  void AddLeafScores(std::vector<double>* score) const {
    for (size_t i = 0; i < tree_->nodes.size(); ++i) {
      const Node& node = tree_->nodes[i];
      if (node.feature >= 0) continue;
      for (size_t k = ranges_[i].first; k < ranges_[i].second; ++k) {
        (*score)[rows_[k]] += node.value;
      }
    }
  }

 private:
  struct GhSum {
    int64_t g = 0;
    int64_t h = 0;
  };
  struct Split {
    int feature = -1;
    uint8_t bin = 0;
    double gain = 0.0;
    GhSum left;
  };

  bool Splittable(size_t size, int depth) const {
    return depth < options_.max_depth && size >= 2;
  }

  // Node over rows_[begin, end) with (g, h) sums `sum`; `hist` is its
  // histogram, or empty when the node cannot split.
  int GrowNode(size_t begin, size_t end, std::vector<int64_t> hist,
               GhSum sum, int depth) {
    int index = static_cast<int>(tree_->nodes.size());
    tree_->nodes.emplace_back();
    ranges_.emplace_back(begin, end);
    // Newton leaf weight, scaled by the learning rate.
    tree_->nodes[index].value =
        -options_.learning_rate * (static_cast<double>(sum.g) * g_unit_) /
        (static_cast<double>(sum.h) * h_unit_ + options_.lambda);
    if (hist.empty()) return index;

    Split split = BestSplit(hist, sum);
    if (split.feature < 0) {
      Release(&hist);
      return index;
    }
    importances_[static_cast<size_t>(split.feature)] += split.gain;
    size_t mid = Partition(begin, end,
                           binned_[static_cast<size_t>(split.feature)],
                           split.bin);
    if (mid == begin || mid == end) {
      Release(&hist);
      return index;
    }
    tree_->nodes[index].feature = split.feature;
    tree_->nodes[index].bin = split.bin;

    // Integer sums make the larger child's histogram exactly the parent's
    // minus the smaller child's, so only the smaller one reads its rows.
    std::vector<int64_t> left_hist, right_hist;
    const bool left_splits = Splittable(mid - begin, depth + 1);
    const bool right_splits = Splittable(end - mid, depth + 1);
    if (left_splits || right_splits) {
      const bool left_smaller = mid - begin <= end - mid;
      std::vector<int64_t> smaller =
          left_smaller ? Histogram(begin, mid) : Histogram(mid, end);
      for (size_t i = 0; i < hist.size(); ++i) hist[i] -= smaller[i];
      left_hist = left_smaller ? std::move(smaller) : std::move(hist);
      right_hist = left_smaller ? std::move(hist) : std::move(smaller);
      if (!left_splits) Release(&left_hist);
      if (!right_splits) Release(&right_hist);
    } else {
      Release(&hist);
    }
    const GhSum right_sum{sum.g - split.left.g, sum.h - split.left.h};
    int left = GrowNode(begin, mid, std::move(left_hist), split.left,
                        depth + 1);
    tree_->nodes[index].left = left;
    int right = GrowNode(mid, end, std::move(right_hist), right_sum,
                         depth + 1);
    tree_->nodes[index].right = right;
    return index;
  }

  // Best (feature, bin) split by Newton gain; ties keep the first.
  Split BestSplit(const std::vector<int64_t>& hist, GhSum sum) const {
    const double lambda = options_.lambda;
    const double parent_gain =
        LeafGain(static_cast<double>(sum.g) * g_unit_,
                 static_cast<double>(sum.h) * h_unit_, lambda);
    Split best;
    best.gain = 1e-9;
    for (size_t i = 0; i < features_.size(); ++i) {
      const int64_t* bins = hist.data() + offsets_[i];
      const size_t nbins = (offsets_[i + 1] - offsets_[i]) / 2;
      GhSum left;
      for (size_t b = 0; b + 1 < nbins; ++b) {
        left.g += bins[2 * b];
        left.h += bins[2 * b + 1];
        double hl = static_cast<double>(left.h) * h_unit_;
        double hr = static_cast<double>(sum.h - left.h) * h_unit_;
        if (hl < options_.min_child_weight || hr < options_.min_child_weight) {
          continue;
        }
        double gl = static_cast<double>(left.g) * g_unit_;
        double gr = static_cast<double>(sum.g - left.g) * g_unit_;
        double gain = LeafGain(gl, hl, lambda) + LeafGain(gr, hr, lambda) -
                      parent_gain;
        if (gain > best.gain) {
          best.feature = static_cast<int>(features_[i]);
          best.bin = static_cast<uint8_t>(b);
          best.gain = gain;
          best.left = left;
        }
      }
    }
    return best;
  }

  // Histogram of rows_[begin, end). A large node sums row chunks on the
  // pool, chunk 0 into the histogram and the others into partials added
  // after; integer sums make that exactly the one-pass histogram.
  std::vector<int64_t> Histogram(size_t begin, size_t end) {
    std::vector<int64_t> hist = Acquire();
    if (pool_ == nullptr || end - begin < kParallelHistogramRows) {
      Accumulate(begin, end, hist.data());
      return hist;
    }
    const size_t chunks = NumRowChunks(end - begin);
    partials_.resize(chunks - 1);
    for (std::vector<int64_t>& partial : partials_) {
      partial.assign(offsets_.back(), 0);
    }
    ParallelFor(pool_, 0, chunks, 1, [&](size_t c) {
      const size_t lo = begin + c * kRowChunk;
      Accumulate(lo, std::min(end, lo + kRowChunk),
                 c == 0 ? hist.data() : partials_[c - 1].data());
    });
    for (const std::vector<int64_t>& partial : partials_) {
      for (size_t i = 0; i < hist.size(); ++i) hist[i] += partial[i];
    }
    return hist;
  }

  // A zeroed histogram, reusing a released one when there is one.
  std::vector<int64_t> Acquire() {
    if (free_.empty()) return std::vector<int64_t>(offsets_.back(), 0);
    std::vector<int64_t> hist = std::move(free_.back());
    free_.pop_back();
    std::fill(hist.begin(), hist.end(), 0);
    return hist;
  }

  // Adds rows_[begin, end) to `hist`, feature by feature.
  void Accumulate(size_t begin, size_t end, int64_t* hist) const {
    for (size_t i = 0; i < features_.size(); ++i) {
      simd::AccumulateGh(binned_[features_[i]], gh_, rows_.data() + begin,
                         end - begin, hist + offsets_[i]);
    }
  }

  void Release(std::vector<int64_t>* hist) {
    free_.push_back(std::move(*hist));
    hist->clear();
  }

  // Stable partition of rows_[begin, end): rows whose code is <= bin keep
  // their order at the front, the rest keep theirs behind them. Returns
  // the boundary.
  size_t Partition(size_t begin, size_t end, const uint8_t* codes,
                   uint8_t bin) {
    uint32_t* rows = rows_.data();
    uint32_t* right = scratch_.data();
    size_t l = begin, r = 0;
    for (size_t i = begin; i < end; ++i) {
      const uint32_t row = rows[i];
      const bool goes_left = codes[row] <= bin;
      rows[l] = row;
      right[r] = row;
      l += goes_left;
      r += !goes_left;
    }
    std::copy(right, right + r, rows + l);
    return l;
  }

  const GbdtOptions& options_;
  const Codes& binned_;
  const int64_t* gh_;  // per row: fixed-point gradient, then hessian
  const double g_unit_;  // 2^-b
  const double h_unit_;  // 2^-(b+2)
  std::vector<size_t> features_;  // candidate features with > 1 bin
  std::vector<size_t> offsets_;   // features_[i]'s slots in a histogram
  std::vector<uint32_t>& rows_;
  std::vector<uint32_t>& scratch_;
  std::vector<double>& importances_;
  ThreadPool* pool_;
  Tree* tree_;
  std::vector<std::pair<size_t, size_t>> ranges_;  // per node: its rows_
  std::vector<std::vector<int64_t>> free_;  // histograms for reuse
  std::vector<std::vector<int64_t>> partials_;  // chunk sums of Histogram
};

Status Gbdt::Fit(const Dataset& train) {
  AF_RETURN_NOT_OK(CheckTrainingShape(train.num_rows(), options_.max_bins));
  FeatureBinner binner;
  binner.Fit(train, options_.max_bins);
  const std::vector<std::vector<uint8_t>> binned = binner.BinAll(train);
  Codes codes;
  for (const std::vector<uint8_t>& column : binned) {
    codes.push_back(column.data());
  }
  return FitBinned(std::move(binner), codes, train.labels(), nullptr);
}

Status Gbdt::FitBinned(FeatureBinner binner, const Codes& codes,
                       const std::vector<int>& labels, ThreadPool* pool) {
  const size_t n = labels.size();
  AF_RETURN_NOT_OK(CheckTrainingShape(n, options_.max_bins));
  binner_ = std::move(binner);
  num_features_ = codes.size();
  importances_.assign(num_features_, 0.0);
  trees_.clear();

  // Base score: log-odds of the positive rate.
  double positives = 0;
  for (size_t r = 0; r < n; ++r) positives += labels[r];
  double rate = std::clamp(positives / static_cast<double>(n), 1e-6, 1 - 1e-6);
  base_score_ = std::log(rate / (1.0 - rate));

  // Fixed point with b fraction bits for the gradient and b + 2 for the
  // hessian: |g| <= 1 and h <= 1/4 put both below 2^b, and
  // b = 62 - ceil(log2(n + 1)) keeps any sum over n rows below 2^62.
  const int bits = 62 - static_cast<int>(std::bit_width(n));
  const double g_scale = std::ldexp(1.0, bits);
  const double h_scale = std::ldexp(1.0, bits + 2);

  std::vector<double> score(n, base_score_);
  std::vector<int64_t> gh(2 * n);
  std::vector<uint32_t> rows, out_of_bag, scratch(n);
  Rng rng(options_.seed);
  // Each row's quantised gradient and hessian depend on that row alone.
  auto gradients = [&](size_t chunk) {
    const size_t end = std::min(n, (chunk + 1) * kRowChunk);
    for (size_t r = chunk * kRowChunk; r < end; ++r) {
      double p = Sigmoid(score[r]);
      double grad = p - static_cast<double>(labels[r]);
      double hess = std::max(p * (1.0 - p), 1e-12);
      gh[2 * r] = RoundHalfAwayFromZero(grad * g_scale);
      // At least 1, so every non-empty node's hessian sum is positive.
      gh[2 * r + 1] =
          std::max<int64_t>(1, RoundHalfAwayFromZero(hess * h_scale));
    }
  };

  for (size_t round = 0; round < options_.num_rounds; ++round) {
    ParallelFor(pool, 0, NumRowChunks(n), 1, gradients);

    // Row subsampling.
    rows.clear();
    out_of_bag.clear();
    if (options_.subsample < 1.0) {
      for (size_t r = 0; r < n; ++r) {
        (rng.Bernoulli(options_.subsample) ? rows : out_of_bag)
            .push_back(static_cast<uint32_t>(r));
      }
      if (rows.empty()) {
        // Every row is out of bag, so row r sits at out_of_bag[r].
        size_t pick = rng.UniformIndex(n);
        rows.push_back(static_cast<uint32_t>(pick));
        out_of_bag.erase(out_of_bag.begin() + static_cast<ptrdiff_t>(pick));
      }
    } else {
      rows.resize(n);
      for (size_t r = 0; r < n; ++r) rows[r] = static_cast<uint32_t>(r);
    }

    // Feature subsampling.
    std::vector<size_t> features(num_features_);
    for (size_t f = 0; f < num_features_; ++f) features[f] = f;
    if (options_.feature_fraction < 1.0 && num_features_ > 1) {
      rng.Shuffle(&features);
      // Ceil like LightGBM: a 0.9 fraction of 2 features keeps 2, not 1.
      size_t keep = std::max<size_t>(
          1, static_cast<size_t>(std::ceil(
                 options_.feature_fraction *
                 static_cast<double>(num_features_))));
      features.resize(keep);
    }

    Tree tree;
    Grower grower(this, codes, gh, bits, features, &rows, &scratch, pool,
                  &tree);
    grower.Grow(rows.size());
    // Update every row's score with the new tree's prediction: sampled rows
    // through their leaf's range, the others by walking the tree.
    grower.AddLeafScores(&score);
    for (uint32_t r : out_of_bag) score[r] += LeafValue(tree, codes, r);
    trees_.push_back(std::move(tree));
  }

  double total = 0.0;
  for (double v : importances_) total += v;
  if (total > 0) {
    for (double& v : importances_) v /= total;
  }
  return Status::OK();
}

double Gbdt::PredictRaw(const Dataset& data, size_t row) const {
  double score = base_score_;
  for (const auto& tree : trees_) {
    int node = 0;
    while (tree.nodes[node].feature >= 0) {
      const Node& nd = tree.nodes[node];
      uint8_t bin = binner_.Bin(static_cast<size_t>(nd.feature),
                                data.at(row, static_cast<size_t>(nd.feature)));
      node = bin <= nd.bin ? nd.left : nd.right;
    }
    score += tree.nodes[node].value;
  }
  return score;
}

double Gbdt::LeafValue(const Tree& tree, const Codes& codes, size_t row) {
  int node = 0;
  while (tree.nodes[node].feature >= 0) {
    const Node& nd = tree.nodes[node];
    node = codes[static_cast<size_t>(nd.feature)][row] <= nd.bin ? nd.left
                                                                 : nd.right;
  }
  return tree.nodes[node].value;
}

double Gbdt::PredictProba(const Dataset& data, size_t row) const {
  return Sigmoid(PredictRaw(data, row));
}

std::vector<double> Gbdt::PredictProbaAll(const Dataset& data) const {
  const std::vector<std::vector<uint8_t>> binned = binner_.BinAll(data);
  Codes codes;
  for (const std::vector<uint8_t>& column : binned) {
    codes.push_back(column.data());
  }
  return PredictProbaBinned(codes, data.num_rows(), nullptr);
}

std::vector<double> Gbdt::PredictProbaBinned(const Codes& codes,
                                             size_t num_rows,
                                             ThreadPool* pool) const {
  // Same additions per row, in the same tree order, as PredictRaw; the
  // codes equal what PredictRaw's per-node Bin call computes.
  std::vector<double> proba(num_rows);
  ParallelFor(pool, 0, NumRowChunks(num_rows), 1, [&](size_t chunk) {
    const size_t end = std::min(num_rows, (chunk + 1) * kRowChunk);
    for (size_t r = chunk * kRowChunk; r < end; ++r) {
      double score = base_score_;
      for (const Tree& tree : trees_) score += LeafValue(tree, codes, r);
      proba[r] = Sigmoid(score);
    }
  });
  return proba;
}

std::vector<double> Gbdt::FeatureImportances() const { return importances_; }

}  // namespace autofeat::ml
