// Histogram-based gradient-boosted decision trees for binary classification.
//
// LightGBM-style substrate: features are pre-binned into at most `max_bins`
// quantile buckets; regression trees are grown depth-wise on (gradient,
// hessian) statistics of the logistic loss with Newton leaf weights and L2
// regularisation — the same algorithmic core as LightGBM/XGBoost, which the
// paper uses as its downstream evaluators.
//
// Gradient statistics are summed in 64-bit fixed point (DESIGN.md §4.16),
// so every sum is exact and independent of row order: a node's larger
// child takes its histogram as parent minus the smaller child's, the
// fitted model does not depend on the order of the training rows, and row
// chunks summed on several threads give the same model as one thread.

#ifndef AUTOFEAT_ML_GBDT_H_
#define AUTOFEAT_ML_GBDT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ml/classifier.h"
#include "util/rng.h"

namespace autofeat {
class ThreadPool;
}  // namespace autofeat

namespace autofeat::ml {

/// std::llround for |x| < 2^62, inline: round half away from zero. Below
/// 2^52 the fraction x - trunc(x) is exact; from 2^52 on, x is already an
/// integer and the fraction is 0. The GBDT's fixed-point bound keeps every
/// quantised gradient and hessian below 2^62.
inline int64_t RoundHalfAwayFromZero(double x) {
  const int64_t whole = static_cast<int64_t>(x);  // truncates toward zero
  const double frac = x - static_cast<double>(whole);
  return whole + (frac >= 0.5) - (frac <= -0.5);
}

struct GbdtOptions {
  size_t num_rounds = 60;
  double learning_rate = 0.1;
  int max_depth = 5;
  int max_bins = 64;
  /// L2 regularisation on leaf weights.
  double lambda = 1.0;
  /// Minimum hessian sum per leaf.
  double min_child_weight = 1.0;
  /// Fraction of features considered per tree (LightGBM feature_fraction).
  double feature_fraction = 1.0;
  /// Fraction of rows sampled per tree (stochastic gradient boosting).
  double subsample = 1.0;
  uint64_t seed = 42;
};

/// \brief Quantile binner mapping raw feature values to bin codes.
///
/// Edges and codes are per column: a column's edges depend on its training
/// values alone, so a caller that trains several models sharing columns
/// (ml::TrainingPlan) learns and applies each column's edges once.
class FeatureBinner {
 public:
  FeatureBinner() = default;
  /// A binner over precomputed per-feature edges (FitEdges results).
  explicit FeatureBinner(std::vector<std::vector<double>> edges)
      : edges_(std::move(edges)) {}

  /// Bin edges of one training column: cuts between quantiles of its
  /// distinct values, fewer than `max_bins` of them (none if constant).
  static std::vector<double> FitEdges(std::vector<double> values,
                                      int max_bins);

  /// Code of every value under `edges`: the index of the first edge >= it.
  static std::vector<uint8_t> BinColumn(const std::vector<double>& edges,
                                        const std::vector<double>& values);

  /// Learns per-feature bin edges (FitEdges of every training column).
  void Fit(const Dataset& data, int max_bins);

  /// Bin code of `value` for feature f: index of first edge >= value.
  uint8_t Bin(size_t feature, double value) const;

  /// Pre-binned codes for a full dataset, column-major, for the features
  /// the binner was fitted on.
  std::vector<std::vector<uint8_t>> BinAll(const Dataset& data) const;

  size_t num_bins(size_t feature) const {
    return edges_[feature].size() + 1;
  }

 private:
  // edges_[f] = sorted upper-inclusive boundaries; value <= edges_[f][b]
  // falls into bin b, values above all edges into bin edges_.size().
  std::vector<std::vector<double>> edges_;
};

/// \brief Gradient-boosted tree ensemble.
class Gbdt final : public Classifier {
 public:
  explicit Gbdt(GbdtOptions options = {}, std::string name = "GBT")
      : options_(options), name_(std::move(name)) {}

  /// Preset approximating the paper's LightGBM configuration.
  static Gbdt LightGbmLike(uint64_t seed = 42) {
    GbdtOptions o;
    o.num_rounds = 80;
    o.learning_rate = 0.1;
    o.max_depth = 5;
    o.feature_fraction = 0.9;
    o.seed = seed;
    return Gbdt(o, "LightGBM-like");
  }

  /// Preset approximating an XGBoost configuration (deeper, stronger L2).
  static Gbdt XgBoostLike(uint64_t seed = 42) {
    GbdtOptions o;
    o.num_rounds = 80;
    o.learning_rate = 0.1;
    o.max_depth = 6;
    o.lambda = 2.0;
    o.subsample = 0.9;
    o.seed = seed;
    return Gbdt(o, "XGBoost-like");
  }

  /// The argument checks Fit runs first: a non-empty training set with
  /// fewer than 2^32 rows (row ids are 32-bit) and `max_bins` in [2, 256]
  /// (bin codes are 8-bit).
  static Status CheckTrainingShape(size_t num_rows, int max_bins);

  /// Feature f's bin codes, one per row: `codes[f][row]`.
  using Codes = std::vector<const uint8_t*>;

  /// Bins `train` and fits: FitBinned over the codes FeatureBinner::Fit
  /// and BinAll give, on one thread.
  Status Fit(const Dataset& train) override;

  /// Fits on pre-binned training rows: `binner` holds every feature's
  /// edges, `codes` the training rows' codes under them and `labels` their
  /// labels. Row chunks of the gradient pass and of large nodes'
  /// histograms run on `pool` (null runs them inline); the sums are exact
  /// integers, so the model is the same at any thread count.
  Status FitBinned(FeatureBinner binner, const Codes& codes,
                   const std::vector<int>& labels, ThreadPool* pool);

  double PredictProba(const Dataset& data, size_t row) const override;
  /// Bins `data` once, then walks every tree over the codes; bitwise equal
  /// to PredictProba row by row.
  std::vector<double> PredictProbaAll(const Dataset& data) const override;
  /// PredictProbaAll of `num_rows` rows binned under this model's edges;
  /// row chunks run on `pool` (null runs them inline).
  std::vector<double> PredictProbaBinned(const Codes& codes, size_t num_rows,
                                         ThreadPool* pool) const;

  const GbdtOptions& options() const { return options_; }
  std::string name() const override { return name_; }
  std::vector<double> FeatureImportances() const override;

  size_t num_trees() const { return trees_.size(); }

 private:
  struct Node {
    int feature = -1;       // -1 = leaf
    uint8_t bin = 0;        // go left if binned value <= bin
    int left = -1;
    int right = -1;
    double value = 0.0;     // leaf weight (already scaled by learning rate)
  };
  struct Tree {
    std::vector<Node> nodes;
  };

  // Grows one tree on the current round's fixed-point gradients.
  class Grower;

  double PredictRaw(const Dataset& data, size_t row) const;

  // Value of the leaf `row` of `codes` reaches in `tree`.
  static double LeafValue(const Tree& tree, const Codes& codes, size_t row);

  GbdtOptions options_;
  std::string name_;
  FeatureBinner binner_;
  std::vector<Tree> trees_;
  std::vector<double> importances_;
  double base_score_ = 0.0;
  size_t num_features_ = 0;
};

}  // namespace autofeat::ml

#endif  // AUTOFEAT_ML_GBDT_H_
