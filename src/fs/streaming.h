// Streaming feature selection (paper §V-A, §VI).
//
// Features arrive in batches — one batch per join along a join path — while
// the row count stays fixed (left joins preserve the base-table rows, in
// order). Each batch passes a relevance analysis (top-kappa) and then a
// redundancy analysis against the set of already-selected features R_sel.
// Join-column features persist implicitly: paths are never pruned for lack
// of relevant features, only their features are discarded.

#ifndef AUTOFEAT_FS_STREAMING_H_
#define AUTOFEAT_FS_STREAMING_H_

#include <memory>
#include <string>
#include <vector>

#include "fs/feature_view.h"
#include "fs/redundancy.h"
#include "fs/relevance.h"
#include "util/status.h"

namespace autofeat {

/// \brief One batch of features after its relevance analysis, by position:
/// codes, raw relevance scores and the redundancy-term rows. Names are not
/// part of it, so join paths reaching the same rows of the same table under
/// different (collision-renamed) names share one (DESIGN.md §4.15).
/// Numeric values and sort orders are not kept: nothing after relevance
/// scoring reads them.
struct ScoredColumns {
  std::vector<std::shared_ptr<const std::vector<int>>> codes;
  /// ScoreRelevance's per-feature score before SelectKBest; 0 when the
  /// relevance stage is off.
  std::vector<double> relevance;
  /// One row per feature, grown by CommitBatch as R_sel grows.
  std::vector<RedundancyTerms> terms;
  std::shared_ptr<const LabelBlock> label;
};

/// \brief Incremental relevance+redundancy pipeline maintaining R_sel.
class StreamingFeatureSelector {
 public:
  struct Options {
    RelevanceOptions relevance;
    RedundancyOptions redundancy;
    /// When false the redundancy stage is skipped (ablation: relevance-only).
    bool use_redundancy = true;
    /// When false the relevance stage passes all features through
    /// (ablation: redundancy-only).
    bool use_relevance = true;
  };

  /// Outcome of one batch (one join) through the pipeline.
  struct BatchResult {
    /// Relevant features (top-kappa) with their relevance scores.
    std::vector<FeatureScore> relevant;
    /// Accepted, non-redundant features with their J scores (subset of
    /// `relevant`); these have been added to R_sel.
    std::vector<FeatureScore> selected;

    bool AllIrrelevant() const { return relevant.empty(); }
    bool AllRedundant() const {
      return !relevant.empty() && selected.empty();
    }
  };

  explicit StreamingFeatureSelector(Options options)
      : options_(std::move(options)) {}

  /// Seeds R_sel with the base table's features without screening them —
  /// Algorithm 1 initialises R_sel from T_0.
  void SeedWithBaseFeatures(const FeatureView& view);

  /// Runs the pipeline on the features of `view` at `new_feature_indices`:
  /// CommitBatch over their names and ScoreColumns(view, indices).
  BatchResult ProcessBatch(const FeatureView& view,
                           const std::vector<size_t>& new_feature_indices);

  /// The name-free part of the relevance stage: scores the features of
  /// `view` at `feature_indices` against the label. Depends only on `view`
  /// and the options — not on R_sel — so batches can be scored concurrently
  /// (const, thread-safe) and committed later in deterministic order.
  ScoredColumns ScoreColumns(const FeatureView& view,
                             const std::vector<size_t>& feature_indices) const;

  /// Keeps the top-kappa of `columns` under `names` (this batch's names,
  /// one per column: SelectKBest breaks ties by name), then screens them
  /// against R_sel and commits the survivors to it, growing the terms rows
  /// of `columns` it scores. Order-sensitive and stateful — callers
  /// scoring batches concurrently must invoke this sequentially, in the
  /// same batch order a sequential run would use.
  BatchResult CommitBatch(const std::vector<std::string>& names,
                          ScoredColumns* columns);

  const SelectedFeatureSet& selected() const { return selected_; }
  SelectedFeatureSet* mutable_selected() { return &selected_; }

 private:
  Options options_;
  SelectedFeatureSet selected_;
};

}  // namespace autofeat

#endif  // AUTOFEAT_FS_STREAMING_H_
