#include "fs/relevance.h"

#include <algorithm>
#include <cmath>

#include "stats/correlation.h"
#include "stats/discretize.h"
#include "stats/information.h"
#include "stats/relief.h"

namespace autofeat {

const char* RelevanceKindName(RelevanceKind kind) {
  switch (kind) {
    case RelevanceKind::kInformationGain: return "IG";
    case RelevanceKind::kSymmetricalUncertainty: return "SU";
    case RelevanceKind::kPearson: return "Pearson";
    case RelevanceKind::kSpearman: return "Spearman";
    case RelevanceKind::kRelief: return "Relief";
  }
  return "invalid";
}

std::vector<FeatureScore> ScoreRelevance(
    const FeatureView& view, const std::vector<size_t>& feature_indices,
    const RelevanceOptions& options) {
  // Score the caller's index list in place — this runs once per candidate
  // under BFS evaluation, and copying the list was a per-candidate
  // allocation. The all-features default still materialises its own list.
  std::vector<size_t> all_features;
  if (feature_indices.empty()) {
    all_features.resize(view.num_features());
    for (size_t i = 0; i < all_features.size(); ++i) all_features[i] = i;
  }
  const std::vector<size_t>& indices =
      feature_indices.empty() ? all_features : feature_indices;

  std::vector<FeatureScore> scores;
  scores.reserve(indices.size());

  if (options.kind == RelevanceKind::kRelief) {
    // Relief scores all features jointly (distances use every feature).
    std::vector<std::vector<double>> matrix;
    matrix.reserve(indices.size());
    for (size_t f : indices) matrix.push_back(view.numeric(f));
    Rng rng(options.seed);
    std::vector<double> weights =
        ReliefScores(matrix, view.label_codes(), options.relief_samples, &rng);
    for (size_t i = 0; i < indices.size(); ++i) {
      scores.push_back({view.name(indices[i]), weights[i]});
    }
    return scores;
  }

  for (size_t f : indices) {
    double s = 0.0;
    switch (options.kind) {
      case RelevanceKind::kInformationGain:
        s = InformationGain(view.codes(f), view.label_codes());
        break;
      case RelevanceKind::kSymmetricalUncertainty:
        s = SymmetricalUncertainty(view.codes(f), view.label_codes());
        break;
      case RelevanceKind::kPearson:
        s = std::abs(PearsonCorrelation(view.numeric(f), view.label_numeric()));
        break;
      case RelevanceKind::kSpearman: {
        // A feature coded by value identity carries no order; sort it here.
        std::vector<uint32_t> own;
        if (view.order(f).empty()) own = SortedPresentRows(view.numeric(f));
        const auto& order = view.order(f).empty() ? own : view.order(f);
        s = std::abs(SpearmanCorrelation(view.numeric(f), order,
                                         view.label_numeric(),
                                         view.label_order()));
        break;
      }
      case RelevanceKind::kRelief:
        break;  // Handled above.
    }
    scores.push_back({view.name(f), s});
  }
  return scores;
}

std::vector<FeatureScore> SelectKBest(std::vector<FeatureScore> scores,
                                      size_t k, double min_score) {
  // Ties break by name: with score-order alone, equally scored features
  // (e.g. duplicated columns) would be kept in input order, making the
  // selection — and everything downstream of it — depend on the physical
  // column order of the source table.
  std::stable_sort(scores.begin(), scores.end(),
                   [](const FeatureScore& a, const FeatureScore& b) {
                     if (a.score != b.score) return a.score > b.score;
                     return a.name < b.name;
                   });
  std::vector<FeatureScore> out;
  for (const auto& s : scores) {
    if (out.size() >= k) break;
    if (s.score <= min_score) break;  // Sorted, so the rest are no better.
    out.push_back(s);
  }
  return out;
}

}  // namespace autofeat
