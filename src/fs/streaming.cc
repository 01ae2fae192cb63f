#include "fs/streaming.h"

#include <algorithm>
#include <utility>

namespace autofeat {

void StreamingFeatureSelector::SeedWithBaseFeatures(const FeatureView& view) {
  for (size_t f = 0; f < view.num_features(); ++f) {
    if (!selected_.Contains(view.name(f))) {
      selected_.Add(view.name(f), view.shared_codes(f));
    }
  }
}

ScoredColumns StreamingFeatureSelector::ScoreColumns(
    const FeatureView& view,
    const std::vector<size_t>& feature_indices) const {
  ScoredColumns columns;
  columns.label = view.label();
  columns.terms.resize(feature_indices.size());
  columns.relevance.assign(feature_indices.size(), 0.0);
  // ScoreRelevance reads an empty index list as "every feature".
  if (feature_indices.empty()) return columns;
  for (size_t f : feature_indices) {
    columns.codes.push_back(view.shared_codes(f));
  }
  if (options_.use_relevance) {
    std::vector<FeatureScore> scores =
        ScoreRelevance(view, feature_indices, options_.relevance);
    for (size_t i = 0; i < scores.size(); ++i) {
      columns.relevance[i] = scores[i].score;
    }
  }
  return columns;
}

StreamingFeatureSelector::BatchResult StreamingFeatureSelector::CommitBatch(
    const std::vector<std::string>& names, ScoredColumns* columns) {
  // Relevance stage: rank the incoming features, keep the top-kappa.
  BatchResult result;
  result.relevant.reserve(names.size());
  for (size_t i = 0; i < names.size(); ++i) {
    result.relevant.push_back({names[i], columns->relevance[i]});
  }
  if (options_.use_relevance) {
    result.relevant =
        SelectKBest(std::move(result.relevant), options_.relevance.top_k,
                    options_.relevance.min_score);
  }
  if (result.relevant.empty()) return result;  // All irrelevant.

  // Redundancy stage: screen the relevant subset against R_sel.
  std::vector<RedundancyCandidate> candidates;
  candidates.reserve(result.relevant.size());
  for (const auto& fs : result.relevant) {
    size_t i = static_cast<size_t>(
        std::find(names.begin(), names.end(), fs.name) - names.begin());
    candidates.push_back({fs.name, columns->codes[i], &columns->terms[i]});
  }
  if (options_.use_redundancy) {
    result.selected = SelectNonRedundant(candidates, columns->label->codes,
                                         &selected_, options_.redundancy);
  } else {
    // Ablation: accept every relevant feature, mirroring its relevance score.
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (selected_.Contains(candidates[i].name)) continue;
      result.selected.push_back(result.relevant[i]);
      selected_.Add(candidates[i].name, candidates[i].codes);
    }
  }
  return result;
}

StreamingFeatureSelector::BatchResult StreamingFeatureSelector::ProcessBatch(
    const FeatureView& view, const std::vector<size_t>& new_feature_indices) {
  std::vector<std::string> names;
  names.reserve(new_feature_indices.size());
  for (size_t f : new_feature_indices) names.push_back(view.name(f));
  ScoredColumns columns = ScoreColumns(view, new_feature_indices);
  return CommitBatch(names, &columns);
}

}  // namespace autofeat
