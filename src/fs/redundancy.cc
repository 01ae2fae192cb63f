#include "fs/redundancy.h"

#include <algorithm>

#include "stats/information.h"

namespace autofeat {

const char* RedundancyKindName(RedundancyKind kind) {
  switch (kind) {
    case RedundancyKind::kMifs: return "MIFS";
    case RedundancyKind::kMrmr: return "MRMR";
    case RedundancyKind::kCife: return "CIFE";
    case RedundancyKind::kJmi: return "JMI";
    case RedundancyKind::kCmim: return "CMIM";
  }
  return "invalid";
}

bool SelectedFeatureSet::Contains(const std::string& name) const {
  return std::find(names.begin(), names.end(), name) != names.end();
}

void SelectedFeatureSet::Add(
    std::string name, std::shared_ptr<const std::vector<int>> feature_codes) {
  names.push_back(std::move(name));
  codes.push_back(std::move(feature_codes));
}

namespace {

// The one J formula. Extends `terms` to cover the first `s` features of S
// (`selected_at(j)` yields the codes of S's j-th feature), then combines
// them. Terms are summed over S in position order, so J is the same double
// whether the row was built now or across earlier commits.
template <typename SelectedAt>
double ScoreJ(const std::vector<int>& candidate_codes,
              const std::vector<int>& label_codes, size_t s,
              const SelectedAt& selected_at, const RedundancyOptions& options,
              RedundancyTerms* terms) {
  if (!terms->relevance.has_value()) {
    terms->relevance = MutualInformationCorrected(candidate_codes, label_codes);
  }
  const double relevance = *terms->relevance;
  if (s == 0) return relevance;
  // Early exit: for the criteria without a positive conditional term
  // (MIFS/MRMR: lambda = 0; CMIM subtracts a clamped-nonnegative maximum),
  // J <= relevance, so a candidate with no label information can never be
  // accepted — skip the per-selected-feature scan.
  if (relevance <= 0.0 && options.kind != RedundancyKind::kCife &&
      options.kind != RedundancyKind::kJmi) {
    return relevance;
  }

  const bool conditional = options.kind != RedundancyKind::kMifs &&
                           options.kind != RedundancyKind::kMrmr;
  for (size_t j = terms->mi.size(); j < s; ++j) {
    const std::vector<int>& sel = selected_at(j);
    terms->mi.push_back(MutualInformationCorrected(sel, candidate_codes));
    if (conditional) {
      terms->cmi.push_back(ConditionalMutualInformationCorrected(
          sel, candidate_codes, label_codes));
    }
  }

  double s_count = static_cast<double>(s);
  double beta = 0.0;
  double lambda = 0.0;
  switch (options.kind) {
    case RedundancyKind::kMifs:
      beta = options.mifs_beta;
      break;
    case RedundancyKind::kMrmr:
      beta = 1.0 / s_count;
      break;
    case RedundancyKind::kCife:
      beta = 1.0;
      lambda = 1.0;
      break;
    case RedundancyKind::kJmi:
      beta = 1.0 / s_count;
      lambda = 1.0 / s_count;
      break;
    case RedundancyKind::kCmim: {
      // Eq. 2: subtract the *worst* pairwise redundancy surplus.
      double max_term = 0.0;
      for (size_t j = 0; j < s; ++j) {
        max_term = std::max(max_term, terms->mi[j] - terms->cmi[j]);
      }
      return relevance - max_term;
    }
  }

  double redundancy_sum = 0.0;
  double conditional_sum = 0.0;
  for (size_t j = 0; j < s; ++j) {
    redundancy_sum += terms->mi[j];
    if (lambda != 0.0) conditional_sum += terms->cmi[j];
  }
  return relevance - beta * redundancy_sum + lambda * conditional_sum;
}

}  // namespace

double RedundancyScore(const std::vector<int>& candidate_codes,
                       const std::vector<int>& label_codes,
                       const std::vector<std::vector<int>>& selected_codes,
                       const RedundancyOptions& options) {
  RedundancyTerms terms;
  return ScoreJ(
      candidate_codes, label_codes, selected_codes.size(),
      [&](size_t j) -> const std::vector<int>& { return selected_codes[j]; },
      options, &terms);
}

std::vector<FeatureScore> SelectNonRedundant(
    const std::vector<RedundancyCandidate>& candidates,
    const std::vector<int>& label_codes, SelectedFeatureSet* selected,
    const RedundancyOptions& options) {
  auto selected_at = [&](size_t j) -> const std::vector<int>& {
    return *selected->codes[j];
  };
  std::vector<FeatureScore> accepted;
  for (const RedundancyCandidate& c : candidates) {
    if (selected->Contains(c.name)) continue;  // Already in S; adds nothing.
    double j = ScoreJ(*c.codes, label_codes, selected->size(), selected_at,
                      options, c.terms);
    if (j > 0.0) {
      accepted.push_back({c.name, j});
      selected->Add(c.name, c.codes);
    }
  }
  return accepted;
}

std::vector<FeatureScore> SelectNonRedundant(
    const FeatureView& view, const std::vector<size_t>& candidates,
    SelectedFeatureSet* selected, const RedundancyOptions& options) {
  std::vector<RedundancyTerms> terms(candidates.size());
  std::vector<RedundancyCandidate> batch;
  batch.reserve(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    batch.push_back({view.name(candidates[i]),
                     view.shared_codes(candidates[i]), &terms[i]});
  }
  return SelectNonRedundant(batch, view.label_codes(), selected, options);
}

}  // namespace autofeat
