// Redundancy analysis (paper §V-D): the unified conditional likelihood
// maximisation framework (Eq. 1)
//
//   J(X_k) = I(X_k;Y) - beta * sum_{X_j in S} I(X_j;X_k)
//                     + lambda * sum_{X_j in S} I(X_j;X_k | Y)
//
// instantiated as MIFS, MRMR, CIFE, JMI, plus the CMIM special case (Eq. 2).
// Candidates are screened greedily: a candidate is kept iff its J score
// against the currently selected set S is positive (it adds information that
// is not already represented).

#ifndef AUTOFEAT_FS_REDUNDANCY_H_
#define AUTOFEAT_FS_REDUNDANCY_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fs/feature_view.h"
#include "fs/relevance.h"

namespace autofeat {

/// The five redundancy criteria compared in §V-D. MRMR is AutoFeat's
/// recommended default.
enum class RedundancyKind {
  kMifs,  // beta = 0.5, lambda = 0
  kMrmr,  // beta = 1/|S|, lambda = 0
  kCife,  // beta = 1, lambda = 1
  kJmi,   // beta = 1/|S|, lambda = 1/|S|
  kCmim,  // Eq. 2: J = I(Xk;Y) - max_j [ I(Xj;Xk) - I(Xj;Xk|Y) ]
};

const char* RedundancyKindName(RedundancyKind kind);

struct RedundancyOptions {
  RedundancyKind kind = RedundancyKind::kMrmr;
  /// MIFS inter-feature penalty (the paper uses beta = 0.5).
  double mifs_beta = 0.5;
};

/// \brief A set of already-selected features represented by their
/// discretised codes (what S contributes to Eq. 1). Codes are shared with
/// the view or memo entry they came from, not copied.
struct SelectedFeatureSet {
  std::vector<std::string> names;
  std::vector<std::shared_ptr<const std::vector<int>>> codes;

  size_t size() const { return names.size(); }
  bool Contains(const std::string& name) const;
  void Add(std::string name,
           std::shared_ptr<const std::vector<int>> feature_codes);
};

/// \brief The terms of Eq. 1 for one candidate X_k: its label MI and its
/// pairwise terms against S, indexed by position in S. S only grows during
/// a discovery, so a row stays valid; scoring the candidate again computes
/// only the terms for features selected since (DESIGN.md §4.15).
struct RedundancyTerms {
  std::optional<double> relevance;  // I(X_k;Y)
  std::vector<double> mi;           // I(X_j;X_k)
  std::vector<double> cmi;          // I(X_j;X_k|Y): CIFE, JMI, CMIM only
};

/// \brief A candidate as the redundancy stage screens it: its name on this
/// path, its codes, and its row of terms. Join paths reaching the same rows
/// of the same table share codes and terms but keep their own names.
struct RedundancyCandidate {
  std::string name;
  std::shared_ptr<const std::vector<int>> codes;
  RedundancyTerms* terms = nullptr;
};

/// Greedily screens `candidates` (typically the relevance-ranked top-kappa,
/// in ranked order) against `selected`. Candidates with J > 0 are accepted
/// — and immediately join S, so later candidates are also penalised for
/// redundancy with earlier ones. A candidate whose name is already in S is
/// skipped. Returns accepted features with their J scores; `selected` and
/// every scored candidate's terms row are updated.
std::vector<FeatureScore> SelectNonRedundant(
    const std::vector<RedundancyCandidate>& candidates,
    const std::vector<int>& label_codes, SelectedFeatureSet* selected,
    const RedundancyOptions& options);

/// The same screening over features of `view` (indices, in ranked order),
/// each starting from an empty terms row.
std::vector<FeatureScore> SelectNonRedundant(
    const FeatureView& view, const std::vector<size_t>& candidates,
    SelectedFeatureSet* selected, const RedundancyOptions& options);

/// The raw J score of a single candidate against a fixed selected set,
/// computed from an empty terms row (exposed for tests and the empirical
/// study of §V-D). Bitwise equal to the J SelectNonRedundant computes for
/// the same codes against the same S.
double RedundancyScore(const std::vector<int>& candidate_codes,
                       const std::vector<int>& label_codes,
                       const std::vector<std::vector<int>>& selected_codes,
                       const RedundancyOptions& options);

}  // namespace autofeat

#endif  // AUTOFEAT_FS_REDUNDANCY_H_
