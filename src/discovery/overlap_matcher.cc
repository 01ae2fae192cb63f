#include "discovery/overlap_matcher.h"

#include <algorithm>

namespace autofeat {

double ValueJaccard(const Column& a, const Column& b, size_t max_sample) {
  return SketchJaccard(BuildColumnSketch(a, max_sample),
                       BuildColumnSketch(b, max_sample));
}

std::vector<ColumnMatch> MatchByValueOverlap(
    const Table& left, const std::vector<ColumnSketch>& left_sketches,
    const Table& right, const std::vector<ColumnSketch>& right_sketches,
    const OverlapMatchOptions& options) {
  std::vector<ColumnMatch> matches;
  for (size_t lc = 0; lc < left.num_columns(); ++lc) {
    const Field& lf = left.schema().field(lc);
    if (lf.type == DataType::kDouble) continue;  // Keys only.
    const ColumnSketch& sl = left_sketches[lc];
    if (sl.hashes.size() < options.min_distinct) continue;
    for (size_t rc = 0; rc < right.num_columns(); ++rc) {
      const Field& rf = right.schema().field(rc);
      if (rf.type == DataType::kDouble) continue;
      const ColumnSketch& sr = right_sketches[rc];
      if (sr.hashes.size() < options.min_distinct) continue;

      double score = options.jaccard_weight * SketchJaccard(sl, sr) +
                     (1.0 - options.jaccard_weight) *
                         SketchContainment(sl, sr);
      if (score >= options.threshold) {
        matches.push_back(ColumnMatch{lf.name, rf.name, score});
      }
    }
  }
  std::stable_sort(matches.begin(), matches.end(),
                   [](const ColumnMatch& a, const ColumnMatch& b) {
                     return a.score > b.score;
                   });
  return matches;
}

std::vector<ColumnMatch> MatchByValueOverlap(
    const Table& left, const Table& right,
    const OverlapMatchOptions& options) {
  // Sketch both sides once up front: the naive nested loop re-sketched every
  // right column once per left column (O(L·R) column scans instead of L+R).
  return MatchByValueOverlap(
      left, SketchTable(left, options.max_sample_values), right,
      SketchTable(right, options.max_sample_values), options);
}

}  // namespace autofeat
