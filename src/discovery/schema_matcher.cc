#include "discovery/schema_matcher.h"

#include <algorithm>

#include "util/string_utils.h"

namespace autofeat {

double NameSimilarity(std::string_view a, std::string_view b) {
  std::string la = ToLower(a);
  std::string lb = ToLower(b);
  if (la == lb) return 1.0;
  // Qualified names ("table.column") match on their column part.
  auto strip = [](const std::string& s) {
    size_t dot = s.find_last_of('.');
    return dot == std::string::npos ? s : s.substr(dot + 1);
  };
  std::string ca = strip(la);
  std::string cb = strip(lb);
  if (ca == cb) return 1.0;
  // The q-gram score floors the Levenshtein pass: only a Levenshtein
  // similarity above it can change the max, so the DP may bail out early on
  // clearly dissimilar names (it runs on every candidate column-name pair).
  double qgram = QGramJaccard(ca, cb);
  if (qgram >= 1.0) return 1.0;
  return std::max(qgram, BoundedLevenshteinSimilarity(ca, cb, qgram));
}

double ValueOverlap(const Column& a, const Column& b, size_t max_sample) {
  // One-shot convenience path: sketch both sides here. Batch callers build
  // a LakeSketchCache instead so each column is sketched exactly once.
  return SketchContainment(BuildColumnSketch(a, max_sample),
                           BuildColumnSketch(b, max_sample));
}

std::vector<ColumnMatch> MatchSchemas(
    const Table& left, const std::vector<ColumnSketch>& left_sketches,
    const Table& right, const std::vector<ColumnSketch>& right_sketches,
    const MatchOptions& options) {
  std::vector<ColumnMatch> matches;
  for (size_t lc = 0; lc < left.num_columns(); ++lc) {
    const Field& lf = left.schema().field(lc);
    const ColumnSketch& ls = left_sketches[lc];
    for (size_t rc = 0; rc < right.num_columns(); ++rc) {
      const Field& rf = right.schema().field(rc);
      // Join-plausibility filter: continuous doubles only pair with doubles;
      // key-like types (int64/string) pair with each other.
      bool l_key_like = lf.type != DataType::kDouble;
      bool r_key_like = rf.type != DataType::kDouble;
      if (l_key_like != r_key_like) continue;
      const ColumnSketch& rs = right_sketches[rc];

      double name_sim = NameSimilarity(lf.name, rf.name);
      double value_sim = SketchContainment(ls, rs);
      // Containment of a tiny value set (binary flags, labels) inside a
      // large key range carries no join evidence; discount it.
      if (options.min_distinct_for_overlap > 1) {
        size_t distinct = std::min(
            {ls.num_distinct, rs.num_distinct,
             options.min_distinct_for_overlap});
        value_sim *= std::min(
            1.0, static_cast<double>(distinct) /
                     static_cast<double>(options.min_distinct_for_overlap));
      }
      double score = options.name_weight * name_sim +
                     options.value_weight * value_sim;
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

std::vector<ColumnMatch> MatchSchemas(const Table& left, const Table& right,
                                      const MatchOptions& options) {
  return MatchSchemas(left, SketchTable(left, options.max_sample_values),
                      right, SketchTable(right, options.max_sample_values),
                      options);
}

}  // namespace autofeat
