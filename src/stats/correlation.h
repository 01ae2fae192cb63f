// Correlation coefficients used as relevance heuristics (paper §V-C).
//
// Pearson measures linear association; Spearman (rank correlation with
// average ranks for ties) measures monotonic association and is AutoFeat's
// recommended relevance metric. Rows where either value is missing are
// skipped pairwise.

#ifndef AUTOFEAT_STATS_CORRELATION_H_
#define AUTOFEAT_STATS_CORRELATION_H_

#include <cstdint>
#include <vector>

namespace autofeat {

/// Pearson correlation coefficient in [-1, 1]; 0 if either side is constant
/// or fewer than 2 complete pairs exist. Non-finite values (NaN, ±inf)
/// count as missing: one infinite cell would otherwise turn r into NaN.
double PearsonCorrelation(const std::vector<double>& x,
                          const std::vector<double>& y);

/// Fractional (average) ranks in [1, n] of the non-NaN entries of `values`;
/// NaN entries keep NaN ranks. Ties receive the mean of their rank range.
std::vector<double> FractionalRanks(const std::vector<double>& values);

/// Spearman rank correlation: Pearson over the fractional ranks of the
/// complete (both non-NaN) pairs.
double SpearmanCorrelation(const std::vector<double>& x,
                           const std::vector<double>& y);

/// SpearmanCorrelation(x, y) over precomputed orders `x_order` =
/// SortedPresentRows(x) and `y_order` = SortedPresentRows(y)
/// (stats/discretize.h). Bitwise equal to the two-argument form; sorts
/// nothing, so a label shared by many features is ordered once.
double SpearmanCorrelation(const std::vector<double>& x,
                           const std::vector<uint32_t>& x_order,
                           const std::vector<double>& y,
                           const std::vector<uint32_t>& y_order);

}  // namespace autofeat

#endif  // AUTOFEAT_STATS_CORRELATION_H_
