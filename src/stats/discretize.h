// Discretisation of continuous features for information-theoretic metrics.
//
// Entropy/MI-based metrics operate on discrete codes; continuous features are
// binned first. Default policy (DESIGN.md §4.7): equal-frequency bins,
// min(10, ceil(sqrt(n))) of them.

#ifndef AUTOFEAT_STATS_DISCRETIZE_H_
#define AUTOFEAT_STATS_DISCRETIZE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace autofeat {

/// Code used for missing (NaN) values in discretised output. Missing values
/// form their own category so they carry (rather than destroy) information.
inline constexpr int kMissingBin = -1;

/// Default bin count for n samples: min(10, ceil(sqrt(n))), at least 2.
int DefaultBinCount(size_t n);

/// Rows of the non-NaN entries of `values` in ascending value order; the
/// order within a group of equal values (-0.0 and 0.0 included) is
/// unspecified. This is the one sort behind equal-frequency binning and
/// fractional ranks (stats/correlation.h): a caller needing both sorts a
/// column once and hands the order to each. Both walk the order a tie group
/// at a time, so their output does not depend on the order within a group.
std::vector<uint32_t> SortedPresentRows(const std::vector<double>& values);

/// Equal-width binning of `values` into `bins` buckets over [min, max].
/// NaN maps to kMissingBin. A constant column maps to bin 0; `bins < 1`
/// means one bin.
std::vector<int> DiscretizeEqualWidth(const std::vector<double>& values,
                                      int bins);

/// Equal-frequency (quantile) binning. Ties share a bin; NaN -> kMissingBin;
/// `bins < 1` means one bin.
std::vector<int> DiscretizeEqualFrequency(const std::vector<double>& values,
                                          int bins);

/// Equal-frequency binning over a precomputed `order` =
/// SortedPresentRows(values); sorts nothing.
std::vector<int> DiscretizeEqualFrequency(const std::vector<double>& values,
                                          const std::vector<uint32_t>& order,
                                          int bins);

/// Treats values as categorical: each distinct value gets a code by first
/// occurrence; NaN -> kMissingBin. Suitable for already-discrete data.
std::vector<int> CodesFromValues(const std::vector<double>& values);

/// Number of distinct non-missing codes in `codes`.
size_t DistinctCodeCount(const std::vector<int>& codes);

}  // namespace autofeat

#endif  // AUTOFEAT_STATS_DISCRETIZE_H_
