#include "stats/correlation.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "stats/discretize.h"

namespace autofeat {

namespace {

// Fractional ranks of the rows in `order` (ascending by `values`) whose
// `mask` entry is not NaN; every other row keeps a NaN rank. Ranks count
// kept rows only, so masking by the other side of a pair needs no re-sort.
// Ties are walked a group at a time and share the mean of their rank range,
// which makes the result independent of the order within a group.
std::vector<double> RanksFromOrder(const std::vector<double>& values,
                                   const std::vector<uint32_t>& order,
                                   const std::vector<double>& mask) {
  std::vector<double> ranks(values.size(),
                            std::numeric_limits<double>::quiet_NaN());
  size_t pos = 0;  // Kept rows ranked so far.
  size_t i = 0;
  while (i < order.size()) {
    size_t j = i + 1;
    size_t kept = std::isnan(mask[order[i]]) ? 0 : 1;
    while (j < order.size() && values[order[j]] == values[order[i]]) {
      if (!std::isnan(mask[order[j]])) ++kept;
      ++j;
    }
    if (kept > 0) {
      // Average rank for the tie group's kept rows (1-based ranks).
      double avg =
          (static_cast<double>(pos + 1) + static_cast<double>(pos + kept)) / 2;
      for (size_t k = i; k < j; ++k) {
        if (!std::isnan(mask[order[k]])) ranks[order[k]] = avg;
      }
      pos += kept;
    }
    i = j;
  }
  return ranks;
}

}  // namespace

double PearsonCorrelation(const std::vector<double>& x,
                          const std::vector<double>& y) {
  assert(x.size() == y.size());
  double sx = 0, sy = 0;
  size_t n = 0;
  for (size_t i = 0; i < x.size(); ++i) {
    if (!std::isfinite(x[i]) || !std::isfinite(y[i])) continue;
    sx += x[i];
    sy += y[i];
    ++n;
  }
  if (n < 2) return 0.0;
  double mx = sx / static_cast<double>(n);
  double my = sy / static_cast<double>(n);
  double sxy = 0, sxx = 0, syy = 0;
  for (size_t i = 0; i < x.size(); ++i) {
    if (!std::isfinite(x[i]) || !std::isfinite(y[i])) continue;
    double dx = x[i] - mx;
    double dy = y[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  double r = sxy / std::sqrt(sxx * syy);
  return std::clamp(r, -1.0, 1.0);
}

std::vector<double> FractionalRanks(const std::vector<double>& values) {
  return RanksFromOrder(values, SortedPresentRows(values), values);
}

double SpearmanCorrelation(const std::vector<double>& x,
                           const std::vector<double>& y) {
  return SpearmanCorrelation(x, SortedPresentRows(x), y, SortedPresentRows(y));
}

double SpearmanCorrelation(const std::vector<double>& x,
                           const std::vector<uint32_t>& x_order,
                           const std::vector<double>& y,
                           const std::vector<uint32_t>& y_order) {
  assert(x.size() == y.size());
  // Mask pairwise: rank only the complete pairs so ranks stay comparable.
  return PearsonCorrelation(RanksFromOrder(x, x_order, y),
                            RanksFromOrder(y, y_order, x));
}

}  // namespace autofeat
