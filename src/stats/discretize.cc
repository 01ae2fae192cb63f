#include "stats/discretize.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>
#include <utility>

namespace autofeat {

int DefaultBinCount(size_t n) {
  int sqrt_bins = static_cast<int>(std::ceil(std::sqrt(static_cast<double>(n))));
  return std::max(2, std::min(10, sqrt_bins));
}

std::vector<uint32_t> SortedPresentRows(const std::vector<double>& values) {
  // Comparing values only leaves a tie group in whatever order the sort
  // makes; a row tie-break costs up to 3x on few-valued columns.
  using Item = std::pair<double, uint32_t>;
  std::vector<Item> items;
  items.reserve(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    if (!std::isnan(values[i])) {
      items.emplace_back(values[i], static_cast<uint32_t>(i));
    }
  }
  std::sort(items.begin(), items.end(),
            [](const Item& a, const Item& b) { return a.first < b.first; });
  std::vector<uint32_t> rows(items.size());
  for (size_t r = 0; r < items.size(); ++r) rows[r] = items[r].second;
  return rows;
}

std::vector<int> DiscretizeEqualWidth(const std::vector<double>& values,
                                      int bins) {
  bins = std::max(bins, 1);
  std::vector<int> out(values.size(), kMissingBin);
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (double v : values) {
    if (std::isnan(v)) continue;
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  if (!(lo < hi)) {
    // Constant (or empty/all-NaN) column: single bin.
    for (size_t i = 0; i < values.size(); ++i) {
      if (!std::isnan(values[i])) out[i] = 0;
    }
    return out;
  }
  double width = (hi - lo) / bins;
  for (size_t i = 0; i < values.size(); ++i) {
    if (std::isnan(values[i])) continue;
    int b = static_cast<int>((values[i] - lo) / width);
    out[i] = std::min(b, bins - 1);
  }
  return out;
}

std::vector<int> DiscretizeEqualFrequency(const std::vector<double>& values,
                                          int bins) {
  return DiscretizeEqualFrequency(values, SortedPresentRows(values), bins);
}

std::vector<int> DiscretizeEqualFrequency(const std::vector<double>& values,
                                          const std::vector<uint32_t>& order,
                                          int bins) {
  bins = std::max(bins, 1);
  std::vector<int> out(values.size(), kMissingBin);
  size_t n = order.size();
  size_t per_bin = std::max<size_t>(1, n / static_cast<size_t>(bins));
  int bin = 0;
  size_t in_bin = 0;
  for (size_t r = 0; r < n; ++r) {
    // Keep ties together: only advance the bin at a strict value change.
    if (in_bin >= per_bin && bin < bins - 1 &&
        values[order[r]] != values[order[r - 1]]) {
      ++bin;
      in_bin = 0;
    }
    out[order[r]] = bin;
    ++in_bin;
  }
  return out;
}

std::vector<int> CodesFromValues(const std::vector<double>& values) {
  std::vector<int> out(values.size(), kMissingBin);
  std::unordered_map<double, int> codes;
  for (size_t i = 0; i < values.size(); ++i) {
    if (std::isnan(values[i])) continue;
    auto [it, inserted] =
        codes.try_emplace(values[i], static_cast<int>(codes.size()));
    out[i] = it->second;
  }
  return out;
}

size_t DistinctCodeCount(const std::vector<int>& codes) {
  std::unordered_map<int, int> seen;
  for (int c : codes) {
    if (c != kMissingBin) seen.emplace(c, 0);
  }
  return seen.size();
}

}  // namespace autofeat
