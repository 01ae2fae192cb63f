// FeatureView: a table prepared for feature selection.
//
// Feature-selection metrics need two representations of each feature: raw
// numeric values (correlation metrics) and discretised codes (information-
// theoretic metrics). A FeatureView computes both once per table so repeated
// metric evaluations are cheap. A binned column is sorted once: the same
// order feeds its equal-frequency bins and its Spearman ranks (DESIGN.md
// §4.14). Codes are held by shared pointer, so the selected set R_sel and
// the engine's per-discovery join memo keep them without copying once the
// view itself is dropped (DESIGN.md §4.15).

#ifndef AUTOFEAT_FS_FEATURE_VIEW_H_
#define AUTOFEAT_FS_FEATURE_VIEW_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "table/table.h"
#include "util/status.h"

namespace autofeat {

/// \brief The label column prepared once for every view scored against the
/// same rows: values, codes and sorted order in one immutable block.
struct LabelBlock {
  std::vector<double> numeric;  // NaN = missing
  std::vector<int> codes;       // CodesFromValues(numeric)
  std::vector<uint32_t> order;  // SortedPresentRows(numeric)

  static std::shared_ptr<const LabelBlock> Build(std::vector<double> numeric);
};

/// \brief Numeric + discretised representations of a table's features and
/// its label column.
class FeatureView {
 public:
  /// Builds a view over `feature_names` (all columns except `label_column`
  /// if empty). String features are ordinally encoded; continuous numeric
  /// features are equal-frequency discretised with DefaultBinCount; discrete
  /// numerics keep their value identity.
  static Result<FeatureView> FromTable(
      const Table& table, const std::string& label_column,
      std::vector<std::string> feature_names = {});

  /// Builds a view directly from numeric feature vectors plus a prepared
  /// label — the late-materialization path: callers that already hold
  /// gathered numeric views of joined columns (relational/join_index.h)
  /// skip the Table round-trip entirely. Discretisation matches FromTable,
  /// so the view is identical to FromTable over the materialised join. The
  /// label block is shared, not copied.
  static Result<FeatureView> FromColumns(
      std::vector<std::string> names, std::vector<std::vector<double>> numeric,
      std::shared_ptr<const LabelBlock> label);

  size_t num_features() const { return names_.size(); }
  size_t num_rows() const { return label_->codes.size(); }

  const std::vector<std::string>& names() const { return names_; }
  const std::string& name(size_t f) const { return names_[f]; }

  /// Raw numeric values of feature f (NaN = missing).
  const std::vector<double>& numeric(size_t f) const { return numeric_[f]; }
  /// Discretised codes of feature f (kMissingBin = missing).
  const std::vector<int>& codes(size_t f) const { return *codes_[f]; }
  /// The same codes, shared rather than copied.
  const std::shared_ptr<const std::vector<int>>& shared_codes(size_t f) const {
    return codes_[f];
  }
  /// SortedPresentRows(numeric(f)) (stats/discretize.h) if feature f is
  /// equal-frequency binned; empty if it keeps value identity (at most 32
  /// distinct values), since only Spearman would read that order.
  const std::vector<uint32_t>& order(size_t f) const { return orders_[f]; }

  const std::vector<int>& label_codes() const { return label_->codes; }
  const std::vector<double>& label_numeric() const { return label_->numeric; }
  const std::vector<uint32_t>& label_order() const { return label_->order; }
  /// The shared label block, for building further views over the same rows.
  const std::shared_ptr<const LabelBlock>& label() const { return label_; }

  /// Index of a feature by name, if present in the view.
  std::optional<size_t> FeatureIndex(const std::string& name) const {
    auto it = index_.find(name);
    if (it == index_.end()) return std::nullopt;
    return it->second;
  }

 private:
  std::vector<std::string> names_;
  std::unordered_map<std::string, size_t> index_;
  std::vector<std::vector<double>> numeric_;
  std::vector<std::shared_ptr<const std::vector<int>>> codes_;
  std::vector<std::vector<uint32_t>> orders_;
  std::shared_ptr<const LabelBlock> label_;

  void AddFeature(std::string name, std::vector<double> numeric);
};

}  // namespace autofeat

#endif  // AUTOFEAT_FS_FEATURE_VIEW_H_
