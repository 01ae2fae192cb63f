#include "fs/feature_view.h"

#include <cmath>
#include <utility>

#include "stats/discretize.h"

namespace autofeat {

std::shared_ptr<const LabelBlock> LabelBlock::Build(
    std::vector<double> numeric) {
  auto block = std::make_shared<LabelBlock>();
  block->codes = CodesFromValues(numeric);
  block->order = SortedPresentRows(numeric);
  block->numeric = std::move(numeric);
  return block;
}

namespace {

// A numeric column with at most this many distinct values is effectively
// categorical and keeps value identity.
constexpr size_t kMaxIdentityValues = 32;

// CodesFromValues(values) if `values` holds at most kMaxIdentityValues
// distinct non-NaN values, else nullopt. Codes are assigned by first
// occurrence while counting, so the column is scanned once; == matches
// -0.0 with 0.0 exactly as CodesFromValues' hash map does.
std::optional<std::vector<int>> IdentityCodes(
    const std::vector<double>& values) {
  std::vector<int> codes(values.size(), kMissingBin);
  double seen[kMaxIdentityValues] = {};
  size_t distinct = 0;
  for (size_t i = 0; i < values.size(); ++i) {
    const double v = values[i];
    if (std::isnan(v)) continue;
    size_t code = 0;
    while (code < distinct && seen[code] != v) ++code;
    if (code == distinct) {
      if (distinct == kMaxIdentityValues) return std::nullopt;
      seen[distinct++] = v;
    }
    codes[i] = static_cast<int>(code);
  }
  return codes;
}

}  // namespace

void FeatureView::AddFeature(std::string name, std::vector<double> numeric) {
  // A few-valued column keeps value identity; otherwise it is
  // equal-frequency binned over its sorted order, which the view keeps for
  // Spearman ranks.
  std::vector<uint32_t> order;
  std::optional<std::vector<int>> codes = IdentityCodes(numeric);
  if (!codes.has_value()) {
    order = SortedPresentRows(numeric);
    codes = DiscretizeEqualFrequency(numeric, order,
                                     DefaultBinCount(numeric.size()));
  }
  index_[name] = names_.size();
  names_.push_back(std::move(name));
  codes_.push_back(
      std::make_shared<const std::vector<int>>(std::move(*codes)));
  orders_.push_back(std::move(order));
  numeric_.push_back(std::move(numeric));
}

Result<FeatureView> FeatureView::FromTable(
    const Table& table, const std::string& label_column,
    std::vector<std::string> feature_names) {
  FeatureView view;

  AF_ASSIGN_OR_RETURN(const Column* label, table.GetColumn(label_column));
  view.label_ = LabelBlock::Build(label->ToNumeric());

  if (feature_names.empty()) {
    for (const auto& name : table.ColumnNames()) {
      if (name != label_column) feature_names.push_back(name);
    }
  }

  for (auto& name : feature_names) {
    if (name == label_column) {
      return Status::InvalidArgument("label column listed as feature: " + name);
    }
    AF_ASSIGN_OR_RETURN(const Column* col, table.GetColumn(name));
    view.AddFeature(std::move(name), col->ToNumeric());
  }
  return view;
}

Result<FeatureView> FeatureView::FromColumns(
    std::vector<std::string> names, std::vector<std::vector<double>> numeric,
    std::shared_ptr<const LabelBlock> label) {
  if (names.size() != numeric.size()) {
    return Status::InvalidArgument("FromColumns: name/vector count mismatch");
  }
  if (label == nullptr) {
    return Status::InvalidArgument("FromColumns: missing label block");
  }
  FeatureView view;
  view.label_ = std::move(label);
  for (size_t f = 0; f < names.size(); ++f) {
    if (numeric[f].size() != view.label_->numeric.size()) {
      return Status::InvalidArgument("FromColumns: feature '" + names[f] +
                                     "' length mismatch");
    }
    view.AddFeature(std::move(names[f]), std::move(numeric[f]));
  }
  return view;
}

}  // namespace autofeat
