#include "ml/dataset.h"

#include <cmath>
#include <map>

#include "relational/imputation.h"

namespace autofeat::ml {

Result<Dataset> Dataset::FromTable(const Table& table,
                                   const std::string& label_column) {
  AF_ASSIGN_OR_RETURN(const Column* label_col, table.GetColumn(label_column));

  // Binary label mapping, deterministic by value order.
  std::map<std::string, int> classes;
  for (size_t i = 0; i < label_col->size(); ++i) {
    if (label_col->IsNull(i)) {
      return Status::InvalidArgument("label column contains nulls");
    }
    classes.emplace(label_col->KeyAt(i), 0);
  }
  if (classes.size() != 2) {
    return Status::InvalidArgument(
        "expected a binary label, found " + std::to_string(classes.size()) +
        " classes in " + label_column);
  }
  int next = 0;
  for (auto& [value, code] : classes) code = next++;

  Dataset ds;
  ds.labels_.reserve(label_col->size());
  for (size_t i = 0; i < label_col->size(); ++i) {
    ds.labels_.push_back(classes[label_col->KeyAt(i)]);
  }

  for (size_t c = 0; c < table.num_columns(); ++c) {
    const std::string& name = table.schema().field(c).name;
    if (name == label_column) continue;
    ds.names_.push_back(name);
    ds.columns_.push_back(EncodeFeature(table.column(c)));
  }
  return ds;
}

std::vector<double> Dataset::EncodeFeature(const Column& column) {
  std::vector<double> numeric = ImputeMostFrequent(column).ToNumeric();
  for (double& v : numeric) {
    if (std::isnan(v)) v = 0.0;  // All-null columns impute to default.
  }
  return numeric;
}

Dataset Dataset::TakeRows(const std::vector<size_t>& rows) const {
  Dataset out;
  out.names_ = names_;
  out.columns_.reserve(columns_.size());
  for (const auto& col : columns_) {
    std::vector<double> sub;
    sub.reserve(rows.size());
    for (size_t r : rows) sub.push_back(col[r]);
    out.columns_.push_back(std::move(sub));
  }
  out.labels_.reserve(rows.size());
  for (size_t r : rows) out.labels_.push_back(labels_[r]);
  return out;
}

void Dataset::AddFeature(std::string name, std::vector<double> values) {
  names_.push_back(std::move(name));
  columns_.push_back(std::move(values));
}

Dataset Dataset::SelectFeatures(
    const std::vector<size_t>& feature_indices) const {
  Dataset out;
  out.labels_ = labels_;
  for (size_t f : feature_indices) {
    out.names_.push_back(names_[f]);
    out.columns_.push_back(columns_[f]);
  }
  return out;
}

}  // namespace autofeat::ml
