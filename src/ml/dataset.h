// Encoded ML dataset: the bridge between relational Tables and the models.
//
// Tables are imputed (most-frequent, per the paper's methodology §V-B),
// string features ordinally encoded, and the label mapped to {0, 1}. The
// result is a dense column-major matrix the classifiers consume.

#ifndef AUTOFEAT_ML_DATASET_H_
#define AUTOFEAT_ML_DATASET_H_

#include <string>
#include <vector>

#include "table/table.h"
#include "util/status.h"

namespace autofeat::ml {

/// \brief Dense, fully numeric, null-free training data.
class Dataset {
 public:
  Dataset() = default;

  /// Builds a dataset from `table` using `label_column` as the binary label.
  /// All other columns become features. Nulls are imputed with the most
  /// frequent value; strings are ordinally encoded; the label's two distinct
  /// values map to 0/1 (fails if not exactly two classes).
  static Result<Dataset> FromTable(const Table& table,
                                   const std::string& label_column);

  /// One feature column as FromTable encodes it: nulls imputed with the
  /// most frequent value, strings ordinally encoded, all-null as zeros. A
  /// column's values depend on that column alone.
  static std::vector<double> EncodeFeature(const Column& column);

  size_t num_rows() const { return labels_.size(); }
  size_t num_features() const { return columns_.size(); }

  const std::vector<std::string>& feature_names() const { return names_; }
  const std::vector<double>& column(size_t f) const { return columns_[f]; }
  const std::vector<std::vector<double>>& columns() const { return columns_; }
  const std::vector<int>& labels() const { return labels_; }

  double at(size_t row, size_t feature) const {
    return columns_[feature][row];
  }
  int label(size_t row) const { return labels_[row]; }

  /// Row-subset copy (for train/test splits and bagging).
  Dataset TakeRows(const std::vector<size_t>& rows) const;

  /// Adds a feature column (used by ARDA's random-injection selection).
  void AddFeature(std::string name, std::vector<double> values);

  /// Column-subset copy.
  Dataset SelectFeatures(const std::vector<size_t>& feature_indices) const;

 private:
  std::vector<std::string> names_;
  std::vector<std::vector<double>> columns_;  // [feature][row]
  std::vector<int> labels_;
};

}  // namespace autofeat::ml

#endif  // AUTOFEAT_ML_DATASET_H_
