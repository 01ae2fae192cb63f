// Abstract binary classifier interface shared by all models.

#ifndef AUTOFEAT_ML_CLASSIFIER_H_
#define AUTOFEAT_ML_CLASSIFIER_H_

#include <string>
#include <vector>

#include "ml/dataset.h"
#include "util/status.h"

namespace autofeat::ml {

/// \brief A trainable binary classifier.
class Classifier {
 public:
  virtual ~Classifier() = default;

  /// Trains on `train`; may be called once per instance.
  virtual Status Fit(const Dataset& train) = 0;

  /// P(label == 1) for row `row` of `data`. Fit must have succeeded.
  virtual double PredictProba(const Dataset& data, size_t row) const = 0;

  virtual std::string name() const = 0;

  /// Per-feature importance scores aligned with the training dataset's
  /// feature order; empty if the model does not provide them.
  virtual std::vector<double> FeatureImportances() const { return {}; }

  /// Hard 0/1 prediction.
  int Predict(const Dataset& data, size_t row) const {
    return PredictProba(data, row) >= 0.5 ? 1 : 0;
  }

  /// Probabilities for every row of `data`; equal to PredictProba row by
  /// row. Models that can share work across rows override it.
  virtual std::vector<double> PredictProbaAll(const Dataset& data) const {
    std::vector<double> out(data.num_rows());
    for (size_t r = 0; r < data.num_rows(); ++r) {
      out[r] = PredictProba(data, r);
    }
    return out;
  }
};

}  // namespace autofeat::ml

#endif  // AUTOFEAT_ML_CLASSIFIER_H_
