// Stratified k-fold cross-validation. A more robust alternative to the
// single 80/20 split of ml::TrainAndEvaluate for small datasets (the
// paper's credit/steel/school are in the 1-2k row range where split
// variance matters).

#ifndef AUTOFEAT_ML_CROSS_VALIDATION_H_
#define AUTOFEAT_ML_CROSS_VALIDATION_H_

#include <string>
#include <vector>

#include "ml/trainer.h"

namespace autofeat::obs {
class MetricsRegistry;
class Tracer;
}  // namespace autofeat::obs

namespace autofeat::ml {

struct CrossValidationOptions {
  size_t folds = 5;
  uint64_t seed = 42;
  /// Worker threads for fold training (0 = hardware concurrency, 1 =
  /// sequential). Folds are independent — each trains a fresh model seeded
  /// by (seed + fold) — and per-fold metrics are merged in fold order, so
  /// results are identical at any thread count.
  size_t num_threads = 1;
  /// Optional observability sink: records `cv.runs`, `cv.folds_trained`
  /// and the `cv.fold_test_rows` quantile histogram (all deterministic —
  /// fold assignment is a pure function of the seed).
  obs::MetricsRegistry* metrics = nullptr;
  /// Optional tracer: each fold records a `cv.fold` worker span (plus the
  /// pool's `thread_pool.worker` lane spans when folds run in parallel).
  obs::Tracer* tracer = nullptr;
};

struct CrossValidationResult {
  std::string model_name;
  /// Per-fold test accuracy / AUC.
  std::vector<double> fold_accuracies;
  std::vector<double> fold_aucs;
  double mean_accuracy = 0.0;
  double stddev_accuracy = 0.0;
  double mean_auc = 0.0;
};

/// Splits rows into `folds` stratified folds; trains a fresh `kind` model
/// on each fold complement and evaluates on the held-out fold.
Result<CrossValidationResult> CrossValidate(
    const Table& table, const std::string& label_column, ModelKind kind,
    const CrossValidationOptions& options = {});

/// Stratified fold assignment: fold id per row, each class spread evenly
/// across folds. Exposed for tests.
Result<std::vector<size_t>> StratifiedFoldAssignment(
    const Table& table, const std::string& label_column, size_t folds,
    uint64_t seed);

}  // namespace autofeat::ml

#endif  // AUTOFEAT_ML_CROSS_VALIDATION_H_
