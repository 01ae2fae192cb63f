#include "ml/cross_validation.h"

#include <cmath>
#include <map>
#include <memory>

#include "ml/metrics.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace autofeat::ml {

Result<std::vector<size_t>> StratifiedFoldAssignment(
    const Table& table, const std::string& label_column, size_t folds,
    uint64_t seed) {
  if (folds < 2) {
    return Status::InvalidArgument("need at least 2 folds");
  }
  AF_ASSIGN_OR_RETURN(const Column* label, table.GetColumn(label_column));
  // Group rows per class, shuffle, deal them round-robin into folds.
  std::map<std::string, std::vector<size_t>> strata;
  for (size_t i = 0; i < label->size(); ++i) {
    strata[label->KeyAt(i)].push_back(i);
  }
  Rng rng(seed);
  std::vector<size_t> assignment(table.num_rows(), 0);
  size_t dealer = 0;
  for (auto& [value, rows] : strata) {
    rng.Shuffle(&rows);
    for (size_t r : rows) {
      assignment[r] = dealer % folds;
      ++dealer;
    }
  }
  return assignment;
}

Result<CrossValidationResult> CrossValidate(
    const Table& table, const std::string& label_column, ModelKind kind,
    const CrossValidationOptions& options) {
  AF_ASSIGN_OR_RETURN(
      std::vector<size_t> assignment,
      StratifiedFoldAssignment(table, label_column, options.folds,
                               options.seed));
  AF_ASSIGN_OR_RETURN(Dataset full, Dataset::FromTable(table, label_column));

  CrossValidationResult result;
  result.model_name = ModelKindName(kind);

  obs::Increment(obs::GetCounter(options.metrics, "cv.runs"));
  obs::QuantileHistogram* fold_test_rows = obs::GetQuantile(
      options.metrics, "cv.fold_test_rows", /*deterministic=*/true);
  if (fold_test_rows != nullptr) {
    std::vector<uint64_t> per_fold(options.folds, 0);
    for (size_t f : assignment) ++per_fold[f];
    for (uint64_t rows : per_fold) obs::Record(fold_test_rows, rows);
  }

  // Folds are independent tasks: each trains a fresh model on its own row
  // subset with a per-fold seed. Metrics are merged in fold order below, so
  // the result is identical at any thread count.
  std::unique_ptr<ThreadPool> pool;
  if (ResolveNumThreads(options.num_threads) > 1 && options.folds > 1) {
    pool = std::make_unique<ThreadPool>(options.num_threads);
    if (options.tracer != nullptr) pool->set_tracer(options.tracer);
  }
  struct FoldEval {
    Status status;
    double accuracy = 0.0;
    double auc = 0.0;
  };
  obs::TaskContext fold_ctx = obs::CaptureTaskContext(options.tracer);
  std::vector<FoldEval> evals = ParallelMap<FoldEval>(
      pool.get(), options.folds, /*grain=*/1, [&](size_t fold) {
        obs::ScopedWorkerSpan fold_span(fold_ctx, "cv.fold");
        FoldEval ev;
        std::vector<size_t> train_rows, test_rows;
        for (size_t r = 0; r < assignment.size(); ++r) {
          (assignment[r] == fold ? test_rows : train_rows).push_back(r);
        }
        if (train_rows.empty() || test_rows.empty()) {
          ev.status = Status::InvalidArgument(
              "fold " + std::to_string(fold) + " is degenerate (" +
              std::to_string(train_rows.size()) + " train / " +
              std::to_string(test_rows.size()) + " test rows)");
          return ev;
        }
        Dataset train = full.TakeRows(train_rows);
        Dataset test = full.TakeRows(test_rows);
        std::unique_ptr<Classifier> model =
            MakeClassifier(kind, options.seed + fold);
        if (model == nullptr) {
          ev.status = Status::InvalidArgument("unknown model kind");
          return ev;
        }
        ev.status = model->Fit(train);
        if (!ev.status.ok()) return ev;
        std::vector<double> probabilities = model->PredictProbaAll(test);
        ev.accuracy = Accuracy(test.labels(), probabilities);
        ev.auc = RocAuc(test.labels(), probabilities);
        return ev;
      });
  for (const FoldEval& ev : evals) {
    AF_RETURN_NOT_OK(ev.status);
    result.fold_accuracies.push_back(ev.accuracy);
    result.fold_aucs.push_back(ev.auc);
  }
  obs::Increment(obs::GetCounter(options.metrics, "cv.folds_trained"),
                 options.folds);

  double n = static_cast<double>(options.folds);
  for (double a : result.fold_accuracies) result.mean_accuracy += a;
  result.mean_accuracy /= n;
  for (double a : result.fold_aucs) result.mean_auc += a;
  result.mean_auc /= n;
  double var = 0;
  for (double a : result.fold_accuracies) {
    var += (a - result.mean_accuracy) * (a - result.mean_accuracy);
  }
  result.stddev_accuracy = std::sqrt(var / n);
  return result;
}

}  // namespace autofeat::ml
