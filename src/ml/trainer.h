// Trainer: the AutoGluon-substitute facade (paper §V-B, §VII-A).
//
// Handles everything between a relational Table and a trained model:
// imputation, encoding, stratified 80/20 train/test split, model
// construction, fitting and evaluation. One path does it all: a
// TrainingPlan prepares a base table once, and every model adds only its
// own columns (TrainAndEvaluate is a plan with none).

#ifndef AUTOFEAT_ML_TRAINER_H_
#define AUTOFEAT_ML_TRAINER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ml/classifier.h"
#include "relational/sampling.h"
#include "table/table.h"
#include "util/status.h"

namespace autofeat {
class ThreadPool;
namespace obs {
class Tracer;
}  // namespace obs
}  // namespace autofeat

namespace autofeat::ml {

/// The models of the paper's evaluation: four tree-based (§VII-A) and two
/// non-tree (Figs. 5/7).
enum class ModelKind {
  kLightGbm,
  kRandomForest,
  kExtraTrees,
  kXgBoost,
  kKnn,
  kLogRegL1,
};

const char* ModelKindName(ModelKind kind);

/// Instantiates a classifier of the given kind.
std::unique_ptr<Classifier> MakeClassifier(ModelKind kind, uint64_t seed);

/// The tree-based models averaged in Figs. 4 and 6.
std::vector<ModelKind> TreeModelKinds();
/// The non-tree models of Figs. 5 and 7.
std::vector<ModelKind> NonTreeModelKinds();

struct EvalResult {
  std::string model_name;
  double accuracy = 0.0;
  double auc = 0.0;
  double train_seconds = 0.0;
};

struct TrainerOptions {
  double test_fraction = 0.2;
  uint64_t seed = 42;
};

/// \brief What every model trained on one base table shares (DESIGN.md
/// §4.16): the stratified split, which depends on the label and the seed
/// alone; the label codes; the encoded base features of both halves; and,
/// for the GBDT kinds, each base feature's bin edges and codes.
///
/// A model adds its own columns, which are encoded and binned one column at
/// a time exactly as in a table holding them all, so Evaluate(extra) is
/// bitwise TrainAndEvaluate of the base with `extra`'s columns appended.
/// Evaluate is const and safe to call concurrently.
class TrainingPlan {
 public:
  /// Splits `base` stratified on `label_column`, encodes it and, for a
  /// GBDT `kind`, bins its features. GBDT fits run their row chunks on
  /// `pool` (null runs them inline); `tracer` receives `ml.encode`,
  /// `ml.bin`, `ml.fit` and `ml.predict` worker spans.
  static Result<TrainingPlan> Make(const Table& base,
                                   const std::string& label_column,
                                   ModelKind kind,
                                   const TrainerOptions& options = {},
                                   ThreadPool* pool = nullptr,
                                   obs::Tracer* tracer = nullptr);

  /// Train and test datasets of the base features followed by `extra`'s
  /// columns (one cell per base row; an empty table adds none).
  Result<std::pair<Dataset, Dataset>> Datasets(const Table& extra) const;

  /// Trains the plan's model on the base features plus `extra`'s columns
  /// and evaluates it on the test rows.
  Result<EvalResult> Evaluate(const Table& extra) const;

  const TrainTestIndices& split() const { return split_; }

 private:
  // `extra`'s encoded columns, split into train and test values.
  struct SplitColumns {
    std::vector<std::vector<double>> train;
    std::vector<std::vector<double>> test;
  };
  Result<SplitColumns> Encode(const Table& extra) const;

  ModelKind kind_ = ModelKind::kLightGbm;
  uint64_t seed_ = 0;
  ThreadPool* pool_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  TrainTestIndices split_;
  Dataset train_;  // encoded base features and labels of the train rows
  Dataset test_;
  // GBDT kinds only (max_bins_ > 0): per base feature.
  int max_bins_ = 0;
  std::vector<std::vector<double>> edges_;
  std::vector<std::vector<uint8_t>> train_codes_;
  std::vector<std::vector<uint8_t>> test_codes_;
};

/// Imputes/encodes `table`, splits stratified on `label_column`, trains a
/// `kind` model and evaluates on the held-out split: a TrainingPlan of
/// `table` evaluated with no extra columns.
Result<EvalResult> TrainAndEvaluate(const Table& table,
                                    const std::string& label_column,
                                    ModelKind kind,
                                    const TrainerOptions& options = {});

/// Mean test accuracy of `kinds` on the same split (the per-dataset bars of
/// Figs. 4-7 average over models).
Result<double> AverageAccuracy(const Table& table,
                               const std::string& label_column,
                               const std::vector<ModelKind>& kinds,
                               const TrainerOptions& options = {});

}  // namespace autofeat::ml

#endif  // AUTOFEAT_ML_TRAINER_H_
