#include "ml/trainer.h"

#include "ml/forest.h"
#include "ml/gbdt.h"
#include "ml/knn.h"
#include "ml/linear.h"
#include "ml/metrics.h"
#include "obs/trace.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace autofeat::ml {

namespace {

std::vector<double> TakeValues(const std::vector<double>& values,
                               const std::vector<size_t>& rows) {
  std::vector<double> out;
  out.reserve(rows.size());
  for (size_t r : rows) out.push_back(values[r]);
  return out;
}

// Learns each column's bin edges on its train values and bins both halves,
// one column per task.
void BinColumns(ThreadPool* pool, int max_bins,
                const std::vector<std::vector<double>>& train,
                const std::vector<std::vector<double>>& test,
                std::vector<std::vector<double>>* edges,
                std::vector<std::vector<uint8_t>>* train_codes,
                std::vector<std::vector<uint8_t>>* test_codes) {
  edges->resize(train.size());
  train_codes->resize(train.size());
  test_codes->resize(train.size());
  ParallelFor(pool, 0, train.size(), /*grain=*/1, [&](size_t c) {
    (*edges)[c] = FeatureBinner::FitEdges(train[c], max_bins);
    (*train_codes)[c] = FeatureBinner::BinColumn((*edges)[c], train[c]);
    (*test_codes)[c] = FeatureBinner::BinColumn((*edges)[c], test[c]);
  });
}

// Train or test code columns of the base features, then the extra ones.
std::vector<const uint8_t*> CodePointers(
    const std::vector<std::vector<uint8_t>>& base,
    const std::vector<std::vector<uint8_t>>& extra) {
  std::vector<const uint8_t*> codes;
  codes.reserve(base.size() + extra.size());
  for (const auto& column : base) codes.push_back(column.data());
  for (const auto& column : extra) codes.push_back(column.data());
  return codes;
}

}  // namespace

const char* ModelKindName(ModelKind kind) {
  switch (kind) {
    case ModelKind::kLightGbm: return "LightGBM-like";
    case ModelKind::kRandomForest: return "RandomForest";
    case ModelKind::kExtraTrees: return "ExtraTrees";
    case ModelKind::kXgBoost: return "XGBoost-like";
    case ModelKind::kKnn: return "KNN";
    case ModelKind::kLogRegL1: return "LogRegL1";
  }
  return "invalid";
}

std::unique_ptr<Classifier> MakeClassifier(ModelKind kind, uint64_t seed) {
  switch (kind) {
    case ModelKind::kLightGbm:
      return std::make_unique<Gbdt>(Gbdt::LightGbmLike(seed));
    case ModelKind::kRandomForest:
      return std::make_unique<Forest>(Forest::RandomForest(40, seed));
    case ModelKind::kExtraTrees:
      return std::make_unique<Forest>(Forest::ExtraTrees(40, seed));
    case ModelKind::kXgBoost:
      return std::make_unique<Gbdt>(Gbdt::XgBoostLike(seed));
    case ModelKind::kKnn:
      return std::make_unique<Knn>();
    case ModelKind::kLogRegL1:
      return std::make_unique<LogisticRegressionL1>();
  }
  return nullptr;
}

std::vector<ModelKind> TreeModelKinds() {
  return {ModelKind::kLightGbm, ModelKind::kRandomForest,
          ModelKind::kExtraTrees, ModelKind::kXgBoost};
}

std::vector<ModelKind> NonTreeModelKinds() {
  return {ModelKind::kKnn, ModelKind::kLogRegL1};
}

Result<TrainingPlan> TrainingPlan::Make(const Table& base,
                                        const std::string& label_column,
                                        ModelKind kind,
                                        const TrainerOptions& options,
                                        ThreadPool* pool,
                                        obs::Tracer* tracer) {
  TrainingPlan plan;
  plan.kind_ = kind;
  plan.seed_ = options.seed;
  plan.pool_ = pool;
  plan.tracer_ = tracer;
  {
    obs::ScopedWorkerSpan span(tracer, "ml.encode");
    Rng rng(options.seed);
    AF_ASSIGN_OR_RETURN(
        plan.split_,
        TrainTestSplit(base, options.test_fraction, label_column, &rng));
    AF_ASSIGN_OR_RETURN(Dataset full, Dataset::FromTable(base, label_column));
    plan.train_ = full.TakeRows(plan.split_.train);
    plan.test_ = full.TakeRows(plan.split_.test);
  }
  std::unique_ptr<Classifier> model = MakeClassifier(kind, options.seed);
  if (model == nullptr) return Status::InvalidArgument("unknown model kind");
  if (const auto* gbdt = dynamic_cast<const Gbdt*>(model.get())) {
    obs::ScopedWorkerSpan span(tracer, "ml.bin");
    plan.max_bins_ = gbdt->options().max_bins;
    BinColumns(pool, plan.max_bins_, plan.train_.columns(),
               plan.test_.columns(), &plan.edges_, &plan.train_codes_,
               &plan.test_codes_);
  }
  return plan;
}

Result<TrainingPlan::SplitColumns> TrainingPlan::Encode(
    const Table& extra) const {
  SplitColumns out;
  if (extra.num_columns() == 0) return out;
  const size_t rows = split_.train.size() + split_.test.size();
  if (extra.num_rows() != rows) {
    return Status::InvalidArgument(
        "extra columns have " + std::to_string(extra.num_rows()) +
        " rows; the plan's base has " + std::to_string(rows));
  }
  out.train.resize(extra.num_columns());
  out.test.resize(extra.num_columns());
  ParallelFor(pool_, 0, extra.num_columns(), /*grain=*/1, [&](size_t c) {
    const std::vector<double> values = Dataset::EncodeFeature(extra.column(c));
    out.train[c] = TakeValues(values, split_.train);
    out.test[c] = TakeValues(values, split_.test);
  });
  return out;
}

Result<std::pair<Dataset, Dataset>> TrainingPlan::Datasets(
    const Table& extra) const {
  AF_ASSIGN_OR_RETURN(SplitColumns columns, Encode(extra));
  std::pair<Dataset, Dataset> out{train_, test_};
  for (size_t c = 0; c < extra.num_columns(); ++c) {
    const std::string& name = extra.schema().field(c).name;
    out.first.AddFeature(name, std::move(columns.train[c]));
    out.second.AddFeature(name, std::move(columns.test[c]));
  }
  return out;
}

Result<EvalResult> TrainingPlan::Evaluate(const Table& extra) const {
  std::unique_ptr<Classifier> model = MakeClassifier(kind_, seed_);
  if (model == nullptr) return Status::InvalidArgument("unknown model kind");
  EvalResult result;
  result.model_name = ModelKindName(kind_);
  std::vector<double> probabilities;
  auto* gbdt = dynamic_cast<Gbdt*>(model.get());
  if (gbdt == nullptr) {
    std::pair<Dataset, Dataset> data;
    {
      obs::ScopedWorkerSpan span(tracer_, "ml.encode");
      AF_ASSIGN_OR_RETURN(data, Datasets(extra));
    }
    {
      obs::ScopedWorkerSpan span(tracer_, "ml.fit");
      Timer timer;
      AF_RETURN_NOT_OK(model->Fit(data.first));
      result.train_seconds = timer.ElapsedSeconds();
    }
    obs::ScopedWorkerSpan span(tracer_, "ml.predict");
    probabilities = model->PredictProbaAll(data.second);
  } else {
    SplitColumns columns;
    {
      obs::ScopedWorkerSpan span(tracer_, "ml.encode");
      AF_ASSIGN_OR_RETURN(columns, Encode(extra));
    }
    // The base features' edges and codes come from the plan; each extra
    // column is binned as FeatureBinner::Fit and BinAll would bin it.
    std::vector<std::vector<double>> edges;
    std::vector<std::vector<uint8_t>> train_codes, test_codes;
    {
      obs::ScopedWorkerSpan span(tracer_, "ml.bin");
      BinColumns(pool_, max_bins_, columns.train, columns.test, &edges,
                 &train_codes, &test_codes);
    }
    edges.insert(edges.begin(), edges_.begin(), edges_.end());
    {
      obs::ScopedWorkerSpan span(tracer_, "ml.fit");
      Timer timer;
      AF_RETURN_NOT_OK(gbdt->FitBinned(FeatureBinner(std::move(edges)),
                                       CodePointers(train_codes_, train_codes),
                                       train_.labels(), pool_));
      result.train_seconds = timer.ElapsedSeconds();
    }
    obs::ScopedWorkerSpan span(tracer_, "ml.predict");
    probabilities = gbdt->PredictProbaBinned(
        CodePointers(test_codes_, test_codes), test_.num_rows(), pool_);
  }
  result.accuracy = Accuracy(test_.labels(), probabilities);
  result.auc = RocAuc(test_.labels(), probabilities);
  return result;
}

Result<EvalResult> TrainAndEvaluate(const Table& table,
                                    const std::string& label_column,
                                    ModelKind kind,
                                    const TrainerOptions& options) {
  AF_ASSIGN_OR_RETURN(TrainingPlan plan,
                      TrainingPlan::Make(table, label_column, kind, options));
  return plan.Evaluate(Table());
}

Result<double> AverageAccuracy(const Table& table,
                               const std::string& label_column,
                               const std::vector<ModelKind>& kinds,
                               const TrainerOptions& options) {
  if (kinds.empty()) return Status::InvalidArgument("no model kinds given");
  double sum = 0.0;
  for (ModelKind kind : kinds) {
    AF_ASSIGN_OR_RETURN(EvalResult r,
                        TrainAndEvaluate(table, label_column, kind, options));
    sum += r.accuracy;
  }
  return sum / static_cast<double>(kinds.size());
}

}  // namespace autofeat::ml
