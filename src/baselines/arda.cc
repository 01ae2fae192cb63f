#include "baselines/arda.h"

#include <algorithm>
#include <cmath>

#include "discovery/join_index_cache.h"
#include "ml/forest.h"
#include "ml/metrics.h"
#include "relational/join.h"
#include "relational/join_index.h"
#include "relational/sampling.h"
#include "util/timer.h"

namespace autofeat::baselines {

namespace {

// Median of a (copied) vector; 0 if empty.
double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<ptrdiff_t>(mid),
                   values.end());
  return values[mid];
}

}  // namespace

Result<AugmenterResult> Arda::Augment(const DataLake& lake,
                                      const DatasetRelationGraph& drg,
                                      const std::string& base_table,
                                      const std::string& label_column) {
  Timer total_timer;
  AF_ASSIGN_OR_RETURN(const Table* base, lake.GetTable(base_table));
  AF_ASSIGN_OR_RETURN(size_t base_node, drg.NodeId(base_table));
  Rng rng(options_.seed);

  AugmenterResult result;
  result.augmented = *base;

  // Interned join-key indexes, built once per (table, column) target.
  JoinIndexCache join_cache(&lake, options_.seed, options_.metrics);

  // --- Star join: direct neighbours only (ARDA's single-hop limitation). ---
  for (size_t neighbor : drg.Neighbors(base_node)) {
    const Table* right = nullptr;
    {
      auto r = lake.GetTable(drg.NodeName(neighbor));
      if (!r.ok()) continue;
      right = *r;
    }
    if (right->HasColumn(label_column)) continue;
    for (const JoinStep& edge : drg.BestEdgesBetween(base_node, neighbor)) {
      if (edge.from_column == label_column) continue;  // Label leakage.
      if (!result.augmented.HasColumn(edge.from_column)) continue;
      auto index = join_cache.GetOrBuild(drg.NodeName(neighbor),
                                         edge.to_column);
      if (!index.ok()) continue;
      auto join = LeftJoinWithIndex(result.augmented, edge.from_column,
                                    *right, **index);
      if (!join.ok() || join->stats.matched_rows == 0) continue;
      result.augmented = std::move(join->table);
      ++result.tables_joined;
      break;
    }
  }

  // --- RIFS feature selection over the wide star-joined table. ---
  Timer fs_timer;
  Table sampled = result.augmented;
  if (options_.sample_rows > 0 &&
      sampled.num_rows() > options_.sample_rows) {
    AF_ASSIGN_OR_RETURN(sampled,
                        StratifiedSample(result.augmented, label_column,
                                         options_.sample_rows, &rng));
  }
  AF_ASSIGN_OR_RETURN(ml::Dataset data,
                      ml::Dataset::FromTable(sampled, label_column));
  size_t p = data.num_features();
  if (p == 0) {
    result.total_seconds = total_timer.ElapsedSeconds();
    return result;
  }
  size_t num_random = std::max<size_t>(
      3, static_cast<size_t>(std::ceil(options_.random_fraction *
                                       static_cast<double>(p))));

  std::vector<size_t> beats(p, 0);
  std::vector<double> importance_sum(p, 0.0);
  for (size_t trial = 0; trial < options_.num_trials; ++trial) {
    ml::Dataset injected = data;
    for (size_t j = 0; j < num_random; ++j) {
      std::vector<double> noise(data.num_rows());
      for (double& v : noise) v = rng.Normal(0.0, 1.0);
      injected.AddFeature("__random_" + std::to_string(j), std::move(noise));
    }
    ml::Forest forest =
        ml::Forest::RandomForest(options_.forest_trees, rng.engine()());
    AF_RETURN_NOT_OK(forest.Fit(injected));
    std::vector<double> importances = forest.FeatureImportances();

    std::vector<double> random_importances(importances.size() - p);
    for (size_t j = 0; j < random_importances.size(); ++j) {
      random_importances[j] = importances[p + j];
    }
    double bar = Median(random_importances);
    for (size_t f = 0; f < p; ++f) {
      importance_sum[f] += importances[f];
      if (importances[f] > bar) ++beats[f];
    }
  }

  // Survivors, ranked by mean importance.
  size_t required = static_cast<size_t>(
      std::ceil(options_.beat_fraction *
                static_cast<double>(options_.num_trials)));
  std::vector<size_t> survivors;
  for (size_t f = 0; f < p; ++f) {
    if (beats[f] >= required) survivors.push_back(f);
  }
  if (survivors.empty()) {
    // Degenerate: keep everything rather than return an empty table.
    survivors.resize(p);
    for (size_t f = 0; f < p; ++f) survivors[f] = f;
  }
  std::stable_sort(survivors.begin(), survivors.end(), [&](size_t a, size_t b) {
    return importance_sum[a] > importance_sum[b];
  });

  // Wrapper sweep over feature-count fractions, judged on a validation
  // split of the sampled data (more model training — ARDA's cost profile).
  std::vector<size_t> rows(data.num_rows());
  for (size_t r = 0; r < rows.size(); ++r) rows[r] = r;
  rng.Shuffle(&rows);
  size_t val_n = std::max<size_t>(1, rows.size() / 5);
  std::vector<size_t> val_rows(rows.begin(),
                               rows.begin() + static_cast<ptrdiff_t>(val_n));
  std::vector<size_t> train_rows(rows.begin() + static_cast<ptrdiff_t>(val_n),
                                 rows.end());

  double best_accuracy = -1.0;
  std::vector<size_t> best_subset;
  for (double fraction : options_.wrapper_fractions) {
    size_t count = std::max<size_t>(
        1, static_cast<size_t>(std::llround(
               fraction * static_cast<double>(survivors.size()))));
    count = std::min(count, survivors.size());
    std::vector<size_t> subset(survivors.begin(),
                               survivors.begin() + static_cast<ptrdiff_t>(count));
    ml::Dataset sub = data.SelectFeatures(subset);
    ml::Dataset train = sub.TakeRows(train_rows);
    ml::Dataset val = sub.TakeRows(val_rows);
    ml::Forest forest =
        ml::Forest::RandomForest(options_.forest_trees, rng.engine()());
    AF_RETURN_NOT_OK(forest.Fit(train));
    double acc = ml::Accuracy(val.labels(), forest.PredictProbaAll(val));
    if (acc > best_accuracy) {
      best_accuracy = acc;
      best_subset = std::move(subset);
    }
  }
  result.feature_selection_seconds = fs_timer.ElapsedSeconds();

  // Project the augmented table onto the winning subset (+ label).
  std::vector<std::string> keep;
  keep.reserve(best_subset.size() + 1);
  for (size_t f : best_subset) keep.push_back(data.feature_names()[f]);
  keep.push_back(label_column);
  AF_ASSIGN_OR_RETURN(Table projected, result.augmented.SelectColumns(keep));
  projected.set_name(result.augmented.name());
  result.augmented = std::move(projected);

  result.total_seconds = total_timer.ElapsedSeconds();
  return result;
}

}  // namespace autofeat::baselines
