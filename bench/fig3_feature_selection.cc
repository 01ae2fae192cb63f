// Figure 3: empirical comparison of feature-selection strategies (§V).
//   (a) relevance metrics: IG, SU, Pearson, Spearman, Relief.
//   (b) redundancy criteria: MIFS, MRMR, CIFE, JMI, CMIM.
//
// Six synthetic binary-classification datasets varying in size, dimension,
// missing data and label noise (stand-ins for the OpenML/Kaggle/UCI mix of
// §V-B). Each metric selects features; a LightGBM-like model evaluates the
// selection; we report aggregated accuracy and selection runtime.

#include <cstdio>

#include "datagen/generator.h"
#include "fs/redundancy.h"
#include "fs/relevance.h"
#include "harness.h"
#include "ml/metrics.h"
#include "stats/information.h"
#include "util/timer.h"

namespace {

using namespace autofeat;
using namespace autofeat::benchx;

std::vector<Table> MakeStudyDatasets() {
  using datagen::GeneratorOptions;
  auto make = [](size_t rows, size_t inf, size_t red, size_t noise,
                 double missing, double label_noise, uint64_t seed,
                 const char* name) {
    GeneratorOptions o;
    o.rows = rows;
    o.informative_features = inf;
    o.redundant_features = red;
    o.noise_features = noise;
    o.missing_rate = missing;
    o.label_noise = label_noise;
    o.seed = seed;
    return datagen::GenerateClassification(o, name);
  };
  size_t scale = FullMode() ? 2 : 1;
  return {
      make(1000 * scale, 5, 3, 12, 0.00, 0.05, 1, "d1_mid"),
      make(4000 * scale, 8, 4, 12, 0.00, 0.05, 2, "d2_large"),
      make(800 * scale, 10, 10, 40, 0.00, 0.05, 3, "d3_highdim"),
      make(3000 * scale, 3, 2, 5, 0.00, 0.05, 4, "d4_narrow"),
      make(1500 * scale, 6, 6, 20, 0.10, 0.05, 5, "d5_missing"),
      make(2500 * scale, 4, 0, 30, 0.00, 0.15, 6, "d6_noisy"),
  };
}

double EvaluateSelection(const Table& table,
                         const std::vector<std::string>& features) {
  std::vector<std::string> keep = features;
  keep.push_back("label");
  auto selected = table.SelectColumns(keep);
  selected.status().Abort("selecting features");
  auto eval = ml::TrainAndEvaluate(*selected, "label",
                                   ml::ModelKind::kLightGbm);
  eval.status().Abort("evaluating selection");
  return eval->accuracy;
}

}  // namespace

int main() {
  PrintModeBanner("Figure 3: relevance and redundancy strategy comparison");
  std::vector<Table> datasets = MakeStudyDatasets();

  // ---- (a) relevance metrics ------------------------------------------------
  std::printf("\n(a) relevance metrics (top-kappa selection, LightGBM-like "
              "evaluation):\n");
  std::printf("%-10s %10s %14s\n", "metric", "avg_acc", "select_time_s");
  PrintRule(38);
  for (RelevanceKind kind :
       {RelevanceKind::kInformationGain, RelevanceKind::kSymmetricalUncertainty,
        RelevanceKind::kPearson, RelevanceKind::kSpearman,
        RelevanceKind::kRelief}) {
    double acc_sum = 0;
    double time_sum = 0;
    for (const Table& table : datasets) {
      // The view build is timed too: it holds the binning the information
      // metrics read and the sorts Spearman ranks with.
      Timer timer;
      auto view = FeatureView::FromTable(table, "label");
      view.status().Abort();
      RelevanceOptions options;
      options.kind = kind;
      options.top_k = std::max<size_t>(5, view->num_features() / 3);
      options.relief_samples = 128;
      auto scores = ScoreRelevance(*view, {}, options);
      auto kept = SelectKBest(std::move(scores), options.top_k, 1e-9);
      time_sum += timer.ElapsedSeconds();
      std::vector<std::string> names;
      for (const auto& fs : kept) names.push_back(fs.name);
      if (names.empty()) names.push_back(view->name(0));
      acc_sum += EvaluateSelection(table, names);
    }
    std::printf("%-10s %10.3f %14.3f\n", RelevanceKindName(kind),
                acc_sum / datasets.size(), time_sum);
  }
  std::printf("expected: Pearson/Spearman ~3x faster than IG/SU; Relief "
              "fast but less effective; Spearman best overall.\n");

  // ---- (b) redundancy criteria ----------------------------------------------
  std::printf("\n(b) redundancy criteria (greedy J > 0 selection over "
              "MI-ranked candidates):\n");
  std::printf("%-10s %10s %14s\n", "method", "avg_acc", "select_time_s");
  PrintRule(38);
  for (RedundancyKind kind :
       {RedundancyKind::kMifs, RedundancyKind::kMrmr, RedundancyKind::kCife,
        RedundancyKind::kJmi, RedundancyKind::kCmim}) {
    double acc_sum = 0;
    double time_sum = 0;
    for (const Table& table : datasets) {
      auto view = FeatureView::FromTable(table, "label");
      view.status().Abort();
      Timer timer;
      // Rank candidates by marginal MI, then screen greedily.
      RelevanceOptions rank;
      rank.kind = RelevanceKind::kInformationGain;
      rank.top_k = view->num_features();
      auto ranked = SelectKBest(ScoreRelevance(*view, {}, rank),
                                view->num_features(), 1e-9);
      std::vector<size_t> candidates;
      for (const auto& fs : ranked) {
        candidates.push_back(*view->FeatureIndex(fs.name));
      }
      SelectedFeatureSet selected;
      RedundancyOptions options;
      options.kind = kind;
      auto accepted = SelectNonRedundant(*view, candidates, &selected,
                                         options);
      time_sum += timer.ElapsedSeconds();
      std::vector<std::string> names;
      for (const auto& fs : accepted) names.push_back(fs.name);
      if (names.empty()) names.push_back(view->name(0));
      acc_sum += EvaluateSelection(table, names);
    }
    std::printf("%-10s %10.3f %14.3f\n", RedundancyKindName(kind),
                acc_sum / datasets.size(), time_sum);
  }
  std::printf("expected: MIFS/MRMR ~3x faster than CIFE/JMI/CMIM (no "
              "conditional-MI estimation); MRMR the balanced choice.\n");
  return 0;
}
