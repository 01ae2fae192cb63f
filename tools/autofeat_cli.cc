// autofeat_cli — run transitive feature discovery on a directory of CSVs.
//
// Usage:
//   autofeat_cli --lake DIR --base TABLE --label COLUMN
//                [--tau 0.65] [--kappa 15] [--top-k 4] [--max-hops 4]
//                [--model lightgbm|rf|extratrees|xgboost|knn|logreg]
//                [--threshold 0.55] [--threads 1] [--tune]
//                [--output augmented.csv]
//
// The joinability graph is discovered with the schema matcher (the
// data-lake setting); declared KFK metadata does not survive CSV files.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <fstream>

#include "core/autofeat.h"
#include "core/tuning.h"
#include "discovery/data_lake.h"
#include "graph/dot_export.h"
#include "graph/path_format.h"
#include "ml/trainer.h"
#include "obs/chrome_trace.h"
#include "obs/memory.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "relational/describe.h"
#include "table/csv.h"

namespace {

using namespace autofeat;

struct CliOptions {
  std::string lake_dir;
  std::string base_table;
  std::string label_column;
  std::string output;
  std::string dot_output;
  std::string metrics_output;
  std::string trace_output;
  std::string model = "lightgbm";
  std::string drg_matcher = "all_pairs";
  std::string lake_format = "csv";
  /// Lake-wide cache budget in MiB (0 = unbounded).
  size_t memory_budget_mb = 0;
  /// < 0 = keep the LshOptions default.
  long lsh_rescue = -1;
  double tau = 0.65;
  size_t kappa = 15;
  size_t top_k = 4;
  size_t max_hops = 4;
  double threshold = 0.55;
  /// 0 = one worker per hardware thread, 1 = sequential.
  size_t threads = 1;
  bool tune = false;
  bool describe = false;
};

void PrintUsage() {
  std::fprintf(
      stderr,
      "usage: autofeat_cli --lake DIR --base TABLE --label COLUMN\n"
      "                    [--tau F] [--kappa N] [--top-k N] [--max-hops N]\n"
      "                    [--model lightgbm|rf|extratrees|xgboost|knn|logreg]\n"
      "                    [--threshold F] [--threads N] [--tune]\n"
      "                    [--drg-matcher all_pairs|lsh] [--lsh-rescue N]\n"
      "                    [--lake-format csv|columnar] [--memory-budget-mb N]\n"
      "                    [--describe] [--output FILE.csv] [--dot FILE.dot]\n"
      "                    [--metrics-out FILE.json] [--trace-out FILE.json]\n"
      "  --lake-format csv|columnar\n"
      "                on-disk lake layout: csv loads *.csv files, columnar\n"
      "                loads *.afc files (the binary columnar format; see\n"
      "                lake_convert_cli to convert a directory)\n"
      "  --memory-budget-mb N\n"
      "                bound the lake-wide caches (join-key indexes, column\n"
      "                sketches) to N MiB via LRU eviction + rebuild-on-miss\n"
      "                (0 = unbounded). Results are byte-identical at any\n"
      "                budget; only wall time changes\n"
      "  --threads N   worker threads for discovery + evaluation\n"
      "                (0 = all hardware threads, 1 = sequential; results\n"
      "                are identical at any thread count)\n"
      "  --drg-matcher all_pairs|lsh\n"
      "                candidate generation for DRG discovery: all_pairs\n"
      "                scores every table pair (exhaustive, O(n^2));\n"
      "                lsh prefilters pairs with a MinHash-LSH index over\n"
      "                the column sketches (sub-quadratic on large lakes,\n"
      "                recall >= 95%% of all_pairs edges)\n"
      "  --lsh-rescue N\n"
      "                containment-rescue threshold of the lsh matcher:\n"
      "                columns with at most N distinct values index every\n"
      "                sketch value, catching small-FK-in-huge-PK joins\n"
      "                whose Jaccard similarity is too low for banding\n"
      "                (0 disables the rescue; default %zu). Raise it when\n"
      "                dimension tables are missed at the default\n",
      LshOptions{}.small_column_rescue);
  std::fprintf(
      stderr,
      "  --metrics-out FILE.json\n"
      "                write an observability report (counters, histograms,\n"
      "                memory gauges, phase spans) covering DRG discovery\n"
      "                and the engine; the report's deterministic digest is\n"
      "                identical at any --threads value\n"
      "  --trace-out FILE.json\n"
      "                write a Chrome trace-event file with per-thread\n"
      "                orchestration + worker spans and enqueue->execute\n"
      "                flow arrows; open at https://ui.perfetto.dev\n");
}

bool ParseArgs(int argc, char** argv, CliOptions* options) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--lake") {
      const char* v = next();
      if (!v) return false;
      options->lake_dir = v;
    } else if (arg == "--base") {
      const char* v = next();
      if (!v) return false;
      options->base_table = v;
    } else if (arg == "--label") {
      const char* v = next();
      if (!v) return false;
      options->label_column = v;
    } else if (arg == "--output") {
      const char* v = next();
      if (!v) return false;
      options->output = v;
    } else if (arg == "--dot") {
      const char* v = next();
      if (!v) return false;
      options->dot_output = v;
    } else if (arg == "--metrics-out") {
      const char* v = next();
      if (!v) return false;
      options->metrics_output = v;
    } else if (arg == "--trace-out") {
      const char* v = next();
      if (!v) return false;
      options->trace_output = v;
    } else if (arg == "--model") {
      const char* v = next();
      if (!v) return false;
      options->model = v;
    } else if (arg == "--drg-matcher") {
      const char* v = next();
      if (!v) return false;
      options->drg_matcher = v;
    } else if (arg == "--lake-format") {
      const char* v = next();
      if (!v) return false;
      options->lake_format = v;
    } else if (arg == "--memory-budget-mb") {
      const char* v = next();
      if (!v) return false;
      options->memory_budget_mb = static_cast<size_t>(std::atol(v));
    } else if (arg == "--lsh-rescue") {
      const char* v = next();
      if (!v) return false;
      options->lsh_rescue = std::atol(v);
    } else if (arg == "--tau") {
      const char* v = next();
      if (!v) return false;
      options->tau = std::atof(v);
    } else if (arg == "--threshold") {
      const char* v = next();
      if (!v) return false;
      options->threshold = std::atof(v);
    } else if (arg == "--kappa") {
      const char* v = next();
      if (!v) return false;
      options->kappa = static_cast<size_t>(std::atoi(v));
    } else if (arg == "--top-k") {
      const char* v = next();
      if (!v) return false;
      options->top_k = static_cast<size_t>(std::atoi(v));
    } else if (arg == "--max-hops") {
      const char* v = next();
      if (!v) return false;
      options->max_hops = static_cast<size_t>(std::atoi(v));
    } else if (arg == "--threads") {
      const char* v = next();
      if (!v) return false;
      options->threads = static_cast<size_t>(std::atoi(v));
    } else if (arg == "--tune") {
      options->tune = true;
    } else if (arg == "--describe") {
      options->describe = true;
    } else if (arg == "--help" || arg == "-h") {
      return false;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return false;
    }
  }
  return !options->lake_dir.empty() && !options->base_table.empty() &&
         !options->label_column.empty();
}

Result<ml::ModelKind> ParseModel(const std::string& name) {
  if (name == "lightgbm") return ml::ModelKind::kLightGbm;
  if (name == "rf") return ml::ModelKind::kRandomForest;
  if (name == "extratrees") return ml::ModelKind::kExtraTrees;
  if (name == "xgboost") return ml::ModelKind::kXgBoost;
  if (name == "knn") return ml::ModelKind::kKnn;
  if (name == "logreg") return ml::ModelKind::kLogRegL1;
  return Status::InvalidArgument("unknown model: " + name);
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions options;
  if (!ParseArgs(argc, argv, &options)) {
    PrintUsage();
    return 2;
  }
  auto model = ParseModel(options.model);
  if (!model.ok()) {
    std::fprintf(stderr, "%s\n", model.status().ToString().c_str());
    return 2;
  }

  // One shared registry/tracer covers DRG discovery and the engine, so the
  // report shows every phase of the run. Null when neither --metrics-out
  // nor --trace-out is given: every instrumentation point below
  // degenerates to an untaken branch.
  std::unique_ptr<obs::MetricsRegistry> metrics;
  std::unique_ptr<obs::Tracer> tracer;
  if (!options.metrics_output.empty() || !options.trace_output.empty()) {
    metrics = std::make_unique<obs::MetricsRegistry>();
    tracer = std::make_unique<obs::Tracer>();
  }

  auto format = ParseLakeFormat(options.lake_format);
  format.status().Abort("parsing --lake-format");
  auto lake = [&] {
    obs::ScopedSpan span(tracer.get(), "load_lake");
    return DataLake::FromDirectory(options.lake_dir, *format);
  }();
  lake.status().Abort("loading lake");
  std::printf("loaded %zu tables from %s\n", lake->num_tables(),
              options.lake_dir.c_str());
  if (metrics != nullptr) {
    size_t lake_bytes = 0;
    for (const auto& table : lake->tables()) lake_bytes += table.ApproxBytes();
    obs::UpdateMax(obs::GetGauge(metrics.get(), "lake.tables"),
                   static_cast<int64_t>(lake->num_tables()));
    obs::UpdateMax(obs::GetGauge(metrics.get(), "lake.bytes"),
                   static_cast<int64_t>(lake_bytes));
  }
  if (!lake->HasTable(options.base_table)) {
    std::fprintf(stderr, "base table '%s' not found in lake\n",
                 options.base_table.c_str());
    return 2;
  }

  if (options.describe) {
    for (const auto& table : lake->tables()) {
      std::printf("\n%s", FormatTableDescription(table).c_str());
    }
    std::printf("\n");
  }

  const size_t budget_bytes = options.memory_budget_mb * (size_t{1} << 20);
  MatchOptions match;
  match.threshold = options.threshold;
  match.memory_budget_bytes = budget_bytes;
  if (options.drg_matcher == "lsh") {
    match.candidate_mode = CandidateMode::kLsh;
  } else if (options.drg_matcher != "all_pairs") {
    std::fprintf(stderr, "unknown --drg-matcher: %s (want all_pairs|lsh)\n",
                 options.drg_matcher.c_str());
    return 2;
  }
  if (options.lsh_rescue >= 0) {
    match.lsh.small_column_rescue = static_cast<size_t>(options.lsh_rescue);
  }
  std::unique_ptr<ThreadPool> pool;
  if (ResolveNumThreads(options.threads) > 1) {
    pool = std::make_unique<ThreadPool>(options.threads);
    if (metrics != nullptr) pool->set_metrics(metrics.get());
    if (tracer != nullptr) pool->set_tracer(tracer.get());
  }
  auto drg = [&] {
    obs::ScopedSpan span(tracer.get(), "drg_discovery");
    return BuildDrgByDiscovery(*lake, match, pool.get(), metrics.get());
  }();
  drg.status().Abort("discovering joinability");
  std::printf("discovered DRG: %zu nodes, %zu edges (threshold %.2f)\n",
              drg->num_nodes(), drg->num_edges(), options.threshold);
  {
    auto base_node = drg->NodeId(options.base_table);
    base_node.status().Abort();
    std::vector<size_t> isolated = drg->UnreachableFrom(*base_node);
    if (!isolated.empty()) {
      std::printf("warning: %zu table(s) unreachable from the base table:",
                  isolated.size());
      for (size_t node : isolated) {
        std::printf(" %s", drg->NodeName(node).c_str());
      }
      std::printf("\n");
    }
  }

  AutoFeatConfig config;
  config.tau = options.tau;
  config.kappa = options.kappa;
  config.top_k_paths = options.top_k;
  config.max_hops = options.max_hops;
  config.num_threads = options.threads;
  config.memory_budget_bytes = budget_bytes;
  if (metrics != nullptr) {
    config.metrics_enabled = true;
    config.metrics = metrics.get();
    config.tracer = tracer.get();
  }

  if (options.tune) {
    std::printf("tuning tau/kappa...\n");
    auto tuned = TuneHyperParameters(*lake, *drg, options.base_table,
                                     options.label_column, config);
    tuned.status().Abort("tuning");
    config = tuned->best_config;
    std::printf("tuned: tau=%.2f kappa=%zu (validation accuracy %.3f)\n",
                config.tau, config.kappa, tuned->best_trial.accuracy);
  }

  AutoFeat engine(&*lake, &*drg, config);
  auto result =
      engine.Augment(options.base_table, options.label_column, *model);
  result.status().Abort("augmenting");

  std::printf("\naccuracy (augmented, %s): %.3f\n", options.model.c_str(),
              result->accuracy);
  std::printf("paths explored: %zu | feature selection: %.3f s | total: "
              "%.3f s\n",
              result->discovery.paths_explored,
              result->discovery.feature_selection_seconds,
              result->total_seconds);
  std::printf("best path: %s\n",
              FormatJoinPath(*drg, result->best_path.path).c_str());
  std::printf("selected features:\n");
  for (const auto& fs : result->best_path.selected_features) {
    std::printf("  %-28s %.4f\n", fs.name.c_str(), fs.score);
  }

  if (!options.dot_output.empty()) {
    DotOptions dot_options;
    dot_options.highlight_node = options.base_table;
    dot_options.highlight_path = &result->best_path.path;
    std::ofstream dot_file(options.dot_output);
    dot_file << ExportDrgToDot(*drg, dot_options);
    std::printf("DRG written to %s (render: dot -Tsvg %s -o drg.svg)\n",
                options.dot_output.c_str(), options.dot_output.c_str());
  }

  if (!options.output.empty()) {
    WriteCsvFile(result->augmented, options.output)
        .Abort("writing augmented table");
    std::printf("augmented table written to %s (%zu rows x %zu columns)\n",
                options.output.c_str(), result->augmented.num_rows(),
                result->augmented.num_columns());
  }

  if (metrics != nullptr) {
    obs::RecordProcessPeakRss(metrics.get());
  }
  if (!options.metrics_output.empty()) {
    std::ofstream report_file(options.metrics_output);
    if (!report_file) {
      std::fprintf(stderr, "cannot write metrics report to %s\n",
                   options.metrics_output.c_str());
      return 2;
    }
    report_file << obs::JsonReport(*metrics, tracer.get());
    std::printf("metrics report written to %s (digest %s)\n",
                options.metrics_output.c_str(),
                obs::DeterministicDigest(*metrics, tracer.get()).c_str());
  }
  if (!options.trace_output.empty()) {
    std::ofstream trace_file(options.trace_output);
    if (!trace_file) {
      std::fprintf(stderr, "cannot write trace to %s\n",
                   options.trace_output.c_str());
      return 2;
    }
    trace_file << obs::ChromeTraceJson(*tracer);
    std::printf("trace written to %s (open at https://ui.perfetto.dev)\n",
                options.trace_output.c_str());
  }
  return 0;
}
