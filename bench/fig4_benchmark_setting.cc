// Figure 4: the benchmark setting (KFK snowflake DRG).
//
// Top panel: average runtime with the feature-selection share, per method.
// Bottom panel: accuracy per dataset averaged over the tree-based models;
// bar labels = number of joined tables. JoinAll/JoinAll+F are skipped on
// `school` exactly as the paper does: its star schema with non-1:1 joins
// yields 15! possible join orders (Eq. 3).

#include <cstdio>

#include "harness.h"

int main() {
  using namespace autofeat;
  using namespace autofeat::benchx;

  PrintModeBanner("Figure 4: benchmark setting (KFK snowflake)");
  std::vector<ml::ModelKind> models = BenchTreeModels();
  std::printf("evaluation models:");
  for (auto m : models) std::printf(" %s", ml::ModelKindName(m));
  std::printf("\n\n");

  double autofeat_fs_sum = 0, arda_fs_sum = 0, mab_fs_sum = 0;
  double autofeat_acc_sum = 0, best_other_acc_sum = 0;
  size_t datasets = 0;

  for (const auto& raw : datagen::PaperDatasets()) {
    datagen::DatasetSpec spec = ScaledSpec(raw);
    datagen::BuiltLake built = datagen::BuildPaperLake(spec, 42);
    auto drg = BuildSettingDrg(built, Setting::kBenchmark);
    drg.status().Abort("building KFK DRG");

    size_t base_node = *drg->NodeId(built.base_table);
    double join_all_log10 = drg->JoinAllPathCountLog10(base_node);
    // The paper's criterion: JoinAll is infeasible when the join-order
    // space explodes (school: log10(15!) ~ 12).
    bool join_all_feasible = join_all_log10 < 6.0;

    std::printf("== %s (rows=%zu, tables=%zu, log10 JoinAll paths=%.1f)\n",
                spec.name.c_str(), spec.rows, spec.joinable_tables,
                join_all_log10);
    PrintMethodHeader();

    auto methods = MakeMethods(/*include_join_all=*/join_all_feasible);
    double best_other = 0;
    double autofeat_acc = 0;
    for (auto& method : methods) {
      auto row = RunMethod(method.get(), built, *drg, models);
      row.status().Abort(method->name().c_str());
      PrintMethodRow(*row);
      if (row->method == "AutoFeat") {
        autofeat_fs_sum += row->fs_seconds;
        autofeat_acc = row->accuracy;
      } else if (row->method == "ARDA") {
        arda_fs_sum += row->fs_seconds;
        best_other = std::max(best_other, row->accuracy);
      } else if (row->method == "MAB") {
        mab_fs_sum += row->fs_seconds;
        best_other = std::max(best_other, row->accuracy);
      }
    }
    if (!join_all_feasible) {
      MethodRow skipped;
      skipped.method = "JoinAll";
      skipped.skipped = true;
      skipped.skip_reason = "skipped: join-order explosion (Eq. 3)";
      PrintMethodRow(skipped);
      skipped.method = "JoinAll+F";
      PrintMethodRow(skipped);
    }
    std::printf("   best reference accuracy (Table II): %.3f\n\n",
                spec.reference_accuracy);
    autofeat_acc_sum += autofeat_acc;
    best_other_acc_sum += best_other;
    ++datasets;
  }

  PrintRule();
  std::printf("summary over %zu datasets:\n", datasets);
  // Ratios of wall times move between runs of the same code; the
  // denominator tells how much timer noise one run can carry.
  std::printf("  AutoFeat fs_time summed: %.1f ms (the speedups' "
              "denominator)\n",
              1e3 * autofeat_fs_sum);
  std::printf("  feature-selection speedup vs ARDA: %.1fx\n",
              arda_fs_sum / autofeat_fs_sum);
  std::printf("  feature-selection speedup vs MAB : %.1fx\n",
              mab_fs_sum / autofeat_fs_sum);
  std::printf("  mean accuracy AutoFeat %.3f vs best(ARDA, MAB) %.3f "
              "(+%.1f%%)\n",
              autofeat_acc_sum / datasets, best_other_acc_sum / datasets,
              100.0 * (autofeat_acc_sum - best_other_acc_sum) /
                  best_other_acc_sum);
  return 0;
}
