// Figure 6: the data-lake setting. KFK metadata is discarded; the DRG is
// discovered by the schema matcher (threshold 0.55), yielding a dense
// multigraph with spurious edges. JoinAll variants are omitted entirely —
// the join-order space explodes (Eq. 3), exactly as in the paper.

#include <cstdio>

#include "harness.h"
#include "util/timer.h"

int main() {
  using namespace autofeat;
  using namespace autofeat::benchx;

  PrintModeBanner("Figure 6: data-lake setting (discovered multigraph)");
  std::vector<ml::ModelKind> models = BenchTreeModels();
  std::printf("evaluation models:");
  for (auto m : models) std::printf(" %s", ml::ModelKindName(m));
  std::printf("\n\n");

  double autofeat_fs_sum = 0, arda_fs_sum = 0, mab_fs_sum = 0;
  double autofeat_acc_sum = 0, arda_acc_sum = 0, mab_acc_sum = 0;
  size_t datasets = 0;

  for (const auto& raw : datagen::PaperDatasets()) {
    datagen::DatasetSpec spec = ScaledSpec(raw);
    datagen::BuiltLake built = datagen::BuildPaperLake(spec, 42);

    Timer discovery_timer;
    auto kfk = BuildSettingDrg(built, Setting::kBenchmark);
    auto drg = BuildSettingDrg(built, Setting::kDataLake);
    drg.status().Abort("schema matching");
    double discovery_seconds = discovery_timer.ElapsedSeconds();

    std::printf("== %s (rows=%zu, KFK edges=%zu, discovered edges=%zu, "
                "discovery %.2fs offline)\n",
                spec.name.c_str(), spec.rows, kfk->num_edges(),
                drg->num_edges(), discovery_seconds);
    PrintMethodHeader();

    auto methods = MakeMethods(/*include_join_all=*/false);
    for (auto& method : methods) {
      auto row = RunMethod(method.get(), built, *drg, models);
      row.status().Abort(method->name().c_str());
      PrintMethodRow(*row);
      if (row->method == "AutoFeat") {
        autofeat_fs_sum += row->fs_seconds;
        autofeat_acc_sum += row->accuracy;
      } else if (row->method == "ARDA") {
        arda_fs_sum += row->fs_seconds;
        arda_acc_sum += row->accuracy;
      } else if (row->method == "MAB") {
        mab_fs_sum += row->fs_seconds;
        mab_acc_sum += row->accuracy;
      }
    }
    std::printf("   best reference accuracy (Table II): %.3f\n\n",
                spec.reference_accuracy);
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
  std::printf("  mean accuracy: AutoFeat %.3f | ARDA %.3f | MAB %.3f\n",
              autofeat_acc_sum / datasets, arda_acc_sum / datasets,
              mab_acc_sum / datasets);
  return 0;
}
