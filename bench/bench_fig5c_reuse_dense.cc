// Figure 5(c): lineage-based reuse of intermediates on DENSE data (§3.1 /
// §4.3). SysDS vs SysDS with reuse for increasing numbers of models k.
// Expected shape (paper): without reuse, time grows linearly in k; with
// reuse, t(X)X and t(X)y are computed once and only the per-lambda solves
// remain, giving a large end-to-end speedup at k=70 (paper: 4.6x).

#include <cstdio>
#include <filesystem>

#include "baselines/baselines.h"
#include "bench/bench_common.h"

int main() {
  using namespace sysds;
  using namespace sysds_bench;
  Scale scale = GetScale();

  std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "sysds_bench_fig5c";
  std::filesystem::create_directories(dir);
  std::string x_csv = (dir / "X.csv").string();
  std::string y_csv = (dir / "y.csv").string();
  std::string out_csv = (dir / "B.csv").string();

  Status gen = GenerateSweepData(scale.rows, scale.cols, /*sparsity=*/1.0,
                                 42, x_csv, y_csv);
  if (!gen.ok()) {
    std::fprintf(stderr, "datagen failed: %s\n", gen.ToString().c_str());
    return 1;
  }

  PrintHeader("Figure 5(c): reuse dense, end-to-end seconds", "k_models",
              {"SysDS", "SysDS+Reuse", "Speedup"});
  for (int k : scale.model_counts) {
    SweepWorkload w;
    w.x_csv = x_csv;
    w.y_csv = y_csv;
    w.out_csv = out_csv;
    for (int i = 0; i < k; ++i) w.lambdas.push_back(0.001 * (i + 1));
    auto base = RunSweepSysDS(w, /*reuse=*/false);
    auto reuse = RunSweepSysDS(w, /*reuse=*/true);
    if (!base.ok() || !reuse.ok()) {
      std::fprintf(stderr, "run failed\n");
      return 1;
    }
    PrintRow(k, {base->total_seconds, reuse->total_seconds,
                 base->total_seconds / reuse->total_seconds});
  }
  std::filesystem::remove_all(dir);
  return 0;
}
