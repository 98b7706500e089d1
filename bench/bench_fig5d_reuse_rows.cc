// Figure 5(d): lineage-based reuse on SPARSE data (sparsity 0.1) for a
// fixed k and increasing nrow(X). Expected shape (paper): the larger the
// input, the higher the improvement — the reused intermediates t(X)X and
// t(X)y have sizes independent of the number of rows, so with reuse the
// runtime becomes nearly flat in nrow apart from I/O.

#include <cstdio>
#include <filesystem>

#include "baselines/baselines.h"
#include "bench/bench_common.h"

int main() {
  using namespace sysds;
  using namespace sysds_bench;
  Scale scale = GetScale();
  const int k = scale.model_counts.back();
  // The reused intermediates are cols x cols; a wider X (paper: 1K columns)
  // keeps compute, not I/O, dominant so the row-scaling effect is visible.
  const int64_t cols = scale.cols * 4;

  PrintHeader(
      "Figure 5(d): reuse sparse (sparsity=0.1), end-to-end seconds",
      "nrow", {"SysDS", "SysDS+Reuse", "Speedup"});
  for (int64_t rows : scale.row_counts) {
    std::filesystem::path dir =
        std::filesystem::temp_directory_path() / "sysds_bench_fig5d";
    std::filesystem::create_directories(dir);
    std::string x_csv = (dir / "X.csv").string();
    std::string y_csv = (dir / "y.csv").string();
    std::string out_csv = (dir / "B.csv").string();
    Status gen = GenerateSweepData(rows, cols, /*sparsity=*/0.1, 42,
                                   x_csv, y_csv);
    if (!gen.ok()) {
      std::fprintf(stderr, "datagen failed: %s\n", gen.ToString().c_str());
      return 1;
    }
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
    PrintRow(static_cast<double>(rows),
             {base->total_seconds, reuse->total_seconds,
              base->total_seconds / reuse->total_seconds});
    std::filesystem::remove_all(dir);
  }
  return 0;
}
