// Figure 5(b): baseline comparison on SPARSE data (sparsity 0.1). Expected
// shape (paper): SysDS largely outperforms Julia and TF; TF pays a
// materialized transpose per model (its sparse-dense matmul lacks a fused
// call) while TF-G executes the transpose only once. Exits non-zero when a
// sweep fails.

#include <cstdio>
#include <filesystem>

#include "baselines/baselines.h"
#include "bench/bench_common.h"

int main() {
  using namespace sysds;
  using namespace sysds_bench;
  Scale scale = GetScale();

  std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "sysds_bench_fig5b";
  std::filesystem::create_directories(dir);
  std::string x_csv = (dir / "X.csv").string();
  std::string y_csv = (dir / "y.csv").string();
  std::string out_csv = (dir / "B.csv").string();

  Status gen = GenerateSweepData(scale.rows, scale.cols, /*sparsity=*/0.1,
                                 42, x_csv, y_csv);
  if (!gen.ok()) {
    std::fprintf(stderr, "datagen failed: %s\n", gen.ToString().c_str());
    return 1;
  }

  PrintHeader(
      "Figure 5(b): baselines sparse (sparsity=0.1), end-to-end seconds",
      "k_models", {"TF", "TF-G", "Julia", "SysDS"});
  bool failed = false;
  for (int k : scale.model_counts) {
    SweepWorkload w;
    w.x_csv = x_csv;
    w.y_csv = y_csv;
    w.out_csv = out_csv;
    for (int i = 0; i < k; ++i) w.lambdas.push_back(0.001 * (i + 1));
    std::vector<double> row;
    auto record = [&](StatusOr<SweepTimings> t) {
      if (!t.ok()) {
        std::fprintf(stderr, "run failed: %s\n",
                     t.status().ToString().c_str());
        failed = true;
        row.push_back(-1);
      } else {
        row.push_back(t->total_seconds);
      }
    };
    record(RunSweepTF(w, /*graph_mode=*/false));
    record(RunSweepTF(w, /*graph_mode=*/true));
    record(RunSweepJulia(w));
    record(RunSweepSysDS(w, /*reuse=*/false));
    PrintRow(k, row);
  }
  std::filesystem::remove_all(dir);
  return failed ? 1 : 0;
}
