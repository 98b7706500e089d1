// Figure 5(a): baseline comparison on DENSE data. End-to-end runtime
// (including CSV I/O) of the hyper-parameter sweep — k ridge models over a
// dense X — for TF (eager), TF-G (single graph), Julia (native eager
// kernels), SysDS (an eager stand-in on the portable kernels of
// bench/baselines, reading with the system's parallel CSV reader), and
// SysDS-B (the DML script on the system's dense matmult core). Expected
// shape (paper): SysDS-B <= Julia < SysDS < TF ~ TF-G; all grow linearly in
// k because none of the baselines eliminates the redundant t(X)X / t(X)y
// across models.
//
// Exits non-zero when a sweep fails or when the SysDS and SysDS-B models
// differ by more than 1e-9 in any cell. `--smoke` runs it at tiny scale.

#include <cstdio>
#include <filesystem>

#include "baselines/baselines.h"
#include "bench/bench_common.h"
#include "io/io.h"

int main(int argc, char** argv) {
  using namespace sysds;
  using namespace sysds_bench;
  ApplySmokeFlag(argc, argv);
  Scale scale = GetScale();

  std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "sysds_bench_fig5a";
  std::filesystem::create_directories(dir);
  std::string x_csv = (dir / "X.csv").string();
  std::string y_csv = (dir / "y.csv").string();
  std::string out_csv = (dir / "B.csv").string();
  std::string portable_csv = (dir / "B_sysds.csv").string();
  std::string native_csv = (dir / "B_sysds_b.csv").string();

  Status gen = GenerateSweepData(scale.rows, scale.cols, /*sparsity=*/1.0,
                                 42, x_csv, y_csv);
  if (!gen.ok()) {
    std::fprintf(stderr, "datagen failed: %s\n", gen.ToString().c_str());
    return 1;
  }

  PrintHeader("Figure 5(a): baselines dense, end-to-end seconds incl. I/O",
              "k_models", {"TF", "TF-G", "Julia", "SysDS", "SysDS-B"});
  bool failed = false;
  for (int k : scale.model_counts) {
    SweepWorkload w;
    w.x_csv = x_csv;
    w.y_csv = y_csv;
    w.out_csv = out_csv;
    for (int i = 0; i < k; ++i) {
      w.lambdas.push_back(0.001 * (i + 1));
    }
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
    w.out_csv = portable_csv;
    record(RunSweepSysDSPortable(w));
    w.out_csv = native_csv;
    record(RunSweepSysDS(w, /*reuse=*/false));
    PrintRow(k, row);

    auto portable = io::Read(portable_csv, FormatDescriptor::Csv());
    auto native = io::Read(native_csv, FormatDescriptor::Csv());
    if (!portable.ok() || !native.ok() ||
        !portable->EqualsApprox(*native, 1e-9)) {
      std::fprintf(stderr,
                   "k=%d: SysDS and SysDS-B models differ or are missing\n",
                   k);
      failed = true;
    }
  }
  std::filesystem::remove_all(dir);
  return failed ? 1 : 0;
}
