// Ablation A5 (§2.3(4)): the task-parallel parfor backend (hyper-parameter
// tuning / cross validation) and the parameter server (mini-batch
// training) with BSP vs ASP update protocols.

#include <cstdio>

#include "api/systemds_context.h"
#include "bench/bench_common.h"
#include "common/thread_pool.h"
#include "common/util.h"
#include "runtime/matrix/lib_datagen.h"
#include "runtime/matrix/lib_matmult.h"
#include "runtime/ps/param_server.h"

using namespace sysds;

int main() {
  using namespace sysds_bench;
  Scale scale = GetScale();

  // (1) parfor vs for on a grid of model trainings.
  {
    std::string head =
        "X = rand(rows=" + std::to_string(scale.rows / 2) +
        ", cols=" + std::to_string(scale.cols / 2) + ", seed=1)\n"
        "y = rand(rows=" + std::to_string(scale.rows / 2) +
        ", cols=1, seed=2)\n"
        "R = matrix(0, 8, 1)\n";
    std::string body =
        " (i in 1:8) {\n"
        "  B = lmDS(X, y, 0, 0.001 * i)\n"
        "  r = X %*% B - y\n"
        "  R[i, 1] = sum(r^2)\n"
        "}\n";
    std::printf("# A5.1 parfor backend (8 model trainings, %d threads)\n",
                DefaultParallelism());
    for (const char* kind : {"for", "parfor"}) {
      SystemDSContext ctx;
      Timer t;
      auto r = ctx.Execute(head + kind + body, Inputs(), Outputs("R"));
      if (!r.ok()) {
        std::fprintf(stderr, "error: %s\n", r.status().ToString().c_str());
        return 1;
      }
      std::printf("%-10s%14.4f s\n", kind, t.ElapsedSeconds());
    }
  }

  // (2) Parameter server: BSP vs ASP convergence/time.
  {
    int64_t n = scale.rows, m = std::min<int64_t>(scale.cols, 32);
    auto x = RandMatrix(n, m, 0.0, 1.0, 1.0, 3, RandPdf::kUniform, 1);
    auto w = RandMatrix(m, 1, -1.0, 1.0, 1.0, 4, RandPdf::kUniform, 1);
    auto y = MatMult(*x, *w, 1);
    std::printf("\n# A5.2 parameter server (linreg, %lld x %lld)\n",
                static_cast<long long>(n), static_cast<long long>(m));
    std::printf("%-8s%10s%14s%14s%10s\n", "mode", "workers", "seconds",
                "final_loss", "pushes");
    for (PsUpdateMode mode : {PsUpdateMode::kBSP, PsUpdateMode::kASP}) {
      for (int workers : {1, 4}) {
        PsConfig config;
        config.mode = mode;
        config.num_workers = workers;
        config.epochs = 3;
        config.batch_size = 64;
        config.learning_rate = 0.05;
        Timer t;
        auto result = PsTrain(*x, *y, config);
        if (!result.ok()) {
          std::fprintf(stderr, "ps failed: %s\n",
                       result.status().ToString().c_str());
          return 1;
        }
        std::printf("%-8s%10d%14.4f%14.6f%10lld\n",
                    mode == PsUpdateMode::kBSP ? "BSP" : "ASP", workers,
                    t.ElapsedSeconds(), result->final_loss,
                    static_cast<long long>(result->pushes));
      }
    }
  }
  return 0;
}
