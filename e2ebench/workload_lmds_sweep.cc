// lmds_sweep: the paper's headline workload (Figure 5): a loop over k
// regularization values, each training a closed-form linear model with
// lmDS on the same dense X. Reuse is off, so t(X) %*% X is recomputed per
// lambda and the tsmm kernel dominates.
#include <cmath>
#include <cstdio>

#include "checks.h"
#include "runtime/matrix/lib_matmult.h"
#include "workloads.h"

namespace e2ebench {

namespace {

constexpr int64_t kRows = 20000;
constexpr int64_t kCols = 200;
constexpr int64_t kLambdas = 16;
constexpr double kMaxResidual = 1e-8;
constexpr int kTsmmRepeats = 3;

const char* kScript = R"dml(
B = matrix(0, ncol(X), nrow(L))
for (i in 1:nrow(L)) {
  Bi = lmDS(X, y, 0, as.scalar(L[i, 1]))
  B[, i] = Bi
}
)dml";

struct SweepData {
  sysds::MatrixBlock x;
  sysds::MatrixBlock y;
  sysds::MatrixBlock lambdas;
  NormalEquations reference;
};

}  // namespace

std::unique_ptr<ScriptWorkload> SetupLmdsSweep(const RunArgs& args) {
  auto data = std::make_shared<SweepData>();
  Rng rng(StreamSeed(args.seed, 1));
  data->x = sysds::MatrixBlock::Dense(kRows, kCols);
  double* x = data->x.DenseData();
  for (int64_t i = 0; i < kRows * kCols; ++i) x[i] = rng.Normal();
  data->x.MarkNnzDirty();
  std::vector<double> w(kCols);
  for (double& v : w) v = rng.Normal();
  data->y = sysds::MatrixBlock::Dense(kRows, 1);
  for (int64_t r = 0; r < kRows; ++r) {
    double acc = 0.1 * rng.Normal();
    for (int64_t c = 0; c < kCols; ++c) acc += x[r * kCols + c] * w[c];
    data->y.DenseData()[r] = acc;
  }
  data->y.MarkNnzDirty();
  data->lambdas = sysds::MatrixBlock::Dense(kLambdas, 1);
  for (int64_t i = 0; i < kLambdas; ++i) {
    // Log-spaced over [1e-3, 1e2].
    data->lambdas.DenseData()[i] =
        std::pow(10.0, -3.0 + 5.0 * static_cast<double>(i) / (kLambdas - 1));
  }
  data->lambdas.MarkNnzDirty();

  auto w_out = std::make_unique<ScriptWorkload>();
  w_out->script = kScript;
  sysds::SymbolInfo xi{sysds::DataType::kMatrix, sysds::ValueType::kFP64,
                       kRows, kCols, kRows * kCols};
  sysds::SymbolInfo yi{sysds::DataType::kMatrix, sysds::ValueType::kFP64,
                       kRows, 1, kRows};
  sysds::SymbolInfo li{sysds::DataType::kMatrix, sysds::ValueType::kFP64,
                       kLambdas, 1, kLambdas};
  w_out->input_infos = {{"X", xi}, {"y", yi}, {"L", li}};
  w_out->outputs = {"B"};
  const int threads = sysds::DefaultParallelism();
  w_out->make_context = [threads] {
    return sysds::SystemDSContext::Builder().NumThreads(threads).Build();
  };
  w_out->make_inputs = [data] {
    return sysds::Inputs()
        .Matrix("X", data->x)
        .Matrix("y", data->y)
        .Matrix("L", data->lambdas);
  };
  w_out->check = [data](const sysds::ScriptResult& r) -> std::string {
    auto b = r.GetMatrix("B");
    if (!b.ok()) return "lmds_sweep: no B: " + b.status().ToString();
    if (b->Rows() != kCols || b->Cols() != kLambdas) {
      return "lmds_sweep: B has wrong shape";
    }
    if (data->reference.m == 0) {
      data->reference = ComputeNormalEquations(
          data->x.DenseData(), data->y.DenseData(), kRows, kCols);
    }
    std::vector<double> beta(kCols);
    for (int64_t k = 0; k < kLambdas; ++k) {
      for (int64_t c = 0; c < kCols; ++c) beta[c] = b->Get(c, k);
      double res = NormalEquationResidual(data->reference, beta.data(),
                                          data->lambdas.DenseData()[k]);
      if (!(res <= kMaxResidual)) {
        char buf[128];
        std::snprintf(buf, sizeof(buf),
                      "lmds_sweep: lambda %lld residual %.3g", (long long)k,
                      res);
        return buf;
      }
    }
    return "";
  };
  w_out->probe_layers = [data, threads](Report& report) {
    std::vector<double> secs;
    for (int i = 0; i < kTsmmRepeats; ++i) {
      report.Attempt();
      double t0 = NowSeconds();
      auto g = sysds::TransposeSelfMatMult(data->x, /*left=*/true, threads);
      secs.push_back(NowSeconds() - t0);
      if (!g.ok()) report.Fail("tsmm: " + g.status().ToString());
    }
    // Upper triangle of t(X) X: rows * cols * (cols + 1) / 2 multiply-adds.
    double flops = static_cast<double>(kRows) * kCols * (kCols + 1);
    double gflops = flops / Median(secs) / 1e9;
    report.Set("kernel.tsmm_gflops", gflops);
    double peak = report.Get("host.peak_gflops");
    report.Set("kernel.tsmm_peak_frac", peak > 0 ? gflops / peak : 0.0);
  };
  return w_out;
}

}  // namespace e2ebench
