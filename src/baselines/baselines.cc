#include "baselines/baselines.h"

#include <sstream>

#include "api/systemds_context.h"
#include "common/thread_pool.h"
#include "common/util.h"
#include "io/io.h"
#include "runtime/matrix/lib_datagen.h"
#include "runtime/matrix/lib_elementwise.h"
#include "runtime/matrix/lib_matmult.h"
#include "runtime/matrix/lib_reorg.h"
#include "runtime/matrix/lib_solve.h"
#include "runtime/matrix/op_codes.h"

namespace sysds {

namespace {

// Single-threaded CSV read (the TF/Julia baselines parse sequentially;
// string-to-double parsing is compute-intensive, §4.2 observation 1).
StatusOr<MatrixBlock> ReadCsvSingleThreaded(const std::string& path) {
  return io::Read(path, FormatDescriptor::Csv(',', false, 1));
}

Status WriteModels(const std::vector<MatrixBlock>& models,
                   const std::string& path) {
  if (models.empty()) return Status::Ok();
  std::vector<const MatrixBlock*> ptrs;
  ptrs.reserve(models.size());
  for (const MatrixBlock& m : models) ptrs.push_back(&m);
  SYSDS_ASSIGN_OR_RETURN(MatrixBlock all, CBind(ptrs));
  return io::Write(all, path, FormatDescriptor::Csv());
}

StatusOr<MatrixBlock> RidgeSolve(const MatrixBlock& xtx,
                                 const MatrixBlock& xty, double lambda) {
  MatrixBlock a = xtx;
  a.ToDense();
  for (int64_t i = 0; i < a.Rows(); ++i) a.DenseRow(i)[i] += lambda;
  a.MarkNnzDirty();
  return Solve(a, xty);
}

}  // namespace

StatusOr<SweepTimings> RunSweepTF(const SweepWorkload& workload,
                                  bool graph_mode) {
  SweepTimings t;
  Timer total;
  Timer io;
  SYSDS_ASSIGN_OR_RETURN(MatrixBlock x, ReadCsvSingleThreaded(workload.x_csv));
  SYSDS_ASSIGN_OR_RETURN(MatrixBlock y, ReadCsvSingleThreaded(workload.y_csv));
  t.io_seconds = io.ElapsedSeconds();

  int threads = DefaultParallelism();
  std::vector<MatrixBlock> models;
  models.reserve(workload.lambdas.size());

  if (!x.IsSparse()) {
    // Dense: the fused matmul call (manually rewritten script) — but still
    // one t(X)X and t(X)y pair PER MODEL; graph mode changes nothing for
    // dense since no transpose is materialized.
    for (double lambda : workload.lambdas) {
      SYSDS_ASSIGN_OR_RETURN(MatrixBlock xtx,
                             TransposeSelfMatMult(x, true, threads));
      SYSDS_ASSIGN_OR_RETURN(MatrixBlock xty,
                             TransposeLeftMatMult(x, y, threads));
      t.matmults += 2;
      SYSDS_ASSIGN_OR_RETURN(MatrixBlock b, RidgeSolve(xtx, xty, lambda));
      models.push_back(std::move(b));
    }
  } else if (graph_mode) {
    // TF-G sparse: the transpose is a common subexpression of the single
    // graph and executes once; the matmuls remain per model.
    MatrixBlock xt = Transpose(x, threads);
    t.transposes += 1;
    for (double lambda : workload.lambdas) {
      SYSDS_ASSIGN_OR_RETURN(MatrixBlock xtx, MatMult(xt, x, threads));
      SYSDS_ASSIGN_OR_RETURN(MatrixBlock xty, MatMult(xt, y, threads));
      t.matmults += 2;
      SYSDS_ASSIGN_OR_RETURN(MatrixBlock b, RidgeSolve(xtx, xty, lambda));
      models.push_back(std::move(b));
    }
  } else {
    // TF eager sparse: no fused sparse t(X)%*%X call — a materialized
    // transpose per model.
    for (double lambda : workload.lambdas) {
      MatrixBlock xt = Transpose(x, threads);
      t.transposes += 1;
      SYSDS_ASSIGN_OR_RETURN(MatrixBlock xtx, MatMult(xt, x, threads));
      SYSDS_ASSIGN_OR_RETURN(MatrixBlock xty, MatMult(xt, y, threads));
      t.matmults += 2;
      SYSDS_ASSIGN_OR_RETURN(MatrixBlock b, RidgeSolve(xtx, xty, lambda));
      models.push_back(std::move(b));
    }
  }
  Timer io2;
  SYSDS_RETURN_IF_ERROR(WriteModels(models, workload.out_csv));
  t.io_seconds += io2.ElapsedSeconds();
  t.total_seconds = total.ElapsedSeconds();
  return t;
}

StatusOr<SweepTimings> RunSweepJulia(const SweepWorkload& workload) {
  SweepTimings t;
  Timer total;
  Timer io;
  SYSDS_ASSIGN_OR_RETURN(MatrixBlock x, ReadCsvSingleThreaded(workload.x_csv));
  SYSDS_ASSIGN_OR_RETURN(MatrixBlock y, ReadCsvSingleThreaded(workload.y_csv));
  t.io_seconds = io.ElapsedSeconds();

  int threads = DefaultParallelism();
  std::vector<MatrixBlock> models;
  models.reserve(workload.lambdas.size());
  // Julia's X'X dispatches to fused native kernels (no materialized
  // transpose), but recomputes per model.
  for (double lambda : workload.lambdas) {
    SYSDS_ASSIGN_OR_RETURN(MatrixBlock xtx,
                           TransposeSelfMatMult(x, true, threads));
    SYSDS_ASSIGN_OR_RETURN(MatrixBlock xty,
                           TransposeLeftMatMult(x, y, threads));
    t.matmults += 2;
    SYSDS_ASSIGN_OR_RETURN(MatrixBlock b, RidgeSolve(xtx, xty, lambda));
    models.push_back(std::move(b));
  }
  Timer io2;
  SYSDS_RETURN_IF_ERROR(WriteModels(models, workload.out_csv));
  t.io_seconds += io2.ElapsedSeconds();
  t.total_seconds = total.ElapsedSeconds();
  return t;
}

StatusOr<SweepTimings> RunSweepSysDS(const SweepWorkload& workload,
                                     bool native_blas, bool reuse) {
  SweepTimings t;
  Timer total;
  GemmKernel prev = GetGemmKernel();
  SetGemmKernel(native_blas ? GemmKernel::kNative : GemmKernel::kPortable);

  DMLConfig config;
  config.reuse_policy = reuse ? ReusePolicy::kPartial : ReusePolicy::kNone;
  config.lineage_tracing = reuse;
  SystemDSContext ctx(config);

  // The hyper-parameter optimization script of §4.1, on top of the lmDS
  // DML-bodied builtin.
  std::ostringstream lambdas;
  lambdas << workload.lambdas.size();
  std::ostringstream lamvals;
  for (size_t i = 0; i < workload.lambdas.size(); ++i) {
    if (i > 0) lamvals << " ";
    lamvals << workload.lambdas[i];
  }
  std::string script =
      "X = read('" + workload.x_csv + "')\n"
      "y = read('" + workload.y_csv + "')\n"
      "lambdas = matrix(\"" + lamvals.str() + "\", " + lambdas.str() +
      ", 1)\n"
      "k = nrow(lambdas)\n"
      "B = matrix(0, ncol(X), k)\n"
      "for (i in 1:k) {\n"
      "  reg = as.scalar(lambdas[i, 1])\n"
      "  B[, i] = lmDS(X, y, 0, reg)\n"
      "}\n"
      "write(B, '" + workload.out_csv + "')\n";
  auto result = ctx.Execute(script, Inputs(), Outputs::None());
  SetGemmKernel(prev);
  if (!result.ok()) return result.status();
  t.total_seconds = total.ElapsedSeconds();
  t.matmults = 2 * static_cast<int64_t>(workload.lambdas.size());
  return t;
}

Status GenerateSweepData(int64_t rows, int64_t cols, double sparsity,
                         uint64_t seed, const std::string& x_csv,
                         const std::string& y_csv) {
  SYSDS_ASSIGN_OR_RETURN(
      MatrixBlock x,
      RandMatrix(rows, cols, 0.0, 1.0, sparsity, seed, RandPdf::kUniform,
                 DefaultParallelism()));
  SYSDS_ASSIGN_OR_RETURN(
      MatrixBlock w,
      RandMatrix(cols, 1, -1.0, 1.0, 1.0, seed + 1, RandPdf::kUniform, 1));
  SYSDS_ASSIGN_OR_RETURN(MatrixBlock y,
                         MatMult(x, w, DefaultParallelism()));
  SYSDS_ASSIGN_OR_RETURN(
      MatrixBlock noise,
      RandMatrix(rows, 1, -0.01, 0.01, 1.0, seed + 2, RandPdf::kUniform, 1));
  SYSDS_ASSIGN_OR_RETURN(
      y, BinaryMatrixMatrix(BinaryOpCode::kAdd, y, noise, 0));
  SYSDS_RETURN_IF_ERROR(io::Write(x, x_csv, FormatDescriptor::Csv()));
  return io::Write(y, y_csv, FormatDescriptor::Csv());
}

}  // namespace sysds
