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

// One eager sweep: read X and y (read_threads 1: sequential parse, 0: the
// system's parallel reader), compute t(X)X and t(X)y per model with the
// given kernels (no cross-model reuse), solve, and write all models to one
// CSV.
template <typename Tsmm, typename Tlmm>
StatusOr<SweepTimings> RunEagerSweep(const SweepWorkload& workload,
                                     int read_threads, Tsmm tsmm, Tlmm tlmm) {
  SweepTimings t;
  Timer total;
  Timer io;
  FormatDescriptor csv = FormatDescriptor::Csv(',', false, read_threads);
  SYSDS_ASSIGN_OR_RETURN(MatrixBlock x, io::Read(workload.x_csv, csv));
  SYSDS_ASSIGN_OR_RETURN(MatrixBlock y, io::Read(workload.y_csv, csv));
  t.io_seconds = io.ElapsedSeconds();

  int threads = DefaultParallelism();
  std::vector<MatrixBlock> models;
  models.reserve(workload.lambdas.size());
  for (double lambda : workload.lambdas) {
    SYSDS_ASSIGN_OR_RETURN(MatrixBlock xtx, tsmm(x, threads));
    SYSDS_ASSIGN_OR_RETURN(MatrixBlock xty, tlmm(x, y, threads));
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
  // Julia's X'X dispatches to fused native kernels (no materialized
  // transpose), but recomputes per model.
  return RunEagerSweep(
      workload, /*read_threads=*/1,
      [](const MatrixBlock& x, int threads) {
        return TransposeSelfMatMult(x, /*left=*/true, threads);
      },
      TransposeLeftMatMult);
}

StatusOr<SweepTimings> RunSweepSysDSPortable(const SweepWorkload& workload) {
  return RunEagerSweep(workload, /*read_threads=*/0, PortableTsmm,
                       PortableTlmm);
}

StatusOr<SweepTimings> RunSweepSysDS(const SweepWorkload& workload,
                                     bool reuse) {
  SweepTimings t;
  Timer total;

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
  if (!result.ok()) return result.status();
  t.total_seconds = total.ElapsedSeconds();
  t.matmults = 2 * static_cast<int64_t>(workload.lambdas.size());
  return t;
}

void PortableGemm(const double* a, const double* b, double* c, int64_t m,
                  int64_t n, int64_t k) {
  for (int64_t i = 0; i < m; ++i) {
    const double* arow = a + i * k;
    double* crow = c + i * n;
    for (int64_t j = 0; j < n; ++j) {
      double sum = 0.0;
      for (int64_t l = 0; l < k; ++l) sum += arow[l] * b[l * n + j];
      crow[j] = sum;
    }
  }
}

StatusOr<MatrixBlock> PortableTsmm(const MatrixBlock& x, int num_threads) {
  if (x.IsSparse()) return InvalidArgument("portable tsmm needs a dense X");
  int64_t m = x.Rows(), n = x.Cols();
  MatrixBlock c = MatrixBlock::Dense(n, n);
  const double* px = x.DenseData();
  double* pc = c.DenseData();
  // Column p costs ~(n - p) cells of the upper triangle.
  ThreadPool::Global().ParallelForWeighted(
      0, n, PickChunks(n), [n](int64_t p) { return n - p; },
      [&](int64_t pb, int64_t pe, int64_t) {
        for (int64_t p = pb; p < pe; ++p) {
          for (int64_t q = p; q < n; ++q) {
            double sum = 0.0;
            for (int64_t i = 0; i < m; ++i) {
              sum += px[i * n + p] * px[i * n + q];
            }
            pc[p * n + q] = sum;
          }
        }
      },
      nullptr, num_threads);
  // Mirror the upper triangle; row i writes only its cells [0, i).
  ThreadPool::Global().ParallelFor(
      0, n, PickChunks(n),
      [&](int64_t rb, int64_t re) {
        for (int64_t i = rb; i < re; ++i) {
          for (int64_t j = 0; j < i; ++j) pc[i * n + j] = pc[j * n + i];
        }
      },
      nullptr, num_threads);
  c.MarkNnzDirty();
  c.ExamSparsity();
  return c;
}

StatusOr<MatrixBlock> PortableTlmm(const MatrixBlock& a, const MatrixBlock& b,
                                   int num_threads) {
  if (a.IsSparse() || b.IsSparse()) {
    return InvalidArgument("portable t(A)%*%B needs dense A and B");
  }
  if (a.Rows() != b.Rows()) {
    return InvalidArgument("t(A)%*%B dimension mismatch: " +
                           std::to_string(a.Rows()) + " vs " +
                           std::to_string(b.Rows()));
  }
  int64_t m = a.Rows(), n = a.Cols(), l = b.Cols();
  MatrixBlock c = MatrixBlock::Dense(n, l);
  const double* pa = a.DenseData();
  const double* pb = b.DenseData();
  double* pc = c.DenseData();
  ThreadPool::Global().ParallelFor(
      0, n, PickChunks(n),
      [&](int64_t qb, int64_t qe) {
        for (int64_t p = qb; p < qe; ++p) {
          for (int64_t q = 0; q < l; ++q) {
            double sum = 0.0;
            for (int64_t i = 0; i < m; ++i) {
              sum += pa[i * n + p] * pb[i * l + q];
            }
            pc[p * l + q] = sum;
          }
        }
      },
      nullptr, num_threads);
  c.MarkNnzDirty();
  c.ExamSparsity();
  return c;
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
