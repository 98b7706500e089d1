#ifndef SYSDS_BASELINES_BASELINES_H_
#define SYSDS_BASELINES_BASELINES_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "runtime/matrix/matrix_block.h"

namespace sysds {

/// The evaluation workload of the paper (§4.1): read X and y from CSV,
/// train k ridge-regression models B_i = solve(t(X)X + lambda_i I, t(X)y)
/// (lmDS), and write all models to a single CSV.
struct SweepWorkload {
  std::string x_csv;
  std::string y_csv;
  std::vector<double> lambdas;
  std::string out_csv;
};

struct SweepTimings {
  double total_seconds = 0.0;
  double io_seconds = 0.0;
  int64_t matmults = 0;     // number of large matrix multiplies executed
  int64_t transposes = 0;   // number of materialized transposes
};

/// TensorFlow-1.x-style baseline (§4.2). Eager mode (graph_mode=false):
/// per-model execution; for sparse inputs every model pays a materialized
/// transpose because the sparse-dense matmul lacks a fused t(X)%*%X call
/// (dense uses the fused call, matching the paper's manually rewritten
/// script). Graph mode (TF-G, graph_mode=true): one graph for the whole
/// sweep — the transpose is a common subexpression executed once, but the
/// per-model matrix multiplies remain (the paper's observation 4: none of
/// the baselines eliminates the redundant matmuls). Single-threaded CSV
/// parsing (observation 1).
StatusOr<SweepTimings> RunSweepTF(const SweepWorkload& workload,
                                  bool graph_mode);

/// Julia-style baseline: best-in-class native eager kernels with fused
/// t(X)%*%X / t(X)%*%y dispatch, no cross-model reuse, single-threaded CSV
/// parse.
StatusOr<SweepTimings> RunSweepJulia(const SweepWorkload& workload);

/// SystemDS execution of the same workload through the DML stack
/// (hyper-parameter sweep script using lmDS) on the system's dense matmult
/// core (the paper's SysDS-B); `reuse` enables lineage-based reuse of
/// intermediates.
StatusOr<SweepTimings> RunSweepSysDS(const SweepWorkload& workload,
                                     bool reuse);

/// Fig. 5(a)'s "SysDS" column: an eager stand-in for SystemDS on its
/// portable (Java) kernel. It reads the CSVs with the system's parallel
/// reader, as SysDS-B does, and computes t(X)X and t(X)y per model with
/// PortableTsmm and PortableTlmm. It runs eagerly (built like the Julia
/// stand-in), so it also skips SysDS-B's DML compile and dispatch.
StatusOr<SweepTimings> RunSweepSysDSPortable(const SweepWorkload& workload);

/// The portable kernels: straightforward dot-product-ordered loop nests
/// without tiling or SIMD, standing in for SystemDS's Java matmult, which
/// "does not compile packed SIMD instructions" (§4.2).
///
/// C[m x n] = A[m x k] B[k x n], row-major, as per-cell dot products.
void PortableGemm(const double* a, const double* b, double* c, int64_t m,
                  int64_t n, int64_t k);
/// t(X) %*% X for dense X: per-cell dot products over column-strided
/// accesses, column-parallel on the global pool.
StatusOr<MatrixBlock> PortableTsmm(const MatrixBlock& x, int num_threads);
/// t(A) %*% B for dense A and B, column-parallel like PortableTsmm.
StatusOr<MatrixBlock> PortableTlmm(const MatrixBlock& a, const MatrixBlock& b,
                                   int num_threads);

/// Generates and writes the synthetic sweep inputs (dense or sparse X with
/// the given sparsity; y = X w + noise), returning the lambda grid.
Status GenerateSweepData(int64_t rows, int64_t cols, double sparsity,
                         uint64_t seed, const std::string& x_csv,
                         const std::string& y_csv);

}  // namespace sysds

#endif  // SYSDS_BASELINES_BASELINES_H_
