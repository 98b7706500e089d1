#ifndef SYSDS_RUNTIME_MATRIX_LIB_MATMULT_H_
#define SYSDS_RUNTIME_MATRIX_LIB_MATMULT_H_

#include "common/status.h"
#include "runtime/matrix/matrix_block.h"

namespace sysds {

/// C = A %*% B. Dispatches on the input formats (dense/sparse on either
/// side); output rows are computed in parallel chunks. Inputs must satisfy
/// a.Cols() == b.Rows(); violations return InvalidArgument.
StatusOr<MatrixBlock> MatMult(const MatrixBlock& a, const MatrixBlock& b,
                              int num_threads);

/// Fused transpose-self matrix multiply (the `tsmm` operator the compiler
/// rewrites t(X)%*%X into, §4.2): left => t(X)%*%X, otherwise X%*%t(X).
StatusOr<MatrixBlock> TransposeSelfMatMult(const MatrixBlock& x, bool left,
                                           int num_threads);

/// Fused C = t(A) %*% B without materializing t(A) (the `tsmm2`-style fused
/// call the paper notes TF lacks for sparse inputs).
StatusOr<MatrixBlock> TransposeLeftMatMult(const MatrixBlock& a,
                                           const MatrixBlock& b,
                                           int num_threads);

namespace internal {

/// Instruction-set variants of the dense matmult core. Every variant adds
/// the same products in the same order, so results are bit-identical across
/// variants (NaN payloads aside); the public entry points use SelectedIsa().
enum class MatMultIsa {
  kGeneric,
  kAvx2,
  kAvx512,
};

/// True when this host can run `isa` (kGeneric always).
bool IsaSupported(MatMultIsa isa);
/// The widest variant this host supports, chosen on first use.
MatMultIsa SelectedIsa();

/// The dense core. Each adds its products to C in increasing order of the
/// shared dimension, starting from the values already in C.
/// C[m x n] += A[m x k] B[k x n], all row-major.
void GemmDense(const double* a, const double* b, double* c, int64_t m,
               int64_t n, int64_t k, MatMultIsa isa = SelectedIsa());
/// C[n x n] += t(X) X for row-major X[m x n]: every cell on or above the
/// diagonal; cells below it are left unspecified.
void TsmmLeftDense(const double* x, double* c, int64_t m, int64_t n,
                   MatMultIsa isa = SelectedIsa());
/// C[n x l] += t(A) B for row-major A[m x n] and B[m x l].
void TlmmDense(const double* a, const double* b, double* c, int64_t m,
               int64_t n, int64_t l, MatMultIsa isa = SelectedIsa());

}  // namespace internal

}  // namespace sysds

#endif  // SYSDS_RUNTIME_MATRIX_LIB_MATMULT_H_
