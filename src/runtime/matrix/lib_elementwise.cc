#include "runtime/matrix/lib_elementwise.h"

#include <algorithm>
#include <atomic>

#include "common/thread_pool.h"

namespace sysds {

namespace {

enum class BroadcastKind { kNone, kColVector, kRowVector };

// Determines how b broadcasts against a; returns false on incompatibility.
bool ResolveBroadcast(const MatrixBlock& a, const MatrixBlock& b,
                      BroadcastKind* kind) {
  if (a.Rows() == b.Rows() && a.Cols() == b.Cols()) {
    *kind = BroadcastKind::kNone;
    return true;
  }
  if (b.Rows() == a.Rows() && b.Cols() == 1) {
    *kind = BroadcastKind::kColVector;
    return true;
  }
  if (b.Rows() == 1 && b.Cols() == a.Cols()) {
    *kind = BroadcastKind::kRowVector;
    return true;
  }
  return false;
}

// Counts nonzeros in a freshly written dense row while it is still hot in
// cache, so result blocks can use ExamSparsity(known_nnz) instead of a
// second full-matrix scan.
int64_t CountRowNnz(const double* row, int64_t cols) {
  int64_t nnz = 0;
  for (int64_t j = 0; j < cols; ++j) nnz += (row[j] != 0.0);
  return nnz;
}

// Sparse-sparse multiply: intersect rows (the only fully sparse-safe op).
MatrixBlock SparseSparseMul(const MatrixBlock& a, const MatrixBlock& b) {
  MatrixBlock c = MatrixBlock::Sparse(a.Rows(), a.Cols());
  for (int64_t r = 0; r < a.Rows(); ++r) {
    const SparseRow& ra = a.SparseData().Row(r);
    const SparseRow& rb = b.SparseData().Row(r);
    SparseRow& rc = c.SparseData().Row(r);
    int64_t p = 0, q = 0;
    while (p < ra.Size() && q < rb.Size()) {
      int64_t ca = ra.Indexes()[p], cb = rb.Indexes()[q];
      if (ca == cb) {
        double v = ra.Values()[p++] * rb.Values()[q++];
        if (v != 0.0) rc.Append(ca, v);
      } else if (ca < cb) {
        ++p;
      } else {
        ++q;
      }
    }
  }
  c.MarkNnzDirty();
  return c;
}

// Sparse-sparse add/sub: union-merge rows.
MatrixBlock SparseSparseAddSub(BinaryOpCode op, const MatrixBlock& a,
                               const MatrixBlock& b) {
  MatrixBlock c = MatrixBlock::Sparse(a.Rows(), a.Cols());
  double sign = (op == BinaryOpCode::kSub) ? -1.0 : 1.0;
  for (int64_t r = 0; r < a.Rows(); ++r) {
    const SparseRow& ra = a.SparseData().Row(r);
    const SparseRow& rb = b.SparseData().Row(r);
    SparseRow& rc = c.SparseData().Row(r);
    int64_t p = 0, q = 0;
    while (p < ra.Size() || q < rb.Size()) {
      int64_t ca = p < ra.Size() ? ra.Indexes()[p] : INT64_MAX;
      int64_t cb = q < rb.Size() ? rb.Indexes()[q] : INT64_MAX;
      if (ca == cb) {
        double v = ra.Values()[p++] + sign * rb.Values()[q++];
        if (v != 0.0) rc.Append(ca, v);
      } else if (ca < cb) {
        rc.Append(ca, ra.Values()[p++]);
      } else {
        rc.Append(cb, sign * rb.Values()[q++]);
      }
    }
  }
  c.MarkNnzDirty();
  return c;
}

}  // namespace

StatusOr<MatrixBlock> BinaryMatrixMatrix(BinaryOpCode op,
                                         const MatrixBlock& a,
                                         const MatrixBlock& b,
                                         int num_threads) {
  BroadcastKind kind;
  if (!ResolveBroadcast(a, b, &kind)) {
    // Vector on the left (e.g. v + X): compute with roles swapped via a
    // generic cell loop, keeping operand order for non-commutative ops.
    BroadcastKind rkind;
    if (ResolveBroadcast(b, a, &rkind)) {
      MatrixBlock c = MatrixBlock::Dense(b.Rows(), b.Cols());
      int64_t cols = b.Cols();
      int64_t nnz = 0;
      for (int64_t r = 0; r < b.Rows(); ++r) {
        double* crow = c.DenseRow(r);
        for (int64_t j = 0; j < cols; ++j) {
          double av = rkind == BroadcastKind::kColVector ? a.Get(r, 0)
                      : rkind == BroadcastKind::kRowVector ? a.Get(0, j)
                                                           : a.Get(r, j);
          crow[j] = ApplyBinary(op, av, b.Get(r, j));
        }
        nnz += CountRowNnz(crow, cols);
      }
      c.ExamSparsity(nnz);
      return c;
    }
    return InvalidArgument(
        "binary op shape mismatch: " + std::to_string(a.Rows()) + "x" +
        std::to_string(a.Cols()) + " vs " + std::to_string(b.Rows()) + "x" +
        std::to_string(b.Cols()));
  }

  // Sparse fast paths for same-shape inputs.
  if (kind == BroadcastKind::kNone && a.IsSparse() && b.IsSparse()) {
    if (op == BinaryOpCode::kMul) return SparseSparseMul(a, b);
    if (op == BinaryOpCode::kAdd || op == BinaryOpCode::kSub) {
      return SparseSparseAddSub(op, a, b);
    }
  }

  MatrixBlock c = MatrixBlock::Dense(a.Rows(), a.Cols());
  int64_t cols = a.Cols();
  std::atomic<int64_t> nnz{0};
  ThreadPool::Global().ParallelFor(
      0, a.Rows(), PickChunks(a.Rows()),
      [&](int64_t rb, int64_t re) {
        int64_t local = 0;
        for (int64_t r = rb; r < re; ++r) {
          double* crow = c.DenseRow(r);
          for (int64_t j = 0; j < cols; ++j) {
            double av = a.IsSparse() ? a.SparseData().Row(r).Get(j)
                                     : a.DenseRow(r)[j];
            double bv;
            switch (kind) {
              case BroadcastKind::kNone: bv = b.Get(r, j); break;
              case BroadcastKind::kColVector: bv = b.Get(r, 0); break;
              case BroadcastKind::kRowVector: bv = b.Get(0, j); break;
              default: bv = 0.0;
            }
            crow[j] = ApplyBinary(op, av, bv);
          }
          local += CountRowNnz(crow, cols);
        }
        nnz.fetch_add(local, std::memory_order_relaxed);
      },
      Imbalance().elementwise, num_threads);
  c.ExamSparsity(nnz.load(std::memory_order_relaxed));
  return c;
}

MatrixBlock BinaryMatrixScalar(BinaryOpCode op, const MatrixBlock& a,
                               double scalar, bool scalar_left,
                               int num_threads) {
  // Sparse-safe shortcut: op(x, s) with op(0, s)==0 keeps sparsity.
  double zero_result = scalar_left ? ApplyBinary(op, scalar, 0.0)
                                   : ApplyBinary(op, 0.0, scalar);
  if (a.IsSparse() && zero_result == 0.0) {
    MatrixBlock c = MatrixBlock::Sparse(a.Rows(), a.Cols());
    for (int64_t r = 0; r < a.Rows(); ++r) {
      const SparseRow& ra = a.SparseData().Row(r);
      SparseRow& rc = c.SparseData().Row(r);
      rc.Reserve(ra.Size());
      for (int64_t p = 0; p < ra.Size(); ++p) {
        double v = scalar_left ? ApplyBinary(op, scalar, ra.Values()[p])
                               : ApplyBinary(op, ra.Values()[p], scalar);
        if (v != 0.0) rc.Append(ra.Indexes()[p], v);
      }
    }
    c.MarkNnzDirty();
    return c;
  }

  MatrixBlock c = MatrixBlock::Dense(a.Rows(), a.Cols());
  int64_t cols = a.Cols();
  std::atomic<int64_t> nnz{0};
  ThreadPool::Global().ParallelFor(
      0, a.Rows(), PickChunks(a.Rows()),
      [&](int64_t rb, int64_t re) {
        int64_t local = 0;
        for (int64_t r = rb; r < re; ++r) {
          double* crow = c.DenseRow(r);
          if (!a.IsSparse()) {
            const double* arow = a.DenseRow(r);
            for (int64_t j = 0; j < cols; ++j) {
              crow[j] = scalar_left ? ApplyBinary(op, scalar, arow[j])
                                    : ApplyBinary(op, arow[j], scalar);
            }
          } else {
            std::fill(crow, crow + cols, zero_result);
            const SparseRow& ra = a.SparseData().Row(r);
            for (int64_t p = 0; p < ra.Size(); ++p) {
              double v = ra.Values()[p];
              crow[ra.Indexes()[p]] = scalar_left ? ApplyBinary(op, scalar, v)
                                                  : ApplyBinary(op, v, scalar);
            }
          }
          local += CountRowNnz(crow, cols);
        }
        nnz.fetch_add(local, std::memory_order_relaxed);
      },
      Imbalance().elementwise, num_threads);
  c.ExamSparsity(nnz.load(std::memory_order_relaxed));
  return c;
}

MatrixBlock UnaryMatrix(UnaryOpCode op, const MatrixBlock& a,
                        int num_threads) {
  if (a.IsSparse() && IsSparseSafeUnary(op)) {
    MatrixBlock c = MatrixBlock::Sparse(a.Rows(), a.Cols());
    for (int64_t r = 0; r < a.Rows(); ++r) {
      const SparseRow& ra = a.SparseData().Row(r);
      SparseRow& rc = c.SparseData().Row(r);
      rc.Reserve(ra.Size());
      for (int64_t p = 0; p < ra.Size(); ++p) {
        double v = ApplyUnary(op, ra.Values()[p]);
        if (v != 0.0) rc.Append(ra.Indexes()[p], v);
      }
    }
    c.MarkNnzDirty();
    return c;
  }
  MatrixBlock c = MatrixBlock::Dense(a.Rows(), a.Cols());
  int64_t cols = a.Cols();
  double zero_result = ApplyUnary(op, 0.0);
  std::atomic<int64_t> nnz{0};
  ThreadPool::Global().ParallelFor(
      0, a.Rows(), PickChunks(a.Rows()),
      [&](int64_t rb, int64_t re) {
        int64_t local = 0;
        for (int64_t r = rb; r < re; ++r) {
          double* crow = c.DenseRow(r);
          if (!a.IsSparse()) {
            const double* arow = a.DenseRow(r);
            for (int64_t j = 0; j < cols; ++j) crow[j] = ApplyUnary(op, arow[j]);
          } else {
            std::fill(crow, crow + cols, zero_result);
            const SparseRow& ra = a.SparseData().Row(r);
            for (int64_t p = 0; p < ra.Size(); ++p) {
              crow[ra.Indexes()[p]] = ApplyUnary(op, ra.Values()[p]);
            }
          }
          local += CountRowNnz(crow, cols);
        }
        nnz.fetch_add(local, std::memory_order_relaxed);
      },
      Imbalance().elementwise, num_threads);
  c.ExamSparsity(nnz.load(std::memory_order_relaxed));
  return c;
}

StatusOr<MatrixBlock> TernaryIfElse(const MatrixBlock& cond,
                                    const MatrixBlock* a, double a_scalar,
                                    const MatrixBlock* b, double b_scalar,
                                    int num_threads) {
  if (a != nullptr &&
      (a->Rows() != cond.Rows() || a->Cols() != cond.Cols())) {
    return InvalidArgument("ifelse: 'yes' arm shape mismatch");
  }
  if (b != nullptr &&
      (b->Rows() != cond.Rows() || b->Cols() != cond.Cols())) {
    return InvalidArgument("ifelse: 'no' arm shape mismatch");
  }
  MatrixBlock c = MatrixBlock::Dense(cond.Rows(), cond.Cols());
  int64_t cols = cond.Cols();
  std::atomic<int64_t> nnz{0};
  ThreadPool::Global().ParallelFor(
      0, cond.Rows(), PickChunks(cond.Rows()),
      [&](int64_t rb, int64_t re) {
        int64_t local = 0;
        for (int64_t r = rb; r < re; ++r) {
          double* crow = c.DenseRow(r);
          for (int64_t j = 0; j < cols; ++j) {
            bool take_a = cond.Get(r, j) != 0.0;
            crow[j] = take_a ? (a ? a->Get(r, j) : a_scalar)
                             : (b ? b->Get(r, j) : b_scalar);
          }
          local += CountRowNnz(crow, cols);
        }
        nnz.fetch_add(local, std::memory_order_relaxed);
      },
      Imbalance().elementwise, num_threads);
  c.ExamSparsity(nnz.load(std::memory_order_relaxed));
  return c;
}

}  // namespace sysds
