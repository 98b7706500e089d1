#include "runtime/matrix/lib_reorg.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/thread_pool.h"

namespace sysds {

MatrixBlock Transpose(const MatrixBlock& a, int num_threads) {
  MatrixBlock c(a.Cols(), a.Rows(), /*sparse=*/a.IsSparse());
  if (!a.IsSparse()) {
    constexpr int64_t kBlk = 64;
    int64_t rows = a.Rows(), cols = a.Cols();
    const double* pa = a.DenseData();
    double* pc = c.DenseData();
    int64_t row_blocks = (rows + kBlk - 1) / kBlk;
    ThreadPool::Global().ParallelFor(
        0, row_blocks, kMaxLoopChunks,
        [&](int64_t bb, int64_t be) {
          for (int64_t b = bb; b < be; ++b) {
            int64_t ib = b * kBlk, ie = std::min(rows, ib + kBlk);
            for (int64_t jb = 0; jb < cols; jb += kBlk) {
              int64_t je = std::min(cols, jb + kBlk);
              for (int64_t i = ib; i < ie; ++i) {
                for (int64_t j = jb; j < je; ++j) {
                  pc[j * rows + i] = pa[i * cols + j];
                }
              }
            }
          }
        },
        Imbalance().reorg, num_threads);
  } else {
    // Sparse transpose: counting pass then scatter keeps rows sorted.
    c.AllocateSparse();
    std::vector<int64_t> counts(static_cast<size_t>(a.Cols()), 0);
    for (int64_t r = 0; r < a.Rows(); ++r) {
      const SparseRow& row = a.SparseData().Row(r);
      for (int64_t p = 0; p < row.Size(); ++p) ++counts[row.Indexes()[p]];
    }
    for (int64_t j = 0; j < a.Cols(); ++j) {
      c.SparseData().Row(j).Reserve(counts[j]);
    }
    for (int64_t r = 0; r < a.Rows(); ++r) {
      const SparseRow& row = a.SparseData().Row(r);
      for (int64_t p = 0; p < row.Size(); ++p) {
        c.SparseData().Row(row.Indexes()[p]).Append(r, row.Values()[p]);
      }
    }
  }
  c.MarkNnzDirty();
  return c;
}

MatrixBlock ReverseRows(const MatrixBlock& a) {
  MatrixBlock c(a.Rows(), a.Cols(), a.IsSparse());
  for (int64_t r = 0; r < a.Rows(); ++r) {
    int64_t src = a.Rows() - 1 - r;
    if (!a.IsSparse()) {
      std::copy(a.DenseRow(src), a.DenseRow(src) + a.Cols(), c.DenseRow(r));
    } else {
      c.SparseData().Row(r) = a.SparseData().Row(src);
    }
  }
  c.MarkNnzDirty();
  return c;
}

StatusOr<MatrixBlock> Diag(const MatrixBlock& a) {
  if (a.Cols() == 1) {
    // Vector-to-matrix: n x n diagonal, always sparse-friendly.
    int64_t n = a.Rows();
    MatrixBlock c = MatrixBlock::Sparse(n, n);
    for (int64_t i = 0; i < n; ++i) {
      double v = a.Get(i, 0);
      if (v != 0.0) c.SparseData().Row(i).Append(i, v);
    }
    c.MarkNnzDirty();
    c.ExamSparsity();
    return c;
  }
  if (a.Rows() == a.Cols()) {
    MatrixBlock c = MatrixBlock::Dense(a.Rows(), 1);
    for (int64_t i = 0; i < a.Rows(); ++i) c.DenseData()[i] = a.Get(i, i);
    c.MarkNnzDirty();
    return c;
  }
  return InvalidArgument("diag requires a column vector or square matrix");
}

StatusOr<MatrixBlock> CBind(const std::vector<const MatrixBlock*>& inputs) {
  if (inputs.empty()) return InvalidArgument("cbind of zero inputs");
  int64_t rows = inputs[0]->Rows();
  int64_t cols = 0;
  int64_t nnz = 0;
  for (const MatrixBlock* m : inputs) {
    if (m->Rows() != rows) {
      return InvalidArgument("cbind inputs must have equal row counts");
    }
    cols += m->Cols();
    nnz += m->NonZeros();
  }
  // One row loop writes each output cell once; the output's nnz is the
  // inputs' sum, so nothing rescans it to pick the format. Serial on
  // purpose: cbind's hot caller is a parfor body whose workers already
  // occupy every core.
  MatrixBlock c = MatrixBlock::Dense(rows, cols);
  for (int64_t r = 0; r < rows; ++r) {
    double* crow = c.DenseRow(r);
    for (const MatrixBlock* m : inputs) {
      if (!m->IsSparse()) {
        std::copy(m->DenseRow(r), m->DenseRow(r) + m->Cols(), crow);
      } else {
        const SparseRow& row = m->SparseData().Row(r);
        for (int64_t p = 0; p < row.Size(); ++p) {
          crow[row.Indexes()[p]] = row.Values()[p];
        }
      }
      crow += m->Cols();
    }
  }
  c.ExamSparsity(nnz);
  return c;
}

StatusOr<MatrixBlock> RBind(const std::vector<const MatrixBlock*>& inputs) {
  if (inputs.empty()) return InvalidArgument("rbind of zero inputs");
  int64_t cols = inputs[0]->Cols();
  int64_t rows = 0;
  for (const MatrixBlock* m : inputs) {
    if (m->Cols() != cols) {
      return InvalidArgument("rbind inputs must have equal column counts");
    }
    rows += m->Rows();
  }
  MatrixBlock c = MatrixBlock::Dense(rows, cols);
  int64_t roff = 0;
  for (const MatrixBlock* m : inputs) {
    for (int64_t r = 0; r < m->Rows(); ++r) {
      double* crow = c.DenseRow(roff + r);
      if (!m->IsSparse()) {
        std::copy(m->DenseRow(r), m->DenseRow(r) + cols, crow);
      } else {
        const SparseRow& row = m->SparseData().Row(r);
        for (int64_t p = 0; p < row.Size(); ++p) {
          crow[row.Indexes()[p]] = row.Values()[p];
        }
      }
    }
    roff += m->Rows();
  }
  c.MarkNnzDirty();
  c.ExamSparsity();
  return c;
}

StatusOr<MatrixBlock> SliceMatrix(const MatrixBlock& a, int64_t rl,
                                  int64_t ru, int64_t cl, int64_t cu) {
  if (rl < 0 || ru >= a.Rows() || rl > ru || cl < 0 || cu >= a.Cols() ||
      cl > cu) {
    return OutOfRange("index range [" + std::to_string(rl + 1) + ":" +
                      std::to_string(ru + 1) + "," + std::to_string(cl + 1) +
                      ":" + std::to_string(cu + 1) + "] out of bounds for " +
                      std::to_string(a.Rows()) + "x" +
                      std::to_string(a.Cols()));
  }
  int64_t rows = ru - rl + 1, cols = cu - cl + 1;
  MatrixBlock c(rows, cols, a.IsSparse());
  for (int64_t r = 0; r < rows; ++r) {
    if (!a.IsSparse()) {
      const double* arow = a.DenseRow(rl + r) + cl;
      std::copy(arow, arow + cols, c.DenseRow(r));
    } else {
      const SparseRow& src = a.SparseData().Row(rl + r);
      SparseRow& dst = c.SparseData().Row(r);
      for (int64_t p = 0; p < src.Size(); ++p) {
        int64_t col = src.Indexes()[p];
        if (col >= cl && col <= cu) dst.Append(col - cl, src.Values()[p]);
      }
    }
  }
  c.MarkNnzDirty();
  if (a.IsSparse()) c.ExamSparsity();
  return c;
}

StatusOr<MatrixBlock> LeftIndex(const MatrixBlock& a, const MatrixBlock& rhs,
                                int64_t rl, int64_t ru, int64_t cl,
                                int64_t cu) {
  if (rl < 0 || ru >= a.Rows() || rl > ru || cl < 0 || cu >= a.Cols() ||
      cl > cu) {
    return OutOfRange("left-index range out of bounds");
  }
  if (rhs.Rows() != ru - rl + 1 || rhs.Cols() != cu - cl + 1) {
    return InvalidArgument(
        "left-index rhs shape " + std::to_string(rhs.Rows()) + "x" +
        std::to_string(rhs.Cols()) + " does not match target region " +
        std::to_string(ru - rl + 1) + "x" + std::to_string(cu - cl + 1));
  }
  MatrixBlock c = a;  // copy-on-write at the instruction layer
  c.ToDense();
  for (int64_t r = 0; r <= ru - rl; ++r) {
    double* crow = c.DenseRow(rl + r) + cl;
    for (int64_t j = 0; j <= cu - cl; ++j) crow[j] = rhs.Get(r, j);
  }
  c.MarkNnzDirty();
  c.ExamSparsity();
  return c;
}

StatusOr<MatrixBlock> Reshape(const MatrixBlock& a, int64_t rows,
                              int64_t cols) {
  if (rows * cols != a.CellCount()) {
    return InvalidArgument("reshape cell count mismatch");
  }
  MatrixBlock c = MatrixBlock::Dense(rows, cols);
  double* pc = c.DenseData();
  int64_t idx = 0;
  for (int64_t r = 0; r < a.Rows(); ++r) {
    for (int64_t j = 0; j < a.Cols(); ++j) pc[idx++] = a.Get(r, j);
  }
  c.MarkNnzDirty();
  c.ExamSparsity();
  return c;
}

StatusOr<MatrixBlock> OrderByColumn(const MatrixBlock& a, int64_t by_col,
                                    bool decreasing, bool index_return) {
  if (by_col < 0 || by_col >= a.Cols()) {
    return OutOfRange("order: by-column out of range");
  }
  std::vector<int64_t> perm(static_cast<size_t>(a.Rows()));
  std::iota(perm.begin(), perm.end(), 0);
  std::stable_sort(perm.begin(), perm.end(), [&](int64_t x, int64_t y) {
    double vx = a.Get(x, by_col), vy = a.Get(y, by_col);
    return decreasing ? vx > vy : vx < vy;
  });
  if (index_return) {
    MatrixBlock c = MatrixBlock::Dense(a.Rows(), 1);
    for (int64_t r = 0; r < a.Rows(); ++r) {
      c.DenseData()[r] = static_cast<double>(perm[r] + 1);
    }
    c.MarkNnzDirty();
    return c;
  }
  MatrixBlock c = MatrixBlock::Dense(a.Rows(), a.Cols());
  for (int64_t r = 0; r < a.Rows(); ++r) {
    for (int64_t j = 0; j < a.Cols(); ++j) {
      c.DenseRow(r)[j] = a.Get(perm[r], j);
    }
  }
  c.MarkNnzDirty();
  c.ExamSparsity();
  return c;
}

MatrixBlock RemoveEmpty(const MatrixBlock& a, bool rows_margin) {
  std::vector<int64_t> keep;
  if (rows_margin) {
    for (int64_t r = 0; r < a.Rows(); ++r) {
      bool nonzero = false;
      for (int64_t j = 0; j < a.Cols() && !nonzero; ++j) {
        nonzero = a.Get(r, j) != 0.0;
      }
      if (nonzero) keep.push_back(r);
    }
    if (keep.empty()) return MatrixBlock::Dense(1, 1);
    MatrixBlock c = MatrixBlock::Dense(static_cast<int64_t>(keep.size()),
                                       a.Cols());
    for (size_t r = 0; r < keep.size(); ++r) {
      for (int64_t j = 0; j < a.Cols(); ++j) {
        c.DenseRow(static_cast<int64_t>(r))[j] = a.Get(keep[r], j);
      }
    }
    c.MarkNnzDirty();
    c.ExamSparsity();
    return c;
  }
  for (int64_t j = 0; j < a.Cols(); ++j) {
    bool nonzero = false;
    for (int64_t r = 0; r < a.Rows() && !nonzero; ++r) {
      nonzero = a.Get(r, j) != 0.0;
    }
    if (nonzero) keep.push_back(j);
  }
  if (keep.empty()) return MatrixBlock::Dense(1, 1);
  MatrixBlock c =
      MatrixBlock::Dense(a.Rows(), static_cast<int64_t>(keep.size()));
  for (int64_t r = 0; r < a.Rows(); ++r) {
    for (size_t j = 0; j < keep.size(); ++j) {
      c.DenseRow(r)[j] = a.Get(r, keep[j]);
    }
  }
  c.MarkNnzDirty();
  c.ExamSparsity();
  return c;
}

StatusOr<MatrixBlock> CTable(const MatrixBlock& a, const MatrixBlock& b,
                             double weight) {
  if (a.Cols() != 1 || b.Cols() != 1 || a.Rows() != b.Rows()) {
    return InvalidArgument("table requires two aligned column vectors");
  }
  int64_t max_a = 0, max_b = 0;
  for (int64_t r = 0; r < a.Rows(); ++r) {
    double va = a.Get(r, 0), vb = b.Get(r, 0);
    if (va < 1 || vb < 1 || va != std::floor(va) || vb != std::floor(vb)) {
      return InvalidArgument("table requires positive integer entries");
    }
    max_a = std::max<int64_t>(max_a, static_cast<int64_t>(va));
    max_b = std::max<int64_t>(max_b, static_cast<int64_t>(vb));
  }
  MatrixBlock c = MatrixBlock::Dense(max_a, max_b);
  for (int64_t r = 0; r < a.Rows(); ++r) {
    int64_t i = static_cast<int64_t>(a.Get(r, 0)) - 1;
    int64_t j = static_cast<int64_t>(b.Get(r, 0)) - 1;
    c.DenseRow(i)[j] += weight;
  }
  c.MarkNnzDirty();
  c.ExamSparsity();
  return c;
}

MatrixBlock ReplaceValues(const MatrixBlock& a, double pattern,
                          double replacement) {
  MatrixBlock c = MatrixBlock::Dense(a.Rows(), a.Cols());
  bool pattern_is_nan = std::isnan(pattern);
  for (int64_t r = 0; r < a.Rows(); ++r) {
    double* crow = c.DenseRow(r);
    for (int64_t j = 0; j < a.Cols(); ++j) {
      double v = a.Get(r, j);
      bool match = pattern_is_nan ? std::isnan(v) : v == pattern;
      crow[j] = match ? replacement : v;
    }
  }
  c.MarkNnzDirty();
  c.ExamSparsity();
  return c;
}

}  // namespace sysds
