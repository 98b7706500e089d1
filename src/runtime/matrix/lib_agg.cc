#include "runtime/matrix/lib_agg.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/thread_pool.h"

namespace sysds {

namespace {

using agg::CellStats;
using agg::Finalize;
using agg::Kahan;
using agg::SkipZeros;

// Folds all cells of row r into the stats in column order. With skip_zeros,
// v == 0.0 cells (stored or implicit) are skipped so the result is
// independent of the storage format; without it, implicit zeros of sparse
// rows are visited too (min/max/mean must see zeros).
void ScanRow(const MatrixBlock& a, int64_t r, CellStats* stats,
             bool skip_zeros) {
  int64_t cols = a.Cols();
  if (!a.IsSparse()) {
    const double* row = a.DenseRow(r);
    if (skip_zeros) {
      for (int64_t j = 0; j < cols; ++j) {
        double v = row[j];
        if (v != 0.0) stats->Add(v, j);
      }
    } else {
      for (int64_t j = 0; j < cols; ++j) stats->Add(row[j], j);
    }
    return;
  }
  const SparseRow& row = a.SparseData().Row(r);
  if (skip_zeros) {
    for (int64_t p = 0; p < row.Size(); ++p) {
      double v = row.Values()[p];
      if (v != 0.0) stats->Add(v, row.Indexes()[p]);
    }
    return;
  }
  int64_t p = 0;
  for (int64_t j = 0; j < cols; ++j) {
    if (p < row.Size() && row.Indexes()[p] == j) {
      stats->Add(row.Values()[p++], j);
    } else {
      stats->Add(0.0, j);
    }
  }
}

// Column-direction variant: folds row r into the per-column stats array,
// using the row index as the running cell index.
void ScanRowIntoCols(const MatrixBlock& a, int64_t r, CellStats* stats,
                     bool skip_zeros) {
  int64_t cols = a.Cols();
  if (!a.IsSparse()) {
    const double* row = a.DenseRow(r);
    if (skip_zeros) {
      for (int64_t j = 0; j < cols; ++j) {
        double v = row[j];
        if (v != 0.0) stats[j].Add(v, r);
      }
    } else {
      for (int64_t j = 0; j < cols; ++j) stats[j].Add(row[j], r);
    }
    return;
  }
  const SparseRow& row = a.SparseData().Row(r);
  if (skip_zeros) {
    for (int64_t p = 0; p < row.Size(); ++p) {
      double v = row.Values()[p];
      if (v != 0.0) stats[row.Indexes()[p]].Add(v, r);
    }
    return;
  }
  int64_t p = 0;
  for (int64_t j = 0; j < cols; ++j) {
    if (p < row.Size() && row.Indexes()[p] == j) {
      stats[j].Add(row.Values()[p++], r);
    } else {
      stats[j].Add(0.0, r);
    }
  }
}

}  // namespace

StatusOr<double> AggregateAll(AggOpCode op, const MatrixBlock& a,
                              int num_threads) {
  if (op == AggOpCode::kTrace) {
    if (a.Rows() != a.Cols()) {
      return InvalidArgument("trace requires a square matrix");
    }
    Kahan k;
    for (int64_t i = 0; i < a.Rows(); ++i) k.Add(a.Get(i, i));
    return k.sum;
  }
  if (op == AggOpCode::kIndexMax || op == AggOpCode::kIndexMin) {
    return InvalidArgument("indexmax/indexmin are row-wise aggregates");
  }
  if (op == AggOpCode::kSum && !a.IsSparse()) {
    int64_t cols = a.Cols();
    return agg::FullSumChunked(a.Rows(), num_threads, [&]() {
             return [&](int64_t r, Kahan* k) {
               agg::SumDenseRowInto(a.DenseRow(r), cols, k);
             };
           })
        .sum;
  }
  bool skip = SkipZeros(op);
  CellStats stats = agg::FullAggChunked(a.Rows(), num_threads, [&]() {
    return [&](int64_t r, CellStats* s) { ScanRow(a, r, s, skip); };
  });
  return Finalize(op, stats);
}

StatusOr<MatrixBlock> AggregateRowCol(AggOpCode op, AggDirection dir,
                                      const MatrixBlock& a, int num_threads) {
  bool skip = SkipZeros(op);
  if (dir == AggDirection::kRow) {
    MatrixBlock c = MatrixBlock::Dense(a.Rows(), 1);
    bool sum_fast = op == AggOpCode::kSum && !a.IsSparse();
    int64_t cols = a.Cols();
    ThreadPool::Global().ParallelFor(
        0, a.Rows(), PickChunks(a.Rows()),
        [&](int64_t rb, int64_t re) {
          for (int64_t r = rb; r < re; ++r) {
            if (sum_fast) {
              c.DenseData()[r] = agg::SumDenseRow(a.DenseRow(r), cols);
              continue;
            }
            CellStats stats;
            ScanRow(a, r, &stats, skip);
            c.DenseData()[r] = Finalize(op, stats);
          }
        },
        Imbalance().agg, num_threads);
    c.MarkNnzDirty();
    return c;
  }
  if (dir == AggDirection::kCol) {
    int64_t cols = a.Cols();
    std::vector<CellStats> stats =
        agg::ColAggChunked(a.Rows(), cols, num_threads, [&]() {
          return [&](int64_t r, CellStats* s) {
            ScanRowIntoCols(a, r, s, skip);
          };
        });
    MatrixBlock c = MatrixBlock::Dense(1, cols);
    for (int64_t j = 0; j < cols; ++j) {
      c.DenseData()[j] = Finalize(op, stats[j]);
    }
    c.MarkNnzDirty();
    return c;
  }
  return InvalidArgument("AggregateRowCol requires row or col direction");
}

namespace {
template <typename Fn>
MatrixBlock CumulativeColwise(const MatrixBlock& a, double init, Fn fn) {
  MatrixBlock c = MatrixBlock::Dense(a.Rows(), a.Cols());
  int64_t cols = a.Cols();
  std::vector<double> acc(static_cast<size_t>(cols), init);
  for (int64_t r = 0; r < a.Rows(); ++r) {
    double* crow = c.DenseRow(r);
    for (int64_t j = 0; j < cols; ++j) {
      acc[j] = fn(acc[j], a.Get(r, j));
      crow[j] = acc[j];
    }
  }
  c.MarkNnzDirty();
  return c;
}
}  // namespace

MatrixBlock CumSum(const MatrixBlock& a) {
  return CumulativeColwise(a, 0.0, [](double x, double y) { return x + y; });
}
MatrixBlock CumProd(const MatrixBlock& a) {
  return CumulativeColwise(a, 1.0, [](double x, double y) { return x * y; });
}
MatrixBlock CumMin(const MatrixBlock& a) {
  return CumulativeColwise(a, std::numeric_limits<double>::infinity(),
                           [](double x, double y) { return std::fmin(x, y); });
}
MatrixBlock CumMax(const MatrixBlock& a) {
  return CumulativeColwise(a, -std::numeric_limits<double>::infinity(),
                           [](double x, double y) { return std::fmax(x, y); });
}

}  // namespace sysds
