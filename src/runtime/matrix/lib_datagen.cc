#include "runtime/matrix/lib_datagen.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "common/thread_pool.h"
#include "common/util.h"

namespace sysds {

namespace {
constexpr int64_t kRowBlock = 1024;
}  // namespace

StatusOr<MatrixBlock> RandMatrix(int64_t rows, int64_t cols, double min_val,
                                 double max_val, double sparsity,
                                 uint64_t seed, RandPdf pdf,
                                 int num_threads) {
  if (rows < 0 || cols < 0) return InvalidArgument("rand: negative dims");
  if (sparsity < 0.0 || sparsity > 1.0) {
    return InvalidArgument("rand: sparsity must be in [0,1]");
  }
  bool sparse = MatrixBlock::EvalSparseFormat(rows, cols, sparsity);
  MatrixBlock c(rows, cols, sparse);
  int64_t num_blocks = (rows + kRowBlock - 1) / kRowBlock;
  auto gen_block = [&](int64_t bb, int64_t be) {
    for (int64_t b = bb; b < be; ++b) {
      // Per-block seed: deterministic regardless of parallelism.
      Xoshiro rng(HashCombine(seed, static_cast<uint64_t>(b)));
      int64_t rbeg = b * kRowBlock, rend = std::min(rows, rbeg + kRowBlock);
      for (int64_t r = rbeg; r < rend; ++r) {
        if (!sparse) {
          double* row = c.DenseRow(r);
          for (int64_t j = 0; j < cols; ++j) {
            if (sparsity < 1.0 && rng.NextDouble() >= sparsity) {
              row[j] = 0.0;
              continue;
            }
            row[j] = pdf == RandPdf::kUniform
                         ? rng.NextDouble(min_val, max_val)
                         : rng.NextGaussian();
          }
        } else {
          SparseRow& row = c.SparseData().Row(r);
          row.Reserve(static_cast<int64_t>(sparsity * cols) + 1);
          for (int64_t j = 0; j < cols; ++j) {
            if (rng.NextDouble() >= sparsity) continue;
            double v = pdf == RandPdf::kUniform
                           ? rng.NextDouble(min_val, max_val)
                           : rng.NextGaussian();
            if (v != 0.0) row.Append(j, v);
          }
        }
      }
    }
  };
  ThreadPool::Global().ParallelFor(0, num_blocks, kMaxLoopChunks, gen_block,
                                   Imbalance().datagen, num_threads);
  c.MarkNnzDirty();
  return c;
}

StatusOr<MatrixBlock> SeqMatrix(double from, double to, double incr) {
  if (incr == 0.0) return InvalidArgument("seq: zero increment");
  if ((to - from) / incr < 0) {
    return InvalidArgument("seq: increment has wrong sign");
  }
  int64_t n = static_cast<int64_t>(std::floor((to - from) / incr + 1e-10)) + 1;
  MatrixBlock c = MatrixBlock::Dense(n, 1);
  for (int64_t i = 0; i < n; ++i) c.DenseData()[i] = from + incr * i;
  c.MarkNnzDirty();
  return c;
}

StatusOr<MatrixBlock> SampleMatrix(int64_t range, int64_t size, bool replace,
                                   uint64_t seed) {
  if (range < 1 || size < 1) return InvalidArgument("sample: invalid sizes");
  if (!replace && size > range) {
    return InvalidArgument("sample without replacement: size > range");
  }
  MatrixBlock c = MatrixBlock::Dense(size, 1);
  Xoshiro rng(seed);
  if (replace) {
    for (int64_t i = 0; i < size; ++i) {
      c.DenseData()[i] =
          static_cast<double>(1 + rng.NextUint64() % static_cast<uint64_t>(range));
    }
  } else {
    // Partial Fisher-Yates over [1..range].
    std::vector<int64_t> vals(static_cast<size_t>(range));
    std::iota(vals.begin(), vals.end(), 1);
    for (int64_t i = 0; i < size; ++i) {
      int64_t j = i + static_cast<int64_t>(rng.NextUint64() %
                                           static_cast<uint64_t>(range - i));
      std::swap(vals[i], vals[j]);
      c.DenseData()[i] = static_cast<double>(vals[i]);
    }
  }
  c.MarkNnzDirty();
  return c;
}

}  // namespace sysds
