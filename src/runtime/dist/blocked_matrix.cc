#include "runtime/dist/blocked_matrix.h"

#include <algorithm>
#include <mutex>
#include <vector>

#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/dist/task_runner.h"
#include "runtime/matrix/lib_elementwise.h"
#include "runtime/matrix/lib_matmult.h"
#include "runtime/matrix/op_codes.h"

namespace sysds {

namespace {
// Simulated-cluster data movement (spark.*).
struct SparkMetrics {
  obs::Counter* reblocks;
  obs::Counter* blocks_written;
  obs::Counter* shuffled_blocks;
};

SparkMetrics& Metrics() {
  auto& r = obs::MetricsRegistry::Get();
  static SparkMetrics m = {
      r.GetCounter("spark.reblocks"),
      r.GetCounter("spark.blocks_written"),
      r.GetCounter("spark.shuffled_blocks"),
  };
  return m;
}
}  // namespace

BlockedMatrix BlockedMatrix::FromMatrix(const MatrixBlock& m,
                                        int64_t block_size) {
  SYSDS_SPAN("dist", "reblock");
  BlockedMatrix out;
  out.SetShape(m.Rows(), m.Cols(), block_size);
  Metrics().reblocks->Add(1);
  for (int64_t bi = 0; bi < out.RowBlocks(); ++bi) {
    for (int64_t bj = 0; bj < out.ColBlocks(); ++bj) {
      int64_t rb = bi * block_size;
      int64_t re = std::min(m.Rows(), rb + block_size);
      int64_t cb = bj * block_size;
      int64_t ce = std::min(m.Cols(), cb + block_size);
      MatrixBlock blk(re - rb, ce - cb, /*sparse=*/false);
      bool nonzero = false;
      for (int64_t r = rb; r < re; ++r) {
        for (int64_t c = cb; c < ce; ++c) {
          double v = m.Get(r, c);
          if (v != 0.0) {
            blk.DenseRow(r - rb)[c - cb] = v;
            nonzero = true;
          }
        }
      }
      if (nonzero) {
        blk.MarkNnzDirty();
        blk.ExamSparsity();
        out.blocks_.emplace(Key{bi, bj}, std::move(blk));
      }
    }
  }
  Metrics().blocks_written->Add(static_cast<int64_t>(out.blocks_.size()));
  return out;
}

MatrixBlock BlockedMatrix::ToMatrix() const {
  MatrixBlock m = MatrixBlock::Dense(rows_, cols_);
  for (const auto& [key, blk] : blocks_) {
    int64_t rb = key.first * block_size_;
    int64_t cb = key.second * block_size_;
    for (int64_t r = 0; r < blk.Rows(); ++r) {
      for (int64_t c = 0; c < blk.Cols(); ++c) {
        double v = blk.Get(r, c);
        if (v != 0.0) m.DenseRow(rb + r)[cb + c] = v;
      }
    }
  }
  m.MarkNnzDirty();
  m.ExamSparsity();
  return m;
}

const MatrixBlock* BlockedMatrix::BlockAt(int64_t bi, int64_t bj) const {
  auto it = blocks_.find(Key{bi, bj});
  return it == blocks_.end() ? nullptr : &it->second;
}

StatusOr<BlockedMatrix> DistMatMult(const BlockedMatrix& a,
                                    const BlockedMatrix& b) {
  if (a.Cols() != b.Rows() || a.BlockSize() != b.BlockSize()) {
    return InvalidArgument("distributed matmult: incompatible inputs");
  }
  SYSDS_SPAN("dist", "matmult_shuffle");
  BlockedMatrix c;
  c.SetShape(a.Rows(), b.Cols(), a.BlockSize());
  int64_t rb = a.RowBlocks(), cb = b.ColBlocks(), kb = a.ColBlocks();
  // Replicated join on the shared dimension: every (i,k)x(k,j) pair is one
  // shuffled block pair in a real cluster.
  Metrics().shuffled_blocks->Add(rb * cb * kb);
  // Each output block is one retryable task; results commit into per-task
  // slots so re-executed or speculative attempts cannot reorder anything.
  std::vector<std::pair<BlockedMatrix::Key, MatrixBlock>> results(
      static_cast<size_t>(rb * cb));
  SYSDS_RETURN_IF_ERROR(RunRetryableTasks(
      rb * cb,
      [&](int64_t t)
          -> StatusOr<std::pair<BlockedMatrix::Key, MatrixBlock>> {
        int64_t bi = t / cb, bj = t % cb;
        SYSDS_SPAN("dist", "mm_block_task");
        MatrixBlock acc;
        bool has = false;
        for (int64_t bk = 0; bk < kb; ++bk) {
          const MatrixBlock* ab = a.BlockAt(bi, bk);
          const MatrixBlock* bb = b.BlockAt(bk, bj);
          if (ab == nullptr || bb == nullptr) continue;
          SYSDS_ASSIGN_OR_RETURN(MatrixBlock prod, MatMult(*ab, *bb, 0));
          if (!has) {
            acc = std::move(prod);
            has = true;
          } else {
            SYSDS_ASSIGN_OR_RETURN(
                acc, BinaryMatrixMatrix(BinaryOpCode::kAdd, acc, prod, 0));
          }
        }
        if (has && acc.NonZeros() > 0) {
          acc.ExamSparsity();
          return std::make_pair(BlockedMatrix::Key{bi, bj}, std::move(acc));
        }
        return std::make_pair(BlockedMatrix::Key{-1, -1}, MatrixBlock());
      },
      [&](int64_t t, std::pair<BlockedMatrix::Key, MatrixBlock>&& r) {
        results[static_cast<size_t>(t)] = std::move(r);
      }));
  for (auto& [key, blk] : results) {
    if (key.first >= 0) c.MutableBlocks().emplace(key, std::move(blk));
  }
  return c;
}

StatusOr<BlockedMatrix> DistTsmmLeft(const BlockedMatrix& x) {
  // t(X)%*%X: per row-block stripe tsmm over the stripe's blocks, then a
  // tree-aggregate of partials (one pass here).
  SYSDS_SPAN("dist", "tsmm");
  int64_t n = x.Cols();
  Metrics().shuffled_blocks->Add(static_cast<int64_t>(x.Blocks().size()));
  // One retryable task per row-block stripe; partials commit into stripe
  // slots and the tree-aggregate runs serially in stripe order afterwards,
  // keeping the result bit-identical under re-execution and speculation.
  std::vector<MatrixBlock> partials(static_cast<size_t>(x.RowBlocks()));
  std::vector<uint8_t> present(static_cast<size_t>(x.RowBlocks()), 0);
  SYSDS_RETURN_IF_ERROR(RunRetryableTasks(
      x.RowBlocks(),
      [&](int64_t bi) -> StatusOr<MatrixBlock> {
        // Assemble the stripe (all column blocks of row-block bi).
        int64_t rb = bi * x.BlockSize();
        int64_t re = std::min(x.Rows(), rb + x.BlockSize());
        MatrixBlock stripe(re - rb, n, /*sparse=*/false);
        bool has = false;
        for (int64_t bj = 0; bj < x.ColBlocks(); ++bj) {
          const MatrixBlock* blk = x.BlockAt(bi, bj);
          if (blk == nullptr) continue;
          has = true;
          int64_t cb = bj * x.BlockSize();
          for (int64_t r = 0; r < blk->Rows(); ++r) {
            for (int64_t c = 0; c < blk->Cols(); ++c) {
              stripe.DenseRow(r)[cb + c] = blk->Get(r, c);
            }
          }
        }
        if (!has) return MatrixBlock();
        stripe.MarkNnzDirty();
        return TransposeSelfMatMult(stripe, true, 0);
      },
      [&](int64_t bi, MatrixBlock&& part) {
        if (part.Rows() > 0) {
          partials[static_cast<size_t>(bi)] = std::move(part);
          present[static_cast<size_t>(bi)] = 1;
        }
      }));
  MatrixBlock acc = MatrixBlock::Dense(n, n);
  for (int64_t bi = 0; bi < x.RowBlocks(); ++bi) {
    if (!present[static_cast<size_t>(bi)]) continue;
    SYSDS_ASSIGN_OR_RETURN(
        acc, BinaryMatrixMatrix(BinaryOpCode::kAdd, acc,
                                partials[static_cast<size_t>(bi)], 0));
  }
  return BlockedMatrix::FromMatrix(acc, x.BlockSize());
}

StatusOr<BlockedMatrix> DistBinary(const BlockedMatrix& a,
                                   const BlockedMatrix& b,
                                   const std::string& opcode) {
  if (a.Rows() != b.Rows() || a.Cols() != b.Cols() ||
      a.BlockSize() != b.BlockSize()) {
    return InvalidArgument("distributed binary: incompatible inputs");
  }
  BinaryOpCode code;
  if (opcode == "+") code = BinaryOpCode::kAdd;
  else if (opcode == "-") code = BinaryOpCode::kSub;
  else if (opcode == "*") code = BinaryOpCode::kMul;
  else if (opcode == "/") code = BinaryOpCode::kDiv;
  else return InvalidArgument("distributed binary: unsupported op " + opcode);
  SYSDS_SPAN("dist", "binary");
  // Aligned blocking => co-partitioned join, no shuffle (paper §2.4). Each
  // block pair is one retryable task committing into its own slot.
  BlockedMatrix c;
  c.SetShape(a.Rows(), a.Cols(), a.BlockSize());
  int64_t rbs = a.RowBlocks(), cbs = a.ColBlocks();
  std::vector<MatrixBlock> blocks(static_cast<size_t>(rbs * cbs));
  std::vector<uint8_t> present(static_cast<size_t>(rbs * cbs), 0);
  SYSDS_RETURN_IF_ERROR(RunRetryableTasks(
      rbs * cbs,
      [&](int64_t t) -> StatusOr<MatrixBlock> {
        int64_t bi = t / cbs, bj = t % cbs;
        const MatrixBlock* ab = a.BlockAt(bi, bj);
        const MatrixBlock* bb = b.BlockAt(bi, bj);
        int64_t rows = std::min(a.Rows() - bi * a.BlockSize(), a.BlockSize());
        int64_t cols = std::min(a.Cols() - bj * a.BlockSize(), a.BlockSize());
        MatrixBlock zero(rows, cols, /*sparse=*/true);
        const MatrixBlock& lhs = ab != nullptr ? *ab : zero;
        const MatrixBlock& rhs = bb != nullptr ? *bb : zero;
        return BinaryMatrixMatrix(code, lhs, rhs, 0);
      },
      [&](int64_t t, MatrixBlock&& blk) {
        if (blk.NonZeros() > 0) {
          blocks[static_cast<size_t>(t)] = std::move(blk);
          present[static_cast<size_t>(t)] = 1;
        }
      }));
  for (int64_t t = 0; t < rbs * cbs; ++t) {
    if (!present[static_cast<size_t>(t)]) continue;
    c.MutableBlocks().emplace(BlockedMatrix::Key{t / cbs, t % cbs},
                              std::move(blocks[static_cast<size_t>(t)]));
  }
  return c;
}

StatusOr<MatrixBlock> DistAggSum(const BlockedMatrix& a) {
  double sum = 0.0, corr = 0.0;
  for (const auto& [key, blk] : a.Blocks()) {
    for (int64_t r = 0; r < blk.Rows(); ++r) {
      for (int64_t c = 0; c < blk.Cols(); ++c) {
        double y = blk.Get(r, c) - corr;
        double t = sum + y;
        corr = (t - sum) - y;
        sum = t;
      }
    }
  }
  MatrixBlock out = MatrixBlock::Dense(1, 1, sum);
  return out;
}

}  // namespace sysds
