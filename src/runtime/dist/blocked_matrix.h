#ifndef SYSDS_RUNTIME_DIST_BLOCKED_MATRIX_H_
#define SYSDS_RUNTIME_DIST_BLOCKED_MATRIX_H_

#include <cstdint>
#include <map>
#include <utility>

#include "common/status.h"
#include "runtime/matrix/matrix_block.h"

namespace sysds {

/// The distributed matrix representation of the simulated Spark backend: a
/// collection of squared, fixed-size, independently encoded blocks keyed by
/// block indexes — the in-process analogue of SystemDS's
/// PairRDD<MatrixIndexes, MatrixBlock> (paper §2.4). Blocks are aligned, so
/// binary operations join block-wise without re-partitioning, and matrix
/// multiply joins A's column-block index with B's row-block index.
class BlockedMatrix {
 public:
  using Key = std::pair<int64_t, int64_t>;

  BlockedMatrix() = default;

  /// Splits ("reblocks") a local matrix into aligned blocks.
  static BlockedMatrix FromMatrix(const MatrixBlock& m, int64_t block_size);

  /// Collects all blocks back into a local matrix.
  MatrixBlock ToMatrix() const;

  int64_t Rows() const { return rows_; }
  int64_t Cols() const { return cols_; }
  int64_t BlockSize() const { return block_size_; }
  int64_t RowBlocks() const {
    return (rows_ + block_size_ - 1) / block_size_;
  }
  int64_t ColBlocks() const {
    return (cols_ + block_size_ - 1) / block_size_;
  }

  const std::map<Key, MatrixBlock>& Blocks() const { return blocks_; }
  std::map<Key, MatrixBlock>& MutableBlocks() { return blocks_; }
  void SetShape(int64_t rows, int64_t cols, int64_t block_size) {
    rows_ = rows;
    cols_ = cols;
    block_size_ = block_size;
  }

  /// The block at (bi, bj), or nullptr if absent (all-zero block).
  const MatrixBlock* BlockAt(int64_t bi, int64_t bj) const;

 private:
  int64_t rows_ = 0, cols_ = 0, block_size_ = 1024;
  std::map<Key, MatrixBlock> blocks_;
};

/// Distributed kernels over blocked matrices, executed by the shared
/// executor pool. Shuffle/compute volumes are recorded in the metrics
/// registry ("spark.*" counters) so benchmarks can report data movement.
StatusOr<BlockedMatrix> DistMatMult(const BlockedMatrix& a,
                                    const BlockedMatrix& b);
StatusOr<BlockedMatrix> DistTsmmLeft(const BlockedMatrix& x);
StatusOr<BlockedMatrix> DistBinary(const BlockedMatrix& a,
                                   const BlockedMatrix& b,
                                   const std::string& opcode);
StatusOr<MatrixBlock> DistAggSum(const BlockedMatrix& a);

}  // namespace sysds

#endif  // SYSDS_RUNTIME_DIST_BLOCKED_MATRIX_H_
