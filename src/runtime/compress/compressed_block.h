#ifndef SYSDS_RUNTIME_COMPRESS_COMPRESSED_BLOCK_H_
#define SYSDS_RUNTIME_COMPRESS_COMPRESSED_BLOCK_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "runtime/matrix/matrix_block.h"
#include "runtime/matrix/op_codes.h"

namespace sysds {

struct CompressionPlan;

/// Column-group encodings (paper §3.4, after Elgohary et al., "Compressed
/// Linear Algebra for Large-Scale Machine Learning"):
///  - kDDC1/kDDC2: dense dictionary coding, one code per row (1 or 2 bytes)
///    indexing a dictionary of distinct value tuples.
///  - kRLE: run-length encoding of the code sequence — runs of identical
///    tuples store one (start, code) pair per run.
///  - kSDC: sparse dictionary coding — a default tuple covers most rows and
///    only the exception rows store (row, code) pairs.
///  - kUncompressed: plain column-major values (high-cardinality or
///    NaN-containing columns; NaN breaks dictionary ordering, see Compress).
enum class ColEncoding : uint8_t {
  kUncompressed = 0,
  kDDC1 = 1,
  kDDC2 = 2,
  kRLE = 3,
  kSDC = 4,
};

const char* ColEncodingName(ColEncoding e);

/// A group of adjacent columns sharing one dictionary of value tuples
/// (co-coding). Groups always cover a contiguous, ascending column range so
/// that iterating groups in order visits global columns in ascending order —
/// the compressed kernels rely on this to replay the uncompressed kernels'
/// per-cell accumulation order exactly (see RightMatMult).
struct ColGroup {
  ColEncoding encoding = ColEncoding::kUncompressed;
  std::vector<int64_t> cols;   // ascending, contiguous global column ids
  // Dictionary: NumValues() tuples of NumCols() doubles, row-major.
  std::vector<double> dict;
  std::vector<uint8_t> codes8;     // kDDC1: one code per row
  std::vector<uint16_t> codes16;   // kDDC2
  std::vector<int64_t> run_starts; // kRLE: ascending; run i spans
                                   // [run_starts[i], run_starts[i+1])
  std::vector<uint16_t> run_codes;
  std::vector<int64_t> sdc_rows;   // kSDC: sorted exception rows
  std::vector<uint16_t> sdc_codes;
  uint16_t sdc_default = 0;        // kSDC: dictionary index of the default
  std::vector<double> values;      // kUncompressed: column-major values
  // Per local column: true if any cell is NaN/Inf. Operand-side zero
  // skipping (e.g. v[c] == 0 in a right-multiply) is only safe for columns
  // of finite values — 0 * Inf must still produce NaN.
  std::vector<uint8_t> col_has_nonfinite;

  int64_t NumCols() const { return static_cast<int64_t>(cols.size()); }
  int64_t NumValues() const {
    return cols.empty() ? 0 : static_cast<int64_t>(dict.size()) / NumCols();
  }
  bool IsCompressed() const { return encoding != ColEncoding::kUncompressed; }
  /// Payload bytes of this group's arrays (buffer-pool accounting).
  int64_t SizeInBytes() const;
};

/// Direct-encode construction of a dictionary-coded group, bypassing the
/// sampling planner: the producer (transformencode's direct-to-compressed
/// sink) already knows the exact dictionary and per-row codes — recode
/// codes *are* DDC codes. `dict` holds row-major tuples over `cols`;
/// `codes[r]` indexes a tuple and every code must be < the tuple count,
/// which must be <= 65536. Picks kDDC1/kDDC2 from the dictionary size and
/// derives nnz (accumulated into *nnz_out) and the per-column nonfinite
/// flags from the dictionary alone.
StatusOr<ColGroup> BuildDdcGroupFromCodes(std::vector<int64_t> cols,
                                          std::vector<double> dict,
                                          const uint16_t* codes, int64_t rows,
                                          int64_t* nnz_out);

/// Uncompressed fallback group from column-major values (`rows` cells per
/// column); computes nnz (into *nnz_out) and the nonfinite flags by scan.
ColGroup BuildUncompressedGroup(std::vector<int64_t> cols,
                                std::vector<double> values, int64_t rows,
                                int64_t* nnz_out);

/// Lossless compressed matrix (paper §3.4): a list of column groups, each
/// with its own encoding. Key linear-algebra operations execute directly on
/// the compressed representation — value-indexed pre-aggregation turns
/// O(rows) work into O(#distinct) per group where possible — without
/// decompressing. Per-row kernels (Decompress, RightMatMult) replay the
/// uncompressed kernels' per-cell operation order and zero handling, so
/// their results are bit-identical to the uncompressed path; dictionary-
/// aggregated kernels (Sum, LeftMatMult, TsmmLeft) reassociate adds and are
/// deterministic but only approximately equal.
class CompressedMatrixBlock {
 public:
  /// Compresses a matrix with the default planner settings. Every column is
  /// kept (columns that do not pay off become uncompressed groups); use the
  /// planner's `worthwhile` gate to decide whether to compress at all.
  static CompressedMatrixBlock Compress(const MatrixBlock& m);

  /// Compresses following a planner-produced group layout; groups are built
  /// in parallel. The plan's encodings are hints from sampled estimates: the
  /// exact per-group scan upgrades DDC1->DDC2 when the true distinct count
  /// exceeds 255 and falls back to uncompressed on NaN or >65535 distinct.
  static CompressedMatrixBlock Compress(const MatrixBlock& m,
                                        const CompressionPlan& plan,
                                        int num_threads);

  /// Reassembles a block from deserialized parts (compress_io).
  static CompressedMatrixBlock FromParts(int64_t rows, int64_t cols,
                                         int64_t nnz,
                                         std::vector<ColGroup> groups);

  int64_t Rows() const { return rows_; }
  int64_t Cols() const { return cols_; }
  int64_t NonZeros() const { return nnz_; }

  /// Ratio of uncompressed (dense) size to compressed size; > 1 means the
  /// compression pays off.
  double CompressionRatio() const;
  int64_t EstimateSizeInBytes() const;

  /// Number of dictionary-coded columns (vs. uncompressed fallbacks).
  int64_t NumCompressedColumns() const;
  int64_t NumColGroups() const { return static_cast<int64_t>(groups_.size()); }
  /// True when no group fell back to uncompressed storage (the compressed
  /// tsmm kernel requires this).
  bool AllGroupsCompressed() const;

  const std::vector<ColGroup>& Groups() const { return groups_; }

  /// Reconstructs the uncompressed matrix (row-chunk parallel).
  MatrixBlock Decompress(int num_threads = 0) const;

  double Get(int64_t r, int64_t c) const;

  // ---- compressed operations (no decompression) ----

  /// sum(X): per-code counts times the dictionary (value-indexed
  /// pre-aggregation). Deterministic; approximately equal to the Kahan
  /// uncompressed aggregate.
  double Sum(int num_threads = 0) const;

  /// colSums(X) as 1 x cols.
  MatrixBlock ColSums() const;

  /// Full aggregate to a scalar for the dictionary-friendly subset
  /// (kSum, kMean, kNnz exact-count, kMin, kMax); Unimplemented otherwise
  /// (callers decompress and retry).
  StatusOr<double> Aggregate(AggOpCode op) const;

  /// Column aggregate (1 x cols) for kSum, kMean, kNnz, kMin, kMax.
  StatusOr<MatrixBlock> AggregateCols(AggOpCode op) const;

  /// X %*% b: dictionaries are pre-scaled where possible and codes index
  /// the scaled dictionary. Per-cell accumulation order and zero handling
  /// match the dense GEMM core exactly, so the result is bit-identical to
  /// MatMult on the decompressed input.
  StatusOr<MatrixBlock> RightMatMult(const MatrixBlock& b,
                                     int num_threads = 0) const;

  /// X %*% v for v of shape cols x 1 (compat wrapper over RightMatMult).
  StatusOr<MatrixBlock> MatVecRight(const MatrixBlock& v) const {
    return RightMatMult(v);
  }

  /// t(X) %*% b for b of shape rows x n: b-rows accumulate into per-code
  /// buckets (value-indexed aggregation), then one dictionary contraction
  /// per group.
  StatusOr<MatrixBlock> LeftMatMult(const MatrixBlock& b,
                                    int num_threads = 0) const;

  /// t(X) %*% y compat wrapper over LeftMatMult.
  StatusOr<MatrixBlock> VecMatLeft(const MatrixBlock& y) const {
    return LeftMatMult(y);
  }

  /// t(X) %*% X via per-group-pair code co-occurrence counts contracted
  /// with the dictionaries: O(rows * pairs) counting plus O(di * dj) per
  /// pair, independent of the output size. Requires AllGroupsCompressed();
  /// Unimplemented otherwise (callers decompress and retry).
  StatusOr<MatrixBlock> TsmmLeft(int num_threads = 0) const;

  /// X * scalar executed on dictionaries only (O(#distinct) per group).
  CompressedMatrixBlock ScaleByScalar(double s) const;

 private:
  int64_t rows_ = 0, cols_ = 0;
  int64_t nnz_ = 0;
  std::vector<ColGroup> groups_;
  // col_to_group_[c] = index into groups_ owning global column c.
  std::vector<int32_t> col_to_group_;

  void RebuildColIndex();
};

}  // namespace sysds

#endif  // SYSDS_RUNTIME_COMPRESS_COMPRESSED_BLOCK_H_
