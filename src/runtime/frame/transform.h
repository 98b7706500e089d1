#ifndef SYSDS_RUNTIME_FRAME_TRANSFORM_H_
#define SYSDS_RUNTIME_FRAME_TRANSFORM_H_

#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/config.h"
#include "common/status.h"
#include "runtime/compress/compressed_block.h"
#include "runtime/frame/frame_block.h"
#include "runtime/matrix/matrix_block.h"

namespace sysds {

/// Per-column transform selection parsed from a SystemDS-style JSON spec:
///   {"recode":["city"], "dummycode":["city"],
///    "bin":[{"name":"age","method":"equi-width","numbins":5}],
///    "impute":[{"name":"age","method":"mean"}]}
/// Columns may be referenced by name or 1-based index number.
struct TransformSpec {
  std::vector<int64_t> recode_cols;
  std::vector<int64_t> dummycode_cols;
  struct BinSpec {
    int64_t col;
    int64_t num_bins;
    std::string method;  // "equi-width" (default) or "equi-height"
  };
  std::vector<BinSpec> bin_cols;
  struct ImputeSpec {
    int64_t col;
    std::string method;  // "mean" or "mode" or "constant"
    std::string constant;
  };
  std::vector<ImputeSpec> impute_cols;
};

/// Parses the JSON spec against a frame (resolving column names).
StatusOr<TransformSpec> ParseTransformSpec(const std::string& spec_json,
                                           const FrameBlock& frame);

/// Options for MultiColumnEncoder::Apply. The output sink decides the
/// representation: recoded/dummy-coded/binned columns are natural DDC
/// column groups (the fitted dictionary gives the exact cardinality, so the
/// sampling planner is skipped), kAuto prices bytes per column like the
/// compression planner and emits dense below the min-ratio gate.
struct EncodeOptions {
  TransformOutputFormat output = TransformOutputFormat::kDense;
  // Most threads on the row-chunk parallel encode (<= 0: the whole pool).
  int num_threads = 0;
  // kAuto gate: emit compressed only when dense bytes / compressed bytes
  // reaches this ratio (same default as the compression planner).
  double min_ratio = 1.2;
};

/// Result of an encode: either a dense/sparse MatrixBlock or a directly
/// emitted CompressedMatrixBlock, depending on EncodeOptions::output.
class EncodedOutput {
 public:
  static EncodedOutput FromDense(MatrixBlock m);
  static EncodedOutput FromCompressed(CompressedMatrixBlock c);

  bool IsCompressed() const { return is_compressed_; }
  int64_t Rows() const;
  int64_t Cols() const;

  /// The dense result; only valid when !IsCompressed().
  MatrixBlock& Dense() { return dense_; }
  const MatrixBlock& Dense() const { return dense_; }

  /// The compressed result; only valid when IsCompressed().
  CompressedMatrixBlock& Compressed() { return compressed_; }
  const CompressedMatrixBlock& Compressed() const { return compressed_; }

  /// Materializes an uncompressed MatrixBlock (decompressing if needed).
  MatrixBlock ToMatrix(int num_threads = 0) const;

 private:
  bool is_compressed_ = false;
  MatrixBlock dense_;
  CompressedMatrixBlock compressed_;
};

/// The fitted state of a transformencode: recode dictionaries, bin
/// boundaries, impute values — consumable as data (the paper's "retain the
/// appearance of a stateless system by consuming pre-trained models and
/// rules as tensors/frames themselves").
///
/// Fit and Apply are chunked parallel pipelines (§4.2: multi-threaded
/// feature transformations). Determinism: the fit chunk decomposition is a
/// fixed row-block size independent of the thread count — threads only
/// change which worker runs a chunk, never the chunk boundaries — and the
/// per-chunk partials (distinct-token sets, sum/count pairs, value buffers)
/// are merged in chunk order. Token codes are assigned in sorted token
/// order and equi-height boundaries come from the merged sorted sample, so
/// fitting at any thread count produces identical state, and Apply (whose
/// cells are independent) is bit-identical to the serial reference path.
class MultiColumnEncoder {
 public:
  /// Fits all encoders on the input frame (transformencode's first half).
  /// `num_threads` caps the threads on each fit loop (<= 0: the whole pool).
  static StatusOr<MultiColumnEncoder> Fit(const FrameBlock& frame,
                                          const TransformSpec& spec,
                                          int num_threads = 0);

  /// Encodes a frame per the options. Unseen recode tokens map to 0
  /// (missing); unseen bin values clamp to boundary bins. The compressed
  /// sink emits DDC column groups directly from the fitted dictionaries;
  /// decompressing the result equals the dense result exactly.
  StatusOr<EncodedOutput> Apply(const FrameBlock& frame,
                                const EncodeOptions& options) const;

  /// Reference single-threaded encode: the pre-parallel implementation,
  /// cell at a time through the generic frame accessors. Kept as the
  /// differential baseline — Apply must be bit-identical to this at every
  /// thread count and for every sink.
  StatusOr<MatrixBlock> ApplyReferenceSerial(const FrameBlock& frame) const;

  /// Serializes the fitted state to a string frame (one column per input
  /// column; rows are "token(tab)code" / bin boundaries / impute value).
  FrameBlock MetaFrame() const;

  /// Rebuilds an encoder from a meta frame (transformapply's input).
  static StatusOr<MultiColumnEncoder> FromMeta(const TransformSpec& spec,
                                               const FrameBlock& meta,
                                               int64_t num_input_cols);

  /// Inverse transform of recode/dummycode columns (transformdecode).
  /// Row-chunk parallel; rows are independent.
  StatusOr<FrameBlock> Decode(const MatrixBlock& m, const FrameBlock& like,
                              int num_threads = 0) const;

  /// Number of output matrix columns after dummy-coding expansion.
  int64_t NumOutputCols() const;

 private:
  enum class ColEncodingKind { kPassThrough, kRecode, kBin };

  struct ColumnEncoder {
    ColEncodingKind encoding = ColEncodingKind::kPassThrough;
    bool dummycode = false;
    // Recode dictionary token -> 1-based code, and its inverse. The
    // ordered map defines code assignment and meta serialization; the
    // hash map is a lookup accelerator for the Apply hot path, rebuilt by
    // AssignOutputOffsets.
    std::map<std::string, int64_t> recode_map;
    std::unordered_map<std::string, int64_t> recode_lookup;
    std::vector<std::string> recode_tokens;
    // Binning state.
    int64_t num_bins = 0;
    double bin_min = 0.0, bin_width = 0.0;
    std::vector<double> bin_uppers;  // equi-height boundaries
    std::string bin_method;
    // Imputation.
    bool impute = false;
    double impute_value = 0.0;
    std::string impute_string;
    // Output placement.
    int64_t out_offset = 0;
    int64_t out_width = 1;
  };

  int64_t num_input_cols_ = 0;
  std::vector<ColumnEncoder> encoders_;

  void AssignOutputOffsets();

  StatusOr<CompressedMatrixBlock> ApplyCompressed(const FrameBlock& frame,
                                                  int num_threads) const;
};

}  // namespace sysds

#endif  // SYSDS_RUNTIME_FRAME_TRANSFORM_H_
