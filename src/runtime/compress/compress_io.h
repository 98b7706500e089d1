#ifndef SYSDS_RUNTIME_COMPRESS_COMPRESS_IO_H_
#define SYSDS_RUNTIME_COMPRESS_COMPRESS_IO_H_

#include <cstdint>
#include <iosfwd>
#include <string>

#include "common/status.h"
#include "runtime/compress/compressed_block.h"

namespace sysds {

/// Binary serialization of a CompressedMatrixBlock: little-endian header
/// (own magic, rows, cols, nnz, group count) followed by one record per
/// column group. Used by the buffer pool to spill compressed blocks in
/// compressed form — the spill file is a fraction of the dense block and
/// restore skips re-running the planner.
Status WriteCompressedBinary(const CompressedMatrixBlock& c,
                             const std::string& path);

StatusOr<CompressedMatrixBlock> ReadCompressedBinary(const std::string& path);

/// Stream variants of the same layout, for embedding compressed blocks in
/// checksummed containers (checkpoint files, atomic spill writes).
Status WriteCompressedStream(const CompressedMatrixBlock& c, std::ostream& out);

/// Reads the next `size` bytes of `in`; kCorrupt when a length field
/// exceeds what is left or a group names a column outside the block.
StatusOr<CompressedMatrixBlock> ReadCompressedStream(std::istream& in,
                                                     int64_t size);

}  // namespace sysds

#endif  // SYSDS_RUNTIME_COMPRESS_COMPRESS_IO_H_
