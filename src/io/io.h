#ifndef SYSDS_IO_IO_H_
#define SYSDS_IO_IO_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "io/format_descriptor.h"
#include "runtime/frame/frame_block.h"
#include "runtime/matrix/matrix_block.h"

namespace sysds {
namespace io {

/// A format's read side. Implementations override the entry points they
/// support; the defaults return Unimplemented so a matrix-only format (e.g.
/// binary blocks) needs no frame stub and vice versa.
class Reader {
 public:
  virtual ~Reader() = default;
  virtual StatusOr<MatrixBlock> ReadMatrix(const std::string& path,
                                           const FormatDescriptor& desc) const;
  virtual StatusOr<FrameBlock> ReadFrame(const std::string& path,
                                         const FormatDescriptor& desc,
                                         const std::vector<ValueType>& schema)
      const;
};

/// A format's write side; same default-Unimplemented contract as Reader.
class Writer {
 public:
  virtual ~Writer() = default;
  virtual Status WriteMatrix(const MatrixBlock& m, const std::string& path,
                             const FormatDescriptor& desc) const;
  virtual Status WriteFrame(const FrameBlock& f, const std::string& path,
                            const FormatDescriptor& desc) const;
};

/// Registry mapping FormatDescriptor::kind to its Reader/Writer. The
/// built-in formats (csv, binary, ijv, and the generated frame kinds
/// delimited/fixed-width/key-value) self-register; external formats add one
/// RegisterFormat call. Lookup is by exact kind string — callers usually go
/// through FormatDescriptor::FromFormatName first.
class FormatRegistry {
 public:
  static FormatRegistry& Get();

  /// Registers (or replaces) a format; either side may be null for
  /// read-only / write-only formats.
  void RegisterFormat(const std::string& kind, std::unique_ptr<Reader> reader,
                      std::unique_ptr<Writer> writer);

  StatusOr<const Reader*> FindReader(const std::string& kind) const;
  StatusOr<const Writer*> FindWriter(const std::string& kind) const;
  std::vector<std::string> Kinds() const;

 private:
  FormatRegistry();
  struct Entry {
    std::unique_ptr<Reader> reader;
    std::unique_ptr<Writer> writer;
  };
  std::vector<std::pair<std::string, Entry>> formats_;
};

// ---------------------------------------------------------------------------
// Unified entry points: one Read/Write pair for every format, keyed by the
// descriptor.

/// Reads a matrix in the format named by desc.kind.
StatusOr<MatrixBlock> Read(const std::string& path,
                           const FormatDescriptor& desc);

/// Reads a frame. An empty schema means all-string columns inferred from
/// the first row (csv) or the descriptor's columns (generated kinds).
StatusOr<FrameBlock> ReadFrame(const std::string& path,
                               const FormatDescriptor& desc,
                               const std::vector<ValueType>& schema = {});

/// Writes a matrix in the format named by desc.kind.
Status Write(const MatrixBlock& m, const std::string& path,
             const FormatDescriptor& desc);

/// Writes a frame in the format named by desc.kind.
Status Write(const FrameBlock& f, const std::string& path,
             const FormatDescriptor& desc);

// ---------------------------------------------------------------------------
// Stream-based binary serialization. The binary file format, the buffer
// pool's spill files, and the recovery subsystem's checkpoint files all
// share these, so a block written by any of them round-trips through the
// others (and through io::WriteAtomic's checksummed payload stream).

/// Writes `m` in SystemDS binary block layout (magic + header + payload).
Status WriteMatrixBinaryStream(const MatrixBlock& m, std::ostream& out);

/// Reads a matrix written by WriteMatrixBinaryStream from the next `size`
/// bytes of `in`. Fails with kCorrupt on a bad magic, on a header that
/// disagrees with `size` (checked before anything is allocated), and on
/// truncation. Dense payloads are read straight into the block and sparse
/// rows straight into their row vectors.
StatusOr<MatrixBlock> ReadMatrixBinaryStream(std::istream& in, int64_t size);

/// Writes `f` (schema, column names, cells) in a binary frame layout.
Status WriteFrameBinaryStream(const FrameBlock& f, std::ostream& out);

/// Reads a frame written by WriteFrameBinaryStream from the next `size`
/// bytes of `in`; kCorrupt when a length field exceeds what is left.
StatusOr<FrameBlock> ReadFrameBinaryStream(std::istream& in, int64_t size);

}  // namespace io
}  // namespace sysds

#endif  // SYSDS_IO_IO_H_
