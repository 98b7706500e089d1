#ifndef SYSDS_IO_FORMAT_DESCRIPTOR_H_
#define SYSDS_IO_FORMAT_DESCRIPTOR_H_

#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "runtime/frame/frame_block.h"

namespace sysds {

/// High-level description of an external data format from which we
/// "generate" an efficient reader (paper §3.2: code generation of I/O
/// primitives from high-level descriptions). The generated reader is a
/// composed closure specialized to the descriptor — the in-process analogue
/// of emitting and compiling parser code: all format decisions (delimiter,
/// widths, key order) are resolved once at generation time, not per line.
///
/// Supported format kinds:
///  - "csv": delimited numeric matrix / string frame text
///  - "binary": SystemDS binary block format (matrix)
///  - "ijv": MatrixMarket-style coordinate text (matrix)
///  - "delimited": delimiter, optional header, typed columns (frame)
///  - "fixed-width": byte widths per column (frame)
///  - "key-value": lines of k=v pairs, keys mapped to columns (frame)
///
/// The descriptor doubles as the key of the io:: format registry: every
/// reader/writer is looked up by `kind`, so adding a format is one
/// RegisterFormat call, not a new set of free functions.
struct FormatDescriptor {
  std::string kind;
  char delimiter = ',';
  bool header = false;
  // Most threads on a parallel reader's loop (0 = the whole pool).
  int num_threads = 0;
  struct ColumnDesc {
    std::string name;
    ValueType type = ValueType::kString;
    int64_t width = 0;  // fixed-width only
  };
  std::vector<ColumnDesc> columns;

  // Convenience factories for the built-in matrix formats.
  static FormatDescriptor Csv(char delimiter = ',', bool header = false,
                              int num_threads = 0);
  static FormatDescriptor Binary();
  static FormatDescriptor Ijv();
  /// Maps a user-facing format name ("csv"/"text", "binary"/"bin",
  /// "ijv"/"mm"/"matrixmarket") to a descriptor of the canonical kind.
  static StatusOr<FormatDescriptor> FromFormatName(const std::string& name);
};

/// Parses a JSON format descriptor, e.g.
///   {"kind":"delimited","delimiter":";","header":true,
///    "columns":[{"name":"id","type":"int64"},{"name":"v","type":"fp64"}]}
StatusOr<FormatDescriptor> ParseFormatDescriptor(const std::string& json);

/// A generated reader: consumes a file and produces a typed frame.
using GeneratedReader =
    std::function<StatusOr<FrameBlock>(const std::string& path)>;

/// "Compiles" a reader for the descriptor. Returns CompileError for
/// malformed descriptors; the returned closure performs no per-record
/// format dispatch.
StatusOr<GeneratedReader> GenerateReader(const FormatDescriptor& desc);

/// A generated writer for the same descriptor (delimited only).
using GeneratedWriter = std::function<Status(const FrameBlock& frame,
                                             const std::string& path)>;
StatusOr<GeneratedWriter> GenerateWriter(const FormatDescriptor& desc);

}  // namespace sysds

#endif  // SYSDS_IO_FORMAT_DESCRIPTOR_H_
