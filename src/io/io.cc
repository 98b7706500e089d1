#include "io/io.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <vector>

#include "common/thread_pool.h"
#include "common/util.h"
#include "io/atomic_file.h"

namespace sysds {
namespace io {

StatusOr<MatrixBlock> Reader::ReadMatrix(const std::string& path,
                                         const FormatDescriptor& desc) const {
  (void)path;
  return Unimplemented("format '" + desc.kind + "' has no matrix reader");
}

StatusOr<FrameBlock> Reader::ReadFrame(
    const std::string& path, const FormatDescriptor& desc,
    const std::vector<ValueType>& schema) const {
  (void)path;
  (void)schema;
  return Unimplemented("format '" + desc.kind + "' has no frame reader");
}

Status Writer::WriteMatrix(const MatrixBlock& m, const std::string& path,
                           const FormatDescriptor& desc) const {
  (void)m;
  (void)path;
  return Unimplemented("format '" + desc.kind + "' has no matrix writer");
}

Status Writer::WriteFrame(const FrameBlock& f, const std::string& path,
                          const FormatDescriptor& desc) const {
  (void)f;
  (void)path;
  return Unimplemented("format '" + desc.kind + "' has no frame writer");
}

namespace {

StatusOr<std::string> ReadFileToString(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return IoError("cannot open '" + path + "' for reading");
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  return content;
}

// Splits [0, size) into chunks aligned to line boundaries; shared by the
// matrix and frame text readers so both parallelize identically. The chunk
// count depends on the size only (about 64 KB per chunk, at most
// kMaxLoopChunks); the thread budget is applied when the chunks run.
std::vector<std::pair<size_t, size_t>> LineAlignedChunks(
    const std::string& data) {
  constexpr size_t kChunkBytes = size_t{1} << 16;
  std::vector<std::pair<size_t, size_t>> chunks;
  size_t size = data.size();
  size_t num_chunks = std::clamp<size_t>(size / kChunkBytes, 1,
                                         static_cast<size_t>(kMaxLoopChunks));
  size_t target = size / num_chunks + 1;
  size_t begin = 0;
  while (begin < size) {
    size_t end = std::min(size, begin + target);
    while (end < size && data[end] != '\n') ++end;
    if (end < size) ++end;  // include the newline
    chunks.emplace_back(begin, end);
    begin = end;
  }
  return chunks;
}

// Fast double parse of data[b..e): strtod on a bounded token.
inline double ParseDoubleToken(const char* s, size_t len) {
  char buf[64];
  len = std::min(len, sizeof(buf) - 1);
  std::memcpy(buf, s, len);
  buf[len] = '\0';
  return std::strtod(buf, nullptr);
}

// ---------------------------------------------------------------------------
// csv: parallel numeric matrix text and frame text.

StatusOr<MatrixBlock> ReadMatrixCsvImpl(const std::string& path,
                                        const FormatDescriptor& desc) {
  SYSDS_ASSIGN_OR_RETURN(std::string data, ReadFileToString(path));

  size_t pos = 0;
  if (desc.header) {
    size_t nl = data.find('\n');
    pos = nl == std::string::npos ? data.size() : nl + 1;
  }
  if (pos >= data.size()) return MatrixBlock::Dense(0, 0);

  size_t first_end = data.find('\n', pos);
  if (first_end == std::string::npos) first_end = data.size();
  int64_t cols = 1;
  for (size_t i = pos; i < first_end; ++i) {
    if (data[i] == desc.delimiter) ++cols;
  }

  // Count rows (newlines in the body; tolerate missing trailing newline).
  int64_t rows = 0;
  for (size_t i = pos; i < data.size(); ++i) {
    if (data[i] == '\n') ++rows;
  }
  if (!data.empty() && data.back() != '\n') ++rows;

  MatrixBlock m = MatrixBlock::Dense(rows, cols);
  std::string body = data.substr(pos);
  auto chunks = LineAlignedChunks(body);

  // Precompute the starting row of each chunk.
  std::vector<int64_t> chunk_row(chunks.size() + 1, 0);
  for (size_t c = 0; c < chunks.size(); ++c) {
    int64_t lines = 0;
    for (size_t i = chunks[c].first; i < chunks[c].second; ++i) {
      if (body[i] == '\n') ++lines;
    }
    if (chunks[c].second == body.size() && !body.empty() &&
        body.back() != '\n') {
      ++lines;
    }
    chunk_row[c + 1] = chunk_row[c] + lines;
  }

  std::vector<Status> chunk_status(chunks.size());
  ThreadPool::Global().ParallelFor(
      0, static_cast<int64_t>(chunks.size()),
      static_cast<int64_t>(chunks.size()), [&](int64_t cb, int64_t ce) {
        for (int64_t c = cb; c < ce; ++c) {
          const char* p = body.data() + chunks[c].first;
          const char* end = body.data() + chunks[c].second;
          int64_t row = chunk_row[c];
          while (p < end) {
            const char* line_end = static_cast<const char*>(
                std::memchr(p, '\n', static_cast<size_t>(end - p)));
            if (line_end == nullptr) line_end = end;
            double* out = m.DenseRow(row);
            int64_t col = 0;
            const char* tok = p;
            for (const char* q = p; q <= line_end; ++q) {
              if (q == line_end || *q == desc.delimiter) {
                if (col < cols) {
                  out[col++] = ParseDoubleToken(
                      tok, static_cast<size_t>(q - tok));
                }
                tok = q + 1;
              }
            }
            if (col != cols) {
              chunk_status[c] = IoError(
                  "csv: row " + std::to_string(row + 1) + " has " +
                  std::to_string(col) + " columns, expected " +
                  std::to_string(cols));
              return;
            }
            ++row;
            p = line_end + 1;
          }
        }
      },
      Imbalance().io_read, desc.num_threads);
  for (const Status& s : chunk_status) SYSDS_RETURN_IF_ERROR(s);
  m.MarkNnzDirty();
  m.ExamSparsity();
  return m;
}

Status WriteMatrixCsvImpl(const MatrixBlock& m, const std::string& path,
                          const FormatDescriptor& desc) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return IoError("cannot open '" + path + "' for writing");
  char buf[64];
  for (int64_t r = 0; r < m.Rows(); ++r) {
    for (int64_t c = 0; c < m.Cols(); ++c) {
      double v = m.Get(r, c);
      int len = std::snprintf(buf, sizeof(buf), "%.17g", v);
      if (c > 0) std::fputc(desc.delimiter, f);
      std::fwrite(buf, 1, static_cast<size_t>(len), f);
    }
    std::fputc('\n', f);
  }
  std::fclose(f);
  return Status::Ok();
}

// True for numeric/boolean frame columns, which get strict cell validation.
inline bool IsTypedNumeric(ValueType t) {
  return t != ValueType::kString && t != ValueType::kUnknown;
}

// Parses a numeric frame cell strictly: empty is missing (0.0), anything
// else must be a full double literal (trailing spaces/CR allowed).
// Returns false on malformed input.
inline bool ParseStrictNumeric(const std::string& cell, double* out) {
  if (cell.empty()) {
    *out = 0.0;
    return true;
  }
  const char* s = cell.c_str();
  char* end = nullptr;
  double v = std::strtod(s, &end);
  if (end == s) return false;
  while (*end == ' ' || *end == '\t' || *end == '\r') ++end;
  if (*end != '\0') return false;
  *out = v;
  return true;
}

StatusOr<FrameBlock> ReadFrameCsvImpl(const std::string& path,
                                      const FormatDescriptor& desc,
                                      const std::vector<ValueType>& schema) {
  SYSDS_ASSIGN_OR_RETURN(std::string data, ReadFileToString(path));

  size_t pos = 0;
  std::vector<std::string> names;
  if (desc.header) {
    size_t nl = data.find('\n');
    size_t hdr_end = nl == std::string::npos ? data.size() : nl;
    names = SplitString(data.substr(0, hdr_end), desc.delimiter);
    pos = nl == std::string::npos ? data.size() : nl + 1;
  }
  std::string body = data.substr(pos);

  // Column count from the first non-empty line (header included when there
  // is no body, matching the serial reader).
  int64_t cols = 0;
  {
    size_t b = 0;
    std::string first_line;
    while (b < body.size()) {
      size_t nl = body.find('\n', b);
      if (nl == std::string::npos) nl = body.size();
      if (nl > b) {
        first_line = body.substr(b, nl - b);
        break;
      }
      b = nl + 1;
    }
    if (first_line.empty() && desc.header && !names.empty()) {
      cols = static_cast<int64_t>(names.size());
    } else if (!first_line.empty()) {
      cols = static_cast<int64_t>(
          SplitString(first_line, desc.delimiter).size());
    }
  }
  if (cols == 0) return FrameBlock(0, schema);

  std::vector<ValueType> sch = schema;
  if (sch.empty()) {
    sch.assign(static_cast<size_t>(cols), ValueType::kString);
  }
  if (static_cast<int64_t>(sch.size()) != cols) {
    return IoError("frame csv: schema size does not match column count");
  }

  auto chunks = LineAlignedChunks(body);
  // Rows = non-empty lines; prefix-count per chunk so workers know their
  // absolute row numbers (both for placement and error messages).
  std::vector<int64_t> chunk_row(chunks.size() + 1, 0);
  for (size_t c = 0; c < chunks.size(); ++c) {
    int64_t lines = 0;
    size_t b = chunks[c].first;
    while (b < chunks[c].second) {
      size_t nl = body.find('\n', b);
      if (nl == std::string::npos || nl >= chunks[c].second) {
        nl = chunks[c].second;
      }
      if (nl > b) ++lines;
      b = nl + 1;
    }
    chunk_row[c + 1] = chunk_row[c] + lines;
  }
  int64_t rows = chunk_row[chunks.size()];

  FrameBlock f(rows, sch, names);
  std::vector<Status> chunk_status(chunks.size());
  ThreadPool::Global().ParallelFor(
      0, static_cast<int64_t>(chunks.size()),
      static_cast<int64_t>(chunks.size()), [&](int64_t cb, int64_t ce) {
        for (int64_t c = cb; c < ce; ++c) {
          const char* base = body.data();
          size_t p = chunks[c].first;
          int64_t row = chunk_row[c];
          while (p < chunks[c].second) {
            const char* nl = static_cast<const char*>(
                std::memchr(base + p, '\n', chunks[c].second - p));
            size_t line_end =
                nl == nullptr ? chunks[c].second
                              : static_cast<size_t>(nl - base);
            if (line_end > p) {
              std::string line = body.substr(p, line_end - p);
              std::vector<std::string> cells =
                  SplitString(line, desc.delimiter);
              if (static_cast<int64_t>(cells.size()) != cols) {
                chunk_status[c] = IoError(
                    "frame csv: ragged row " + std::to_string(row + 1) +
                    ": " + std::to_string(cells.size()) +
                    " columns, expected " + std::to_string(cols));
                return;
              }
              for (int64_t col = 0; col < cols; ++col) {
                if (IsTypedNumeric(sch[static_cast<size_t>(col)])) {
                  double v;
                  if (!ParseStrictNumeric(cells[static_cast<size_t>(col)],
                                          &v)) {
                    chunk_status[c] = IoError(
                        "frame csv: row " + std::to_string(row + 1) +
                        ", column " + std::to_string(col + 1) +
                        ": malformed numeric value '" +
                        cells[static_cast<size_t>(col)] + "'");
                    return;
                  }
                  f.SetDouble(row, col, v);
                } else {
                  f.SetString(row, col,
                              cells[static_cast<size_t>(col)]);
                }
              }
              ++row;
            }
            p = line_end + 1;
          }
        }
      },
      Imbalance().io_read, desc.num_threads);
  for (const Status& s : chunk_status) SYSDS_RETURN_IF_ERROR(s);
  return f;
}

Status WriteFrameCsvImpl(const FrameBlock& f, const std::string& path,
                         const FormatDescriptor& desc) {
  std::ofstream out(path);
  if (!out) return IoError("cannot open '" + path + "' for writing");
  if (desc.header) {
    for (int64_t c = 0; c < f.Cols(); ++c) {
      if (c > 0) out << desc.delimiter;
      out << f.ColumnNames()[c];
    }
    out << "\n";
  }
  for (int64_t r = 0; r < f.Rows(); ++r) {
    for (int64_t c = 0; c < f.Cols(); ++c) {
      if (c > 0) out << desc.delimiter;
      out << f.GetString(r, c);
    }
    out << "\n";
  }
  return Status::Ok();
}

class CsvFormatReader : public Reader {
 public:
  StatusOr<MatrixBlock> ReadMatrix(const std::string& path,
                                   const FormatDescriptor& desc)
      const override {
    return ReadMatrixCsvImpl(path, desc);
  }
  StatusOr<FrameBlock> ReadFrame(const std::string& path,
                                 const FormatDescriptor& desc,
                                 const std::vector<ValueType>& schema)
      const override {
    return ReadFrameCsvImpl(path, desc, schema);
  }
};

class CsvFormatWriter : public Writer {
 public:
  Status WriteMatrix(const MatrixBlock& m, const std::string& path,
                     const FormatDescriptor& desc) const override {
    return WriteMatrixCsvImpl(m, path, desc);
  }
  Status WriteFrame(const FrameBlock& f, const std::string& path,
                    const FormatDescriptor& desc) const override {
    return WriteFrameCsvImpl(f, path, desc);
  }
};

// ---------------------------------------------------------------------------
// binary: SystemDS binary block format.

constexpr uint64_t kBinaryMagic = 0x53595344424d4231ULL;  // "SYSDBMB1"
constexpr uint64_t kBinaryFrameMagic = 0x53595344424d4631ULL;  // "SYSDBMF1"

class BinaryFormatReader : public Reader {
 public:
  StatusOr<MatrixBlock> ReadMatrix(const std::string& path,
                                   const FormatDescriptor& desc)
      const override {
    (void)desc;
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in) return IoError("cannot open '" + path + "' for reading");
    const int64_t size = static_cast<int64_t>(in.tellg());
    in.seekg(0);
    auto m = ReadMatrixBinaryStream(in, size);
    if (!m.ok()) {
      return Status(m.status().code(), m.status().message() + " ('" + path + "')");
    }
    return m;
  }
};

class BinaryFormatWriter : public Writer {
 public:
  Status WriteMatrix(const MatrixBlock& m, const std::string& path,
                     const FormatDescriptor& desc) const override {
    (void)desc;
    std::ofstream out(path, std::ios::binary);
    if (!out) return IoError("cannot open '" + path + "' for writing");
    SYSDS_RETURN_IF_ERROR(WriteMatrixBinaryStream(m, out));
    if (!out) return IoError("write failed for '" + path + "'");
    return Status::Ok();
  }
};

// ---------------------------------------------------------------------------
// ijv: MatrixMarket-style coordinate text.

class IjvFormatReader : public Reader {
 public:
  StatusOr<MatrixBlock> ReadMatrix(const std::string& path,
                                   const FormatDescriptor& desc)
      const override {
    (void)desc;
    std::ifstream in(path);
    if (!in) return IoError("cannot open '" + path + "' for reading");
    std::string header;
    if (!std::getline(in, header) || header.size() < 2 ||
        header.compare(0, 2, "%%") != 0) {
      return IoError("ijv: missing %% header in '" + path + "'");
    }
    long long rows = 0, cols = 0, nnz = 0;
    if (std::sscanf(header.c_str(), "%%%% %lld %lld %lld", &rows, &cols,
                    &nnz) < 2) {
      return IoError("ijv: malformed header '" + header + "'");
    }
    double sparsity = rows * cols > 0
                          ? static_cast<double>(nnz) / (rows * cols)
                          : 1.0;
    MatrixBlock m(rows, cols,
                  MatrixBlock::EvalSparseFormat(rows, cols, sparsity));
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      long long r = 0, c = 0;
      double v = 0.0;
      if (std::sscanf(line.c_str(), "%lld %lld %lf", &r, &c, &v) != 3) {
        return IoError("ijv: malformed line '" + line + "'");
      }
      if (r < 1 || r > rows || c < 1 || c > cols) {
        return IoError("ijv: cell index out of declared bounds");
      }
      m.Set(r - 1, c - 1, v);
    }
    m.MarkNnzDirty();
    return m;
  }
};

class IjvFormatWriter : public Writer {
 public:
  Status WriteMatrix(const MatrixBlock& m, const std::string& path,
                     const FormatDescriptor& desc) const override {
    (void)desc;
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return IoError("cannot open '" + path + "' for writing");
    }
    std::fprintf(f, "%%%% %lld %lld %lld\n",
                 static_cast<long long>(m.Rows()),
                 static_cast<long long>(m.Cols()),
                 static_cast<long long>(m.NonZeros()));
    for (int64_t r = 0; r < m.Rows(); ++r) {
      if (m.IsSparse()) {
        const SparseRow& row = m.SparseData().Row(r);
        for (int64_t p = 0; p < row.Size(); ++p) {
          std::fprintf(f, "%lld %lld %.17g\n",
                       static_cast<long long>(r + 1),
                       static_cast<long long>(row.Indexes()[p] + 1),
                       row.Values()[p]);
        }
      } else {
        for (int64_t c = 0; c < m.Cols(); ++c) {
          double v = m.Get(r, c);
          if (v != 0.0) {
            std::fprintf(f, "%lld %lld %.17g\n",
                         static_cast<long long>(r + 1),
                         static_cast<long long>(c + 1), v);
          }
        }
      }
    }
    std::fclose(f);
    return Status::Ok();
  }
};

// ---------------------------------------------------------------------------
// Generated frame formats (delimited/fixed-width/key-value): the registry
// entry compiles a reader closure from the descriptor on each call (§3.2
// code generation of I/O primitives), so the registry stays the single
// entry point for every format kind.

class GeneratedFormatReader : public Reader {
 public:
  StatusOr<FrameBlock> ReadFrame(const std::string& path,
                                 const FormatDescriptor& desc,
                                 const std::vector<ValueType>& schema)
      const override {
    if (!schema.empty()) {
      return InvalidArgument(
          "generated formats take their schema from the descriptor");
    }
    SYSDS_ASSIGN_OR_RETURN(GeneratedReader read, GenerateReader(desc));
    return read(path);
  }
};

class GeneratedFormatWriter : public Writer {
 public:
  Status WriteFrame(const FrameBlock& f, const std::string& path,
                    const FormatDescriptor& desc) const override {
    SYSDS_ASSIGN_OR_RETURN(GeneratedWriter write, GenerateWriter(desc));
    return write(f, path);
  }
};

}  // namespace

Status WriteMatrixBinaryStream(const MatrixBlock& m, std::ostream& out) {
  uint64_t magic = kBinaryMagic;
  int64_t rows = m.Rows(), cols = m.Cols(), nnz = m.NonZeros();
  uint8_t sparse = m.IsSparse() ? 1 : 0;
  out.write(reinterpret_cast<const char*>(&magic), 8);
  out.write(reinterpret_cast<const char*>(&rows), 8);
  out.write(reinterpret_cast<const char*>(&cols), 8);
  out.write(reinterpret_cast<const char*>(&nnz), 8);
  out.write(reinterpret_cast<const char*>(&sparse), 1);
  if (!m.IsSparse()) {
    out.write(reinterpret_cast<const char*>(m.DenseData()),
              static_cast<std::streamsize>(rows * cols * 8));
  } else {
    for (int64_t r = 0; r < rows; ++r) {
      const SparseRow& row = m.SparseData().Row(r);
      int64_t n = row.Size();
      out.write(reinterpret_cast<const char*>(&n), 8);
      out.write(reinterpret_cast<const char*>(row.Indexes()),
                static_cast<std::streamsize>(n * 8));
      out.write(reinterpret_cast<const char*>(row.Values()),
                static_cast<std::streamsize>(n * 8));
    }
  }
  if (!out) return IoError("binary matrix stream write failed");
  return Status::Ok();
}

StatusOr<MatrixBlock> ReadMatrixBinaryStream(std::istream& stream,
                                             int64_t size) {
  PayloadReader in(stream, size);
  uint64_t magic = 0;
  int64_t rows = 0, cols = 0, nnz = 0;
  uint8_t sparse = 0;
  if (!in.ReadPod(&magic) || magic != kBinaryMagic) {
    return CorruptError("not a SystemDS binary matrix");
  }
  if (!in.ReadPod(&rows) || !in.ReadPod(&cols) || !in.ReadPod(&nnz) ||
      !in.ReadPod(&sparse) || rows < 0 || cols < 0) {
    return CorruptError("malformed binary matrix header");
  }
  // The header must agree with the bytes that follow it before anything is
  // allocated: a dense payload is exactly rows*cols doubles, a sparse one
  // holds at least one length word per row.
  if (!sparse) {
    const bool fits = cols == 0 ? in.remaining() == 0
                                : rows <= in.remaining() / 8 / cols &&
                                      rows * cols * 8 == in.remaining();
    if (!fits) {
      return CorruptError("binary matrix header (" + std::to_string(rows) +
                          "x" + std::to_string(cols) +
                          " dense) disagrees with the payload size");
    }
    MatrixBlock m(rows, cols, false);
    if (!in.Read(m.DenseData(), rows * cols * 8)) {
      return CorruptError("truncated binary matrix");
    }
    m.SetNonZeros(nnz);
    return m;
  }
  if (!in.Fits(rows, 8)) {
    return CorruptError("binary matrix header (" + std::to_string(rows) +
                        " sparse rows) disagrees with the payload size");
  }
  MatrixBlock m(rows, cols, true);
  for (int64_t r = 0; r < rows; ++r) {
    int64_t n = 0;
    if (!in.ReadPod(&n) || n < 0 || n > cols || !in.Fits(n, 16)) {
      return CorruptError("malformed sparse row in binary matrix");
    }
    SparseRow& row = m.SparseData().Row(r);
    row.Resize(n);
    int64_t* idx = row.MutableIndexes();
    if (!in.Read(idx, n * 8) || !in.Read(row.MutableValues(), n * 8)) {
      return CorruptError("truncated binary matrix");
    }
    for (int64_t p = 0; p < n; ++p) {
      if (idx[p] < 0 || idx[p] >= cols) {
        return CorruptError("out-of-range column in binary sparse row");
      }
    }
  }
  m.SetNonZeros(nnz);
  return m;
}

Status WriteFrameBinaryStream(const FrameBlock& f, std::ostream& out) {
  uint64_t magic = kBinaryFrameMagic;
  int64_t rows = f.Rows(), cols = f.Cols();
  out.write(reinterpret_cast<const char*>(&magic), 8);
  out.write(reinterpret_cast<const char*>(&rows), 8);
  out.write(reinterpret_cast<const char*>(&cols), 8);
  auto write_string = [&out](const std::string& s) {
    int64_t n = static_cast<int64_t>(s.size());
    out.write(reinterpret_cast<const char*>(&n), 8);
    out.write(s.data(), static_cast<std::streamsize>(n));
  };
  for (int64_t c = 0; c < cols; ++c) {
    uint8_t type = static_cast<uint8_t>(f.Schema()[static_cast<size_t>(c)]);
    out.write(reinterpret_cast<const char*>(&type), 1);
  }
  uint8_t has_names = f.ColumnNames().empty() ? 0 : 1;
  out.write(reinterpret_cast<const char*>(&has_names), 1);
  if (has_names) {
    for (int64_t c = 0; c < cols; ++c) {
      write_string(f.ColumnNames()[static_cast<size_t>(c)]);
    }
  }
  for (int64_t c = 0; c < cols; ++c) {
    if (const double* num = f.NumericData(c)) {
      out.write(reinterpret_cast<const char*>(num),
                static_cast<std::streamsize>(rows * 8));
    } else {
      const std::string* str = f.StringData(c);
      for (int64_t r = 0; r < rows; ++r) write_string(str[r]);
    }
  }
  if (!out) return IoError("binary frame stream write failed");
  return Status::Ok();
}

StatusOr<FrameBlock> ReadFrameBinaryStream(std::istream& stream,
                                            int64_t size) {
  PayloadReader in(stream, size);
  uint64_t magic = 0;
  int64_t rows = 0, cols = 0;
  if (!in.ReadPod(&magic) || magic != kBinaryFrameMagic) {
    return CorruptError("not a SystemDS binary frame");
  }
  if (!in.ReadPod(&rows) || !in.ReadPod(&cols) || rows < 0 ||
      !in.Fits(cols, 1)) {
    return CorruptError("malformed binary frame header");
  }
  auto read_string = [&in](std::string* s) -> bool {
    int64_t n = 0;
    if (!in.ReadPod(&n) || !in.Fits(n, 1)) return false;
    s->resize(static_cast<size_t>(n));
    return in.Read(s->data(), n);
  };
  std::vector<ValueType> schema(static_cast<size_t>(cols));
  for (int64_t c = 0; c < cols; ++c) {
    uint8_t type = 0;
    if (!in.ReadPod(&type)) {
      return CorruptError("malformed binary frame header");
    }
    schema[static_cast<size_t>(c)] = static_cast<ValueType>(type);
  }
  uint8_t has_names = 0;
  if (!in.ReadPod(&has_names)) {
    return CorruptError("malformed binary frame header");
  }
  std::vector<std::string> names;
  if (has_names) {
    names.resize(static_cast<size_t>(cols));
    for (int64_t c = 0; c < cols; ++c) {
      if (!read_string(&names[static_cast<size_t>(c)])) {
        return CorruptError("malformed binary frame column names");
      }
    }
  }
  // Every cell takes at least 8 payload bytes (a double or a length word).
  if (cols > 0 && !in.Fits(rows, 8 * cols)) {
    return CorruptError("binary frame header disagrees with the payload size");
  }
  FrameBlock f = has_names ? FrameBlock(rows, schema, names)
                           : FrameBlock(rows, schema);
  for (int64_t c = 0; c < cols; ++c) {
    if (schema[static_cast<size_t>(c)] == ValueType::kString) {
      std::string cell;
      for (int64_t r = 0; r < rows; ++r) {
        if (!read_string(&cell)) return CorruptError("truncated binary frame");
        f.SetString(r, c, cell);
      }
    } else {
      std::vector<double> col(static_cast<size_t>(rows));
      if (!in.Read(col.data(), rows * 8)) {
        return CorruptError("truncated binary frame");
      }
      for (int64_t r = 0; r < rows; ++r) {
        f.SetDouble(r, c, col[static_cast<size_t>(r)]);
      }
    }
  }
  return f;
}

FormatRegistry::FormatRegistry() {
  RegisterFormat("csv", std::make_unique<CsvFormatReader>(),
                 std::make_unique<CsvFormatWriter>());
  RegisterFormat("binary", std::make_unique<BinaryFormatReader>(),
                 std::make_unique<BinaryFormatWriter>());
  RegisterFormat("ijv", std::make_unique<IjvFormatReader>(),
                 std::make_unique<IjvFormatWriter>());
  RegisterFormat("delimited", std::make_unique<GeneratedFormatReader>(),
                 std::make_unique<GeneratedFormatWriter>());
  RegisterFormat("fixed-width", std::make_unique<GeneratedFormatReader>(),
                 nullptr);
  RegisterFormat("key-value", std::make_unique<GeneratedFormatReader>(),
                 nullptr);
}

FormatRegistry& FormatRegistry::Get() {
  static FormatRegistry* registry = new FormatRegistry();
  return *registry;
}

void FormatRegistry::RegisterFormat(const std::string& kind,
                                    std::unique_ptr<Reader> reader,
                                    std::unique_ptr<Writer> writer) {
  for (auto& [name, entry] : formats_) {
    if (name == kind) {
      entry.reader = std::move(reader);
      entry.writer = std::move(writer);
      return;
    }
  }
  formats_.emplace_back(kind, Entry{std::move(reader), std::move(writer)});
}

StatusOr<const Reader*> FormatRegistry::FindReader(
    const std::string& kind) const {
  for (const auto& [name, entry] : formats_) {
    if (name == kind && entry.reader != nullptr) return entry.reader.get();
  }
  return InvalidArgument("no reader registered for format '" + kind + "'");
}

StatusOr<const Writer*> FormatRegistry::FindWriter(
    const std::string& kind) const {
  for (const auto& [name, entry] : formats_) {
    if (name == kind && entry.writer != nullptr) return entry.writer.get();
  }
  return InvalidArgument("no writer registered for format '" + kind + "'");
}

std::vector<std::string> FormatRegistry::Kinds() const {
  std::vector<std::string> kinds;
  for (const auto& [name, entry] : formats_) kinds.push_back(name);
  return kinds;
}

StatusOr<MatrixBlock> Read(const std::string& path,
                           const FormatDescriptor& desc) {
  SYSDS_ASSIGN_OR_RETURN(const Reader* reader,
                         FormatRegistry::Get().FindReader(desc.kind));
  return reader->ReadMatrix(path, desc);
}

StatusOr<FrameBlock> ReadFrame(const std::string& path,
                               const FormatDescriptor& desc,
                               const std::vector<ValueType>& schema) {
  SYSDS_ASSIGN_OR_RETURN(const Reader* reader,
                         FormatRegistry::Get().FindReader(desc.kind));
  return reader->ReadFrame(path, desc, schema);
}

Status Write(const MatrixBlock& m, const std::string& path,
             const FormatDescriptor& desc) {
  SYSDS_ASSIGN_OR_RETURN(const Writer* writer,
                         FormatRegistry::Get().FindWriter(desc.kind));
  return writer->WriteMatrix(m, path, desc);
}

Status Write(const FrameBlock& f, const std::string& path,
             const FormatDescriptor& desc) {
  SYSDS_ASSIGN_OR_RETURN(const Writer* writer,
                         FormatRegistry::Get().FindWriter(desc.kind));
  return writer->WriteFrame(f, path, desc);
}

}  // namespace io
}  // namespace sysds
