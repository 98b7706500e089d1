#include "runtime/compress/compress_io.h"

#include <cstdint>
#include <fstream>
#include <istream>
#include <ostream>
#include <vector>

#include "io/atomic_file.h"

namespace sysds {

namespace {

// "SDSCMP01" little-endian.
constexpr uint64_t kCompressedMagic = 0x313030504D435344ULL;

template <typename T>
void WritePod(std::ostream& out, const T& v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
void WriteVec(std::ostream& out, const std::vector<T>& v) {
  int64_t n = static_cast<int64_t>(v.size());
  WritePod(out, n);
  if (n > 0) {
    out.write(reinterpret_cast<const char*>(v.data()),
              static_cast<std::streamsize>(n * sizeof(T)));
  }
}

template <typename T>
bool ReadVec(io::PayloadReader& in, std::vector<T>* v) {
  int64_t n = 0;
  if (!in.ReadPod(&n) || !in.Fits(n, sizeof(T))) return false;
  v->resize(static_cast<size_t>(n));
  return in.Read(v->data(), n * static_cast<int64_t>(sizeof(T)));
}

}  // namespace

Status WriteCompressedStream(const CompressedMatrixBlock& c,
                             std::ostream& out) {
  WritePod(out, kCompressedMagic);
  WritePod(out, c.Rows());
  WritePod(out, c.Cols());
  WritePod(out, c.NonZeros());
  WritePod(out, c.NumColGroups());
  for (const ColGroup& g : c.Groups()) {
    WritePod(out, static_cast<uint8_t>(g.encoding));
    WritePod(out, g.sdc_default);
    WriteVec(out, g.cols);
    WriteVec(out, g.dict);
    WriteVec(out, g.codes8);
    WriteVec(out, g.codes16);
    WriteVec(out, g.run_starts);
    WriteVec(out, g.run_codes);
    WriteVec(out, g.sdc_rows);
    WriteVec(out, g.sdc_codes);
    WriteVec(out, g.values);
    WriteVec(out, g.col_has_nonfinite);
  }
  if (!out) return IoError("compressed block stream write failed");
  return Status::Ok();
}

StatusOr<CompressedMatrixBlock> ReadCompressedStream(std::istream& stream,
                                                     int64_t size) {
  io::PayloadReader in(stream, size);
  uint64_t magic = 0;
  int64_t rows = 0, cols = 0, nnz = 0, ngroups = 0;
  if (!in.ReadPod(&magic) || magic != kCompressedMagic) {
    return CorruptError("not a SystemDS compressed matrix");
  }
  // A group takes at least its encoding byte, default code and 10 lengths.
  constexpr int64_t kMinGroupBytes = 1 + sizeof(ColGroup::sdc_default) + 10 * 8;
  if (!in.ReadPod(&rows) || !in.ReadPod(&cols) || !in.ReadPod(&nnz) ||
      !in.ReadPod(&ngroups) || rows < 0 || cols < 0 ||
      !in.Fits(ngroups, kMinGroupBytes)) {
    return CorruptError("truncated compressed matrix header");
  }
  std::vector<ColGroup> groups(static_cast<size_t>(ngroups));
  int64_t group_cols = 0;
  for (ColGroup& g : groups) {
    uint8_t enc = 0;
    bool ok = in.ReadPod(&enc) && in.ReadPod(&g.sdc_default) &&
              ReadVec(in, &g.cols) && ReadVec(in, &g.dict) &&
              ReadVec(in, &g.codes8) && ReadVec(in, &g.codes16) &&
              ReadVec(in, &g.run_starts) && ReadVec(in, &g.run_codes) &&
              ReadVec(in, &g.sdc_rows) && ReadVec(in, &g.sdc_codes) &&
              ReadVec(in, &g.values) && ReadVec(in, &g.col_has_nonfinite);
    if (!ok || enc > static_cast<uint8_t>(ColEncoding::kSDC)) {
      return CorruptError("truncated compressed matrix group");
    }
    for (int64_t c : g.cols) {
      if (c < 0 || c >= cols) {
        return CorruptError("compressed matrix group column out of range");
      }
    }
    group_cols += static_cast<int64_t>(g.cols.size());
    g.encoding = static_cast<ColEncoding>(enc);
  }
  // Every column belongs to a group; this also bounds the column index
  // FromParts allocates by the payload size.
  if (group_cols < cols) {
    return CorruptError("compressed matrix groups do not cover its columns");
  }
  return CompressedMatrixBlock::FromParts(rows, cols, nnz, std::move(groups));
}

Status WriteCompressedBinary(const CompressedMatrixBlock& c,
                             const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return IoError("cannot open '" + path + "' for writing");
  Status st = WriteCompressedStream(c, out);
  if (!st.ok()) {
    return IoError("failed writing compressed block to '" + path + "'");
  }
  out.flush();
  if (!out) return IoError("failed writing compressed block to '" + path + "'");
  return Status::Ok();
}

StatusOr<CompressedMatrixBlock> ReadCompressedBinary(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return IoError("cannot open '" + path + "' for reading");
  const int64_t size = static_cast<int64_t>(in.tellg());
  in.seekg(0);
  auto c = ReadCompressedStream(in, size);
  if (!c.ok()) {
    return Status(c.status().code(),
                  c.status().message() + " ('" + path + "')");
  }
  return c;
}

}  // namespace sysds
