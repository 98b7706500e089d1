#ifndef SYSDS_IO_ATOMIC_FILE_H_
#define SYSDS_IO_ATOMIC_FILE_H_

#include <cstdint>
#include <functional>
#include <istream>
#include <ostream>
#include <string>

#include "common/status.h"

namespace sysds {
namespace io {

// Crash-safe durable files: every spill/checkpoint artifact is written
// through WriteAtomic (payload streamed to `<path>.tmp` through a buffered
// CRC-32, checksum footer appended, then an atomic rename installs the
// final name) and read back through ReadVerified, which streams the payload
// into the caller's parser and checks the footer's size and CRC once the
// parser is done. No parse result is used before the footer's size and CRC
// match: on a mismatch ReadVerified returns StatusCode::kCorrupt —
// retryable per the fault-tolerance taxonomy — and the caller discards
// whatever the parser built. A crash mid-write leaves at worst a stale
// `.tmp` alongside the previous intact version.

/// Footer magic trailing every checksummed file ("SYSDSCRC", little-endian).
constexpr uint64_t kChecksumFooterMagic = 0x4352435344535953ULL;

/// Bytes of (magic, payload_size, crc32, pad) appended after the payload.
constexpr int64_t kChecksumFooterSize = 8 + 8 + 4 + 4;

/// Streams the payload produced by `write_payload` into `path + ".tmp"`,
/// appends the checksum footer, flushes, and atomically renames onto
/// `path`. The callback writes the payload to the provided stream and may
/// fail; on any failure the temp file is removed and `path` is untouched.
Status WriteAtomic(const std::string& path,
                   const std::function<Status(std::ostream&)>& write_payload);

/// Parses a payload of `size` bytes from `in`.
using PayloadParser = std::function<Status(std::istream& in, int64_t size)>;

/// Reads the checksum footer of `path`, then streams the payload through
/// `parse`: the stream reports end-of-file at the payload end, and `size`
/// is the footer's payload size (checked against the file length), so the
/// parser can bound every allocation by it. Bytes the parser leaves unread
/// are drained into the CRC. Returns kIoError when the file cannot be
/// opened; kCorrupt when the footer is missing, its size disagrees with the
/// file, or the CRC does not match — then the caller must drop what `parse`
/// built; otherwise `parse`'s own status.
Status ReadVerified(const std::string& path, const PayloadParser& parse);

/// Reads a payload of known size, refusing any read the remaining bytes
/// cannot hold. ReadVerified runs parsers before the CRC is known, so every
/// length field a parser reads is checked with Fits() against what is left
/// before it sizes an allocation.
class PayloadReader {
 public:
  PayloadReader(std::istream& in, int64_t size) : in_(in), left_(size) {}

  int64_t remaining() const { return left_; }

  /// True when `count` items of `item_bytes` each fit in what is left
  /// (overflow-safe).
  bool Fits(int64_t count, int64_t item_bytes) const {
    return count >= 0 && item_bytes > 0 && count <= left_ / item_bytes;
  }

  /// Reads `n` bytes into `dst`; false when `n` exceeds what is left or
  /// the stream ends early.
  bool Read(void* dst, int64_t n) {
    if (n < 0 || n > left_) return false;
    if (n == 0) return true;
    // Straight to the stream buffer: a sparse payload is read in hundreds
    // of thousands of small pieces, and istream::read's per-call sentry
    // would cost as much as the copies.
    if (in_.rdbuf()->sgetn(static_cast<char*>(dst),
                           static_cast<std::streamsize>(n)) != n) {
      return false;
    }
    left_ -= n;
    return true;
  }

  template <typename T>
  bool ReadPod(T* v) {
    return Read(v, static_cast<int64_t>(sizeof(T)));
  }

 private:
  std::istream& in_;
  int64_t left_;
};

}  // namespace io
}  // namespace sysds

#endif  // SYSDS_IO_ATOMIC_FILE_H_
