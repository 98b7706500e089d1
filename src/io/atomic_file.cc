#include "io/atomic_file.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <streambuf>

#include "common/crc32.h"

namespace sysds {
namespace io {

namespace {

// Spill and checkpoint I/O moves data in chunks of this size: big enough
// that the per-chunk CRC call and file write vanish next to the copy, small
// enough that a restore's transient memory is one block plus one buffer.
constexpr int64_t kIoBufferBytes = int64_t{1} << 20;

// Put area in front of the payload file. Small writes (a sparse row, a
// header field) are memcpys; each full buffer is checksummed once and goes
// to the file in one write. A write of at least a buffer flushes what is
// pending and then goes to the file straight from the caller's memory.
class ChecksummingWriteBuf : public std::streambuf {
 public:
  explicit ChecksummingWriteBuf(std::ofstream* out)
      : out_(out), buf_(new char[kIoBufferBytes]) {
    setp(buf_.get(), buf_.get() + kIoBufferBytes);
  }

  uint32_t crc() const { return crc_.Value(); }
  int64_t bytes() const { return bytes_; }

  /// Writes out the pending bytes; false when the file write failed.
  bool Flush() {
    if (pptr() > pbase()) {
      Emit(pbase(), pptr() - pbase());
      setp(buf_.get(), buf_.get() + kIoBufferBytes);
    }
    return out_->good();
  }

 protected:
  int_type overflow(int_type ch) override {
    if (!Flush()) return traits_type::eof();
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      *pptr() = traits_type::to_char_type(ch);
      pbump(1);
    }
    return traits_type::not_eof(ch);
  }

  std::streamsize xsputn(const char* s, std::streamsize n) override {
    if (n <= 0) return 0;
    const std::streamsize space = epptr() - pptr();
    if (n < space) {
      std::memcpy(pptr(), s, static_cast<size_t>(n));
      pbump(static_cast<int>(n));
      return n;
    }
    if (n < kIoBufferBytes) {
      // Top up the buffer, write it, and start the next one with the rest.
      std::memcpy(pptr(), s, static_cast<size_t>(space));
      pbump(static_cast<int>(space));
      if (!Flush()) return 0;
      std::memcpy(pptr(), s + space, static_cast<size_t>(n - space));
      pbump(static_cast<int>(n - space));
      return n;
    }
    if (!Flush()) return 0;
    Emit(s, n);
    return out_->good() ? n : 0;
  }

  int sync() override { return Flush() ? 0 : -1; }

 private:
  void Emit(const char* s, std::streamsize n) {
    crc_.Update(s, static_cast<size_t>(n));
    bytes_ += n;
    out_->write(s, n);
  }

  std::ofstream* out_;
  std::unique_ptr<char[]> buf_;
  Crc32 crc_;
  int64_t bytes_ = 0;
};

// Get area over the payload of a checksummed file. Every byte read from the
// file is folded into the CRC as it arrives, and the stream reports
// end-of-file at the payload end, never inside the footer. A read of at
// least a buffer goes from the file straight into the caller's memory — a
// dense block is read into its final allocation.
class VerifyingReadBuf : public std::streambuf {
 public:
  VerifyingReadBuf(std::ifstream* in, int64_t payload_size)
      : in_(in),
        left_(payload_size),
        cap_(std::max<int64_t>(1, std::min(payload_size, kIoBufferBytes))),
        buf_(new char[cap_]) {
    setg(buf_.get(), buf_.get(), buf_.get());
  }

  uint32_t crc() const { return crc_.Value(); }

  /// Reads and checksums whatever the parser left unread; false when the
  /// file ended before the payload size the footer recorded.
  bool Drain() {
    setg(buf_.get(), buf_.get(), buf_.get());
    while (left_ > 0) {
      if (Fill(buf_.get(), std::min(left_, cap_)) == 0) return false;
    }
    return !short_read_;
  }

 protected:
  int_type underflow() override {
    if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
    const int64_t got = Fill(buf_.get(), std::min(left_, cap_));
    if (got == 0) return traits_type::eof();
    setg(buf_.get(), buf_.get(), buf_.get() + got);
    return traits_type::to_int_type(*gptr());
  }

  std::streamsize xsgetn(char* s, std::streamsize n) override {
    if (n <= 0) return 0;
    std::streamsize done = std::min<std::streamsize>(n, egptr() - gptr());
    std::memcpy(s, gptr(), static_cast<size_t>(done));
    gbump(static_cast<int>(done));
    while (done < n) {
      const int64_t want = n - done;
      if (want >= cap_) {
        const int64_t got = Fill(s + done, std::min(want, left_));
        if (got == 0) break;
        done += got;
        continue;
      }
      if (traits_type::eq_int_type(underflow(), traits_type::eof())) break;
      const std::streamsize take =
          std::min<std::streamsize>(want, egptr() - gptr());
      std::memcpy(s + done, gptr(), static_cast<size_t>(take));
      gbump(static_cast<int>(take));
      done += take;
    }
    return done;
  }

 private:
  // Reads up to `n` payload bytes from the file into `dst` and checksums
  // them. Returns the count read: 0 at the payload end or a failed read.
  int64_t Fill(char* dst, int64_t n) {
    if (n <= 0) return 0;
    in_->read(dst, static_cast<std::streamsize>(n));
    const int64_t got = static_cast<int64_t>(in_->gcount());
    crc_.Update(dst, static_cast<size_t>(got));
    left_ -= got;
    if (got < n) short_read_ = true;
    return got;
  }

  std::ifstream* in_;
  int64_t left_;
  const int64_t cap_;
  std::unique_ptr<char[]> buf_;
  Crc32 crc_;
  bool short_read_ = false;
};

}  // namespace

Status WriteAtomic(const std::string& path,
                   const std::function<Status(std::ostream&)>& write_payload) {
  const std::string tmp = path + ".tmp";
  Status result;
  {
    // Unbuffered file: ChecksummingWriteBuf already hands it whole buffers.
    std::ofstream out;
    out.rdbuf()->pubsetbuf(nullptr, 0);
    out.open(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return IoError("cannot open '" + tmp + "' for writing");
    ChecksummingWriteBuf buf(&out);
    std::ostream payload_stream(&buf);
    result = write_payload(payload_stream);
    if (result.ok() && (!buf.Flush() || !payload_stream)) {
      result = IoError("write failed for '" + tmp + "'");
    }
    if (result.ok()) {
      // The footer bypasses the checksumming buffer: it covers the payload.
      char footer[kChecksumFooterSize] = {};
      const uint64_t magic = kChecksumFooterMagic;
      const int64_t size = buf.bytes();
      const uint32_t crc = buf.crc();
      std::memcpy(footer, &magic, 8);
      std::memcpy(footer + 8, &size, 8);
      std::memcpy(footer + 16, &crc, 4);
      out.write(footer, kChecksumFooterSize);
      out.flush();
      if (!out) result = IoError("footer write failed for '" + tmp + "'");
    }
  }
  if (result.ok() && std::rename(tmp.c_str(), path.c_str()) != 0) {
    result = IoError("atomic rename failed for '" + path + "'");
  }
  if (!result.ok()) std::remove(tmp.c_str());
  return result;
}

Status ReadVerified(const std::string& path, const PayloadParser& parse) {
  // Unbuffered file: VerifyingReadBuf reads it in whole buffers.
  std::ifstream in;
  in.rdbuf()->pubsetbuf(nullptr, 0);
  in.open(path, std::ios::binary);
  if (!in) return IoError("cannot open '" + path + "' for reading");
  in.seekg(0, std::ios::end);
  const int64_t file_size = static_cast<int64_t>(in.tellg());
  if (file_size < kChecksumFooterSize) {
    return CorruptError("'" + path + "': too short for a checksum footer");
  }
  char footer[kChecksumFooterSize];
  in.seekg(file_size - kChecksumFooterSize);
  in.read(footer, kChecksumFooterSize);
  if (!in) return IoError("cannot read the footer of '" + path + "'");
  uint64_t magic = 0;
  int64_t size = 0;
  uint32_t crc = 0;
  std::memcpy(&magic, footer, 8);
  std::memcpy(&size, footer + 8, 8);
  std::memcpy(&crc, footer + 16, 4);
  if (magic != kChecksumFooterMagic) {
    return CorruptError("'" + path + "': missing checksum footer (truncated?)");
  }
  const int64_t payload_size = file_size - kChecksumFooterSize;
  if (size != payload_size) {
    return CorruptError("'" + path + "': payload size mismatch (recorded " +
                        std::to_string(size) + ", actual " +
                        std::to_string(payload_size) + ")");
  }
  in.seekg(0);
  VerifyingReadBuf buf(&in, payload_size);
  std::istream payload(&buf);
  Status parsed = parse(payload, payload_size);
  if (!buf.Drain()) {
    return CorruptError("'" + path + "': file ended inside the payload");
  }
  if (buf.crc() != crc) {
    return CorruptError("'" + path + "': CRC32 mismatch (file is corrupt)");
  }
  return parsed;
}

}  // namespace io
}  // namespace sysds
