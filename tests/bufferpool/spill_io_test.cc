// Spill and checkpoint file I/O (ctest -L bufferpool): the sliced CRC-32
// against a byte-at-a-time oracle, byte-identical spill, binary and
// checkpoint files, corruption caught by every ReadVerified caller, binary
// headers validated before allocation, and prefetch admission/retention.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "api/systemds_context.h"
#include "common/crc32.h"
#include "common/faults.h"
#include "io/atomic_file.h"
#include "io/io.h"
#include "obs/metrics.h"
#include "runtime/bufferpool/buffer_pool.h"
#include "runtime/controlprog/data.h"
#include "runtime/matrix/lib_datagen.h"
#include "runtime/ps/param_server.h"

namespace sysds {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Helpers.

// The classic byte-at-a-time CRC-32 (reflected 0xEDB88320): the oracle the
// sliced implementation must match on every length and alignment.
class OracleCrc {
 public:
  OracleCrc() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      table_[i] = c;
    }
  }
  void Update(const unsigned char* p, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      state_ = table_[(state_ ^ p[i]) & 0xFFu] ^ (state_ >> 8);
    }
  }
  uint32_t Value() const { return state_ ^ 0xFFFFFFFFu; }

 private:
  uint32_t table_[256];
  uint32_t state_ = 0xFFFFFFFFu;
};

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = (fs::temp_directory_path() /
             ("sysds_spillio_" + tag + "_" +
              std::to_string(reinterpret_cast<uintptr_t>(this))))
                .string();
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }
  std::string File(const std::string& name) const {
    return (fs::path(path_) / name).string();
  }

 private:
  std::string path_;
};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Size and oracle CRC of a whole file.
std::pair<size_t, uint32_t> FileCrc(const std::string& path) {
  const std::string bytes = ReadFile(path);
  OracleCrc crc;
  crc.Update(reinterpret_cast<const unsigned char*>(bytes.data()),
             bytes.size());
  return {bytes.size(), crc.Value()};
}

// A 400x400 dense block (1.28 MB: the payload spans two I/O buffers).
MatrixBlock GoldenDense() {
  MatrixBlock m = MatrixBlock::Dense(400, 400, 0.0);
  for (int64_t i = 0; i < 400; ++i) {
    for (int64_t j = 0; j < 400; ++j) {
      m.Set(i, j, static_cast<double>((i * 31 + j * 7) % 101) * 0.25 - 3.0);
    }
  }
  return m;
}

// A 20000x100 sparse block with ~5 nonzeros per row (1.8 MB of rows).
MatrixBlock GoldenSparse() {
  MatrixBlock m = MatrixBlock::Sparse(20000, 100);
  for (int64_t i = 0; i < 20000; ++i) {
    for (int64_t j = 0; j < 100; ++j) {
      if ((i * 13 + j * 17) % 19 == 0) {
        m.Set(i, j, static_cast<double>(i % 97) + 0.5 * j + 1.0);
      }
    }
  }
  return m;
}

void ExpectSameBlock(const MatrixBlock& a, const MatrixBlock& b) {
  ASSERT_EQ(a.Rows(), b.Rows());
  ASSERT_EQ(a.Cols(), b.Cols());
  EXPECT_EQ(a.IsSparse(), b.IsSparse());
  EXPECT_EQ(a.NonZeros(), b.NonZeros());
  for (int64_t i = 0; i < a.Rows(); ++i) {
    for (int64_t j = 0; j < a.Cols(); ++j) {
      ASSERT_EQ(a.Get(i, j), b.Get(i, j)) << "cell " << i << "," << j;
    }
  }
}

// The three ways a checksummed file goes bad.
enum class Damage { kTruncate, kBitFlip, kFooterSize };

void DamageFile(const std::string& path, Damage damage) {
  std::string bytes = ReadFile(path);
  ASSERT_GT(bytes.size(), static_cast<size_t>(io::kChecksumFooterSize));
  const size_t payload = bytes.size() - io::kChecksumFooterSize;
  switch (damage) {
    case Damage::kTruncate:
      bytes.resize(bytes.size() / 2);
      break;
    case Damage::kBitFlip:
      // Late in the payload, after the parser has built most of its result.
      bytes[payload - payload / 8 - 1] ^= 0x10;
      break;
    case Damage::kFooterSize: {
      int64_t size = 0;
      std::memcpy(&size, bytes.data() + payload + 8, 8);
      size -= 8;
      std::memcpy(bytes.data() + payload + 8, &size, 8);
      break;
    }
  }
  WriteFile(path, bytes);
}

const Damage kAllDamage[] = {Damage::kTruncate, Damage::kBitFlip,
                             Damage::kFooterSize};

// A binary matrix header: magic "SYSDBMB1", rows, cols, nnz, sparse flag.
std::string BinaryHeader(int64_t rows, int64_t cols, bool sparse) {
  std::string h(33, '\0');
  const uint64_t magic = 0x53595344424d4231ULL;
  const int64_t nnz = 0;
  std::memcpy(h.data(), &magic, 8);
  std::memcpy(h.data() + 8, &rows, 8);
  std::memcpy(h.data() + 16, &cols, 8);
  std::memcpy(h.data() + 24, &nnz, 8);
  h[32] = sparse ? 1 : 0;
  return h;
}

// ---------------------------------------------------------------------------
// CRC-32.

TEST(Crc32SliceTest, MatchesByteAtATimeOracleOnEveryLengthAndAlignment) {
  std::mt19937_64 rng(7);
  // Every start offset within the 16-byte block the sliced loop consumes.
  std::vector<unsigned char> buf(4096 + 16);
  for (auto& b : buf) b = static_cast<unsigned char>(rng());
  for (size_t offset = 0; offset < 16; ++offset) {
    OracleCrc oracle;
    const unsigned char* p = buf.data() + offset;
    for (size_t len = 0; len <= 4096; ++len) {
      if (len > 0) oracle.Update(p + len - 1, 1);
      ASSERT_EQ(Crc32::Of(p, len), oracle.Value())
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32SliceTest, IncrementalUpdatesAtRandomSplitsMatchOracle) {
  std::mt19937_64 rng(11);
  std::vector<unsigned char> buf(100003);
  for (auto& b : buf) b = static_cast<unsigned char>(rng());
  OracleCrc oracle;
  oracle.Update(buf.data(), buf.size());
  for (int trial = 0; trial < 200; ++trial) {
    Crc32 crc;
    size_t pos = 0;
    while (pos < buf.size()) {
      // Mostly short pieces (misaligning the block loop), some long ones.
      size_t n = rng() % 4 == 0 ? rng() % 20000 : rng() % 13;
      n = std::min(n, buf.size() - pos);
      crc.Update(buf.data() + pos, n);
      pos += n;
    }
    ASSERT_EQ(crc.Value(), oracle.Value()) << "trial " << trial;
  }
}

// ---------------------------------------------------------------------------
// File formats are byte-identical to the byte-at-a-time, unbuffered writer.
// The golden sizes and CRCs were recorded from files that writer produced.

TEST(SpillFormatTest, SpillAndBinaryFilesMatchGoldenBytes) {
  TempDir dir("golden");
  const std::pair<size_t, uint32_t> kSpillDense{1280057, 0x859df3e8u};
  const std::pair<size_t, uint32_t> kSpillSparse{1844265, 0x02ca2131u};
  const std::pair<size_t, uint32_t> kBinaryDense{1280033, 0x7404aa5bu};
  const std::pair<size_t, uint32_t> kBinarySparse{1844241, 0x81830c92u};
  MatrixBlock dense = GoldenDense();
  MatrixBlock sparse = GoldenSparse();
  ASSERT_FALSE(dense.IsSparse());
  ASSERT_TRUE(sparse.IsSparse());

  MatrixObject dense_obj{MatrixBlock(dense)};
  ASSERT_TRUE(*dense_obj.EvictTo(dir.File("dense.spill")));
  EXPECT_EQ(FileCrc(dir.File("dense.spill")), kSpillDense);
  MatrixObject sparse_obj{MatrixBlock(sparse)};
  ASSERT_TRUE(*sparse_obj.EvictTo(dir.File("sparse.spill")));
  EXPECT_EQ(FileCrc(dir.File("sparse.spill")), kSpillSparse);

  ASSERT_TRUE(
      io::Write(dense, dir.File("dense.bin"), FormatDescriptor::Binary()).ok());
  EXPECT_EQ(FileCrc(dir.File("dense.bin")), kBinaryDense);
  ASSERT_TRUE(
      io::Write(sparse, dir.File("sparse.bin"), FormatDescriptor::Binary())
          .ok());
  EXPECT_EQ(FileCrc(dir.File("sparse.bin")), kBinarySparse);

  // And every one of them reads back to the block that was written.
  auto restored_dense = dense_obj.AcquireRead();
  ASSERT_TRUE(restored_dense.ok()) << restored_dense.status();
  ExpectSameBlock(**restored_dense, dense);
  dense_obj.Release();
  auto restored_sparse = sparse_obj.AcquireRead();
  ASSERT_TRUE(restored_sparse.ok()) << restored_sparse.status();
  ExpectSameBlock(**restored_sparse, sparse);
  sparse_obj.Release();
  for (const char* name : {"dense.bin", "sparse.bin"}) {
    auto read = io::Read(dir.File(name), FormatDescriptor::Binary());
    ASSERT_TRUE(read.ok()) << read.status();
    ExpectSameBlock(*read, std::string(name) == "dense.bin" ? dense : sparse);
  }
}

class CheckpointFileTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::Get().Disable(); }

  // Runs the script with checkpointing and a kill point at boundary 1,
  // leaving a committed checkpoint in `dir`.
  void CrashOnce(const std::string& dir) {
    FaultConfig faults;
    faults.enabled = true;
    faults.profile.crash_at_boundary = 1;
    auto ctx =
        SystemDSContext::Builder().Checkpointing(dir).Chaos(faults).Build();
    auto r = ctx->Execute(script_, Inputs(), Outputs("acc"));
    ASSERT_FALSE(r.ok());
    ASSERT_EQ(r.status().code(), StatusCode::kAborted) << r.status();
    FaultInjector::Get().Disable();
  }

  Status Resume(const std::string& dir) {
    auto ctx = SystemDSContext::Builder().Checkpointing(dir).Resume().Build();
    return ctx->Execute(script_, Inputs(), Outputs("acc")).status();
  }

  static std::vector<std::string> Files(const std::string& dir,
                                        const std::string& prefix) {
    std::vector<std::string> out;
    for (const auto& e : fs::directory_iterator(dir)) {
      if (e.path().filename().string().rfind(prefix, 0) == 0) {
        out.push_back(e.path().string());
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  const std::string script_ =
      "acc = matrix(1, rows=4, cols=4)\n"
      "for (i in 1:5) {\n"
      "  acc = acc + i\n"
      "}\n";
};

TEST_F(CheckpointFileTest, VariableFilesMatchGoldenBytes) {
  TempDir dir("ckptgold");
  CrashOnce(dir.path());
  // The 4x4 matrix `acc` and the scalar `i`, as the unbuffered writer
  // produced them.
  std::vector<std::pair<size_t, uint32_t>> got;
  for (const std::string& f : Files(dir.path(), "loop")) {
    got.push_back(FileCrc(f));
  }
  std::sort(got.begin(), got.end());
  const std::vector<std::pair<size_t, uint32_t>> kGolden = {
      {34, 0x787d2169u}, {186, 0x959a8a9fu}};
  EXPECT_EQ(got, kGolden);
  EXPECT_TRUE(Resume(dir.path()).ok());
}

// ---------------------------------------------------------------------------
// The checksummed streams across their 1 MB buffer boundaries.

TEST(ChecksummedStreamTest, MixedPieceSizesRoundTripAcrossBufferBoundaries) {
  TempDir dir("stream");
  constexpr size_t kMiB = size_t{1} << 20;
  const size_t pieces[] = {1, 7, 4096, kMiB - 3, kMiB, kMiB + 9};
  std::mt19937_64 rng(5);
  for (size_t total : {size_t{0}, size_t{1}, kMiB - 1, kMiB, kMiB + 1,
                       3 * kMiB + 5}) {
    std::string payload(total, '\0');
    for (char& c : payload) c = static_cast<char>(rng());
    const std::string path = dir.File("p" + std::to_string(total));
    ASSERT_TRUE(io::WriteAtomic(path, [&](std::ostream& out) {
                  size_t pos = 0;
                  while (pos < total) {
                    if (rng() % 5 == 0) {  // single characters: overflow()
                      out.put(payload[pos++]);
                      continue;
                    }
                    size_t n = std::min(pieces[rng() % 6], total - pos);
                    out.write(payload.data() + pos,
                              static_cast<std::streamsize>(n));
                    pos += n;
                  }
                  return Status::Ok();
                }).ok());
    // The footer records the payload size and the oracle's CRC.
    const std::string file = ReadFile(path);
    ASSERT_EQ(file.size(), total + io::kChecksumFooterSize);
    int64_t recorded = 0;
    uint32_t crc = 0;
    std::memcpy(&recorded, file.data() + total + 8, 8);
    std::memcpy(&crc, file.data() + total + 16, 4);
    OracleCrc oracle;
    oracle.Update(reinterpret_cast<const unsigned char*>(payload.data()),
                  total);
    EXPECT_EQ(recorded, static_cast<int64_t>(total));
    EXPECT_EQ(crc, oracle.Value());

    // Read back in mixed pieces, then once more reading only a prefix: the
    // unread rest is drained into the CRC and the file still verifies.
    for (bool whole : {true, false}) {
      std::string got;
      Status st = io::ReadVerified(path, [&](std::istream& in, int64_t size) {
        EXPECT_EQ(size, static_cast<int64_t>(total));
        const size_t want = whole ? total : total / 3;
        got.resize(want);
        size_t pos = 0;
        while (pos < want) {
          if (rng() % 5 == 0) {
            got[pos++] = static_cast<char>(in.get());
            continue;
          }
          size_t n = std::min(pieces[rng() % 6], want - pos);
          in.read(got.data() + pos, static_cast<std::streamsize>(n));
          pos += n;
        }
        if (whole && in.peek() != std::char_traits<char>::eof()) {
          return Internal("stream did not end at the payload end");
        }
        return in ? Status::Ok() : Internal("short read");
      });
      ASSERT_TRUE(st.ok()) << "size " << total << ": " << st;
      EXPECT_EQ(got, payload.substr(0, got.size())) << "size " << total;
    }
  }
}

// ---------------------------------------------------------------------------
// Damaged files are kCorrupt through every ReadVerified caller.

TEST(SpillCorruptionTest, BufferPoolRestoreRejectsDamageAndKeepsFile) {
  for (bool sparse : {false, true}) {
    for (Damage damage : kAllDamage) {
      TempDir dir("restore");
      MatrixBlock block = sparse ? GoldenSparse() : GoldenDense();
      MatrixObject obj{MatrixBlock(block)};
      const std::string path = dir.File("m.spill");
      ASSERT_TRUE(*obj.EvictTo(path));
      const std::string intact = ReadFile(path);
      DamageFile(path, damage);
      auto read = obj.AcquireRead();
      ASSERT_FALSE(read.ok()) << "sparse " << sparse << " damage "
                              << static_cast<int>(damage);
      EXPECT_EQ(read.status().code(), StatusCode::kCorrupt) << read.status();
      EXPECT_FALSE(obj.HasPayload()) << "no block published from a bad file";
      EXPECT_TRUE(fs::exists(path)) << "spill file kept for retry";
      // The retry after the file heals restores the original block.
      WriteFile(path, intact);
      auto healed = obj.AcquireRead();
      ASSERT_TRUE(healed.ok()) << healed.status();
      ExpectSameBlock(**healed, block);
      obj.Release();
    }
  }
}

TEST_F(CheckpointFileTest, ResumeRejectsDamagedVariableAndManifestFiles) {
  for (const char* prefix : {"loop", "manifest"}) {
    for (Damage damage : kAllDamage) {
      TempDir dir("ckptbad");
      CrashOnce(dir.path());
      std::vector<std::string> files = Files(dir.path(), prefix);
      ASSERT_FALSE(files.empty());
      for (const std::string& f : files) DamageFile(f, damage);
      Status st = Resume(dir.path());
      EXPECT_EQ(st.code(), StatusCode::kCorrupt)
          << prefix << " damage " << static_cast<int>(damage) << ": " << st;
    }
  }
}

TEST(PsCheckpointFileTest, ResumeRejectsDamagedModelCheckpoint) {
  MatrixBlock x = *RandMatrix(24, 4, -1, 1, 1.0, 3, RandPdf::kUniform, 1);
  MatrixBlock y = *RandMatrix(24, 1, 0, 1, 1.0, 4, RandPdf::kUniform, 1);
  for (Damage damage : kAllDamage) {
    TempDir dir("psbad");
    PsConfig cfg;
    cfg.num_workers = 2;
    cfg.epochs = 1;
    cfg.batch_size = 6;
    cfg.mode = PsUpdateMode::kBSP;
    cfg.checkpoint_dir = dir.path();
    ASSERT_TRUE(PsTrain(x, y, cfg).ok());
    DamageFile(dir.File("ps_model.ckpt"), damage);
    cfg.resume = true;
    auto r = PsTrain(x, y, cfg);
    ASSERT_FALSE(r.ok()) << "damage " << static_cast<int>(damage);
    EXPECT_EQ(r.status().code(), StatusCode::kCorrupt) << r.status();
  }
}

// ---------------------------------------------------------------------------
// Binary headers are checked against the payload before any allocation.

TEST(BinaryHeaderTest, HugeDenseHeaderIsCorruptNotACrash) {
  TempDir dir("hdr");
  // 97 bytes: a header claiming 1e8 x 1e8 dense cells, then 64 bytes.
  const std::string path = dir.File("bad.bin");
  WriteFile(path, BinaryHeader(100000000, 100000000, false) +
                      std::string(64, '\x01'));
  auto read = io::Read(path, FormatDescriptor::Binary());
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kCorrupt) << read.status();

  // The same file through a DML read fails the script with the status.
  auto ctx = SystemDSContext::Builder().Build();
  auto r = ctx->Execute("X = read(\"" + path + "\", format=\"binary\")\n"
                        "s = sum(X)\n",
                        Inputs(), Outputs("s"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorrupt) << r.status();
}

TEST(BinaryHeaderTest, MalformedSparseHeadersAndRowsAreCorrupt) {
  TempDir dir("hdrsparse");
  auto row = [](int64_t n) {
    std::string s(8, '\0');
    std::memcpy(s.data(), &n, 8);
    return s;
  };
  const std::string cases[] = {
      // More rows than length words in the payload.
      BinaryHeader(int64_t{1} << 40, 10, true) + std::string(64, '\0'),
      // A row longer than the matrix is wide.
      BinaryHeader(2, 4, true) + row(5) + std::string(80, '\0'),
      // A row longer than what is left of the payload.
      BinaryHeader(2, 1000, true) + row(900) + std::string(64, '\0'),
      // A dense payload one cell short.
      BinaryHeader(3, 3, false) + std::string(8 * 8, '\0'),
  };
  for (const std::string& bytes : cases) {
    const std::string path = dir.File("bad.bin");
    WriteFile(path, bytes);
    auto read = io::Read(path, FormatDescriptor::Binary());
    ASSERT_FALSE(read.ok());
    EXPECT_EQ(read.status().code(), StatusCode::kCorrupt) << read.status();
  }
}

TEST(BinaryHeaderTest, SpillWithValidFooterAroundHugeHeaderIsCorrupt) {
  TempDir dir("hdrspill");
  MatrixObject obj(MatrixBlock::Dense(4, 4, 1.0));
  const std::string path = dir.File("m.spill");
  ASSERT_TRUE(*obj.EvictTo(path));
  // Replace the spill with a well-formed checksummed file whose payload is
  // a header claiming 1e8 x 1e8 dense cells: the CRC matches, the header
  // must not.
  ASSERT_TRUE(io::WriteAtomic(path, [](std::ostream& out) {
                const std::string payload =
                    BinaryHeader(100000000, 100000000, false) +
                    std::string(64, '\x01');
                out.write(payload.data(),
                          static_cast<std::streamsize>(payload.size()));
                return Status::Ok();
              }).ok());
  auto read = obj.AcquireRead();
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kCorrupt) << read.status();
  EXPECT_TRUE(fs::exists(path));
}

// ---------------------------------------------------------------------------
// Prefetch admission and retention.

std::shared_ptr<MatrixObject> Pooled(const std::shared_ptr<BufferPool>& pool,
                                     MatrixBlock block) {
  auto m = std::make_shared<MatrixObject>(std::move(block));
  m->BindPool(pool);
  return m;
}

void ReadOnce(MatrixObject* m) {
  auto r = m->AcquireRead();
  ASSERT_TRUE(r.ok()) << r.status();
  m->Release();
}

TEST(PrefetchAdmissionTest, PrefetchWithoutHeadroomIsDeclined) {
  auto pool = std::make_shared<BufferPool>(1 << 30);
  auto a = Pooled(pool, MatrixBlock::Dense(100, 100, 1.0));  // 80 KB
  pool->SetLimit(64);
  ASSERT_FALSE(a->HasPayload());
  pool->SetLimit(40 * 1024);  // the headroom cannot hold the block
  obs::MetricsDiff diff;
  pool->Prefetch(a.get());
  pool->Drain();
  EXPECT_EQ(diff.Counter("bufferpool.prefetch_issued"), 0);
  EXPECT_EQ(diff.Counter("bufferpool.prefetch_declined"), 1);
  EXPECT_FALSE(a->HasPayload());
}

TEST(PrefetchAdmissionTest, PrefetchedBlockIsNotEvictedBeforeItsRead) {
  // One 80 KB block fits the 140 KB pool, two do not (but stay under the
  // 175 KB hard limit). `b` is resident and protected; `a` is prefetched
  // into probation, the queue the background pass evicts from first.
  auto pool = std::make_shared<BufferPool>(1 << 30);
  auto a = Pooled(pool, MatrixBlock::Dense(100, 100, 1.0));
  auto b = Pooled(pool, MatrixBlock::Dense(100, 100, 2.0));
  pool->SetLimit(64);
  ASSERT_FALSE(a->HasPayload());
  ASSERT_FALSE(b->HasPayload());
  pool->SetLimit(140 * 1024);
  ReadOnce(b.get());
  ReadOnce(b.get());
  ASSERT_TRUE(b->HasPayload());

  obs::MetricsDiff diff;
  pool->Prefetch(a.get());
  pool->Drain();
  EXPECT_TRUE(a->HasPayload()) << "prefetched block dropped before its read";
  obs::MetricsDiff demand;
  auto r = a->AcquireRead();
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_DOUBLE_EQ((*r)->Get(7, 7), 1.0);
  a->Release();
  EXPECT_EQ(demand.Delta().Histogram("bufferpool.restore_ns").count, 0)
      << "the demand read found the prefetched block";
  EXPECT_EQ(diff.Counter("bufferpool.prefetch_hits"), 1);
}

}  // namespace
}  // namespace sysds
