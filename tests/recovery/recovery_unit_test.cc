// Recovery suite unit tests (ctest -L recovery): the crash-safe file
// primitives (CRC32, atomic write + verified read), the compiler's
// loop-liveness annotation pass, deterministic checkpoint-boundary kill
// points, checkpoint-state rejection (corrupt manifest, truncated variable
// file, program-version mismatch), and CRC-verified buffer-pool spills.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "api/systemds_context.h"
#include "common/crc32.h"
#include "common/faults.h"
#include "common/util.h"
#include "compiler/compiler.h"
#include "io/atomic_file.h"
#include "runtime/controlprog/data.h"
#include "runtime/controlprog/program.h"
#include "runtime/matrix/matrix_block.h"

namespace sysds {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = (fs::temp_directory_path() /
             ("sysds_recovery_" + tag + "_" +
              std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
              "_" + std::to_string(reinterpret_cast<uintptr_t>(this))))
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

// Reads a checksummed file's whole payload through the streaming reader.
StatusOr<std::string> ReadPayload(const std::string& path) {
  std::string payload;
  Status st = io::ReadVerified(path, [&](std::istream& in, int64_t size) {
    payload.resize(static_cast<size_t>(size));
    in.read(payload.data(), static_cast<std::streamsize>(size));
    return in ? Status::Ok() : IoError("short payload");
  });
  if (!st.ok()) return st;
  return payload;
}

TEST(Crc32Test, KnownAnswer) {
  // The IEEE 802.3 check value for "123456789".
  EXPECT_EQ(Crc32::Of("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32::Of("", 0), 0x00000000u);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  Crc32 inc;
  inc.Update(data.data(), 10);
  inc.Update(data.data() + 10, data.size() - 10);
  EXPECT_EQ(inc.Value(), Crc32::Of(data.data(), data.size()));
}

TEST(AtomicFileTest, RoundTripAndNoTempLeft) {
  TempDir dir("atomic");
  std::string path = dir.File("payload.bin");
  std::string payload(4096, '\0');
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>(i * 31);
  }
  Status w = io::WriteAtomic(path, [&](std::ostream& out) {
    out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    return Status::Ok();
  });
  ASSERT_TRUE(w.ok()) << w;
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  auto r = ReadPayload(path);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(*r, payload);
}

TEST(AtomicFileTest, BitFlipDetectedAsCorrupt) {
  TempDir dir("corrupt");
  std::string path = dir.File("payload.bin");
  ASSERT_TRUE(io::WriteAtomic(path, [](std::ostream& out) {
                out << "checkpoint payload bytes";
                return Status::Ok();
              }).ok());
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(3);
    f.put('X');
  }
  auto r = ReadPayload(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorrupt);
}

TEST(AtomicFileTest, TruncationDetectedAsCorrupt) {
  TempDir dir("trunc");
  std::string path = dir.File("payload.bin");
  ASSERT_TRUE(io::WriteAtomic(path, [](std::ostream& out) {
                out << std::string(1024, 'z');
                return Status::Ok();
              }).ok());
  fs::resize_file(path, 100);
  auto r = ReadPayload(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorrupt);
}

TEST(AtomicFileTest, FailedPayloadLeavesPreviousVersionIntact) {
  TempDir dir("keepold");
  std::string path = dir.File("payload.bin");
  ASSERT_TRUE(io::WriteAtomic(path, [](std::ostream& out) {
                out << "generation 1";
                return Status::Ok();
              }).ok());
  Status failed = io::WriteAtomic(
      path, [](std::ostream&) { return IoError("simulated payload failure"); });
  EXPECT_FALSE(failed.ok());
  auto r = ReadPayload(path);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(*r, "generation 1");
}

// ---------------------------------------------------------------------------
// Liveness annotation.

TEST(LoopLivenessTest, ForLoopCheckpointVarsAndInvariants) {
  DMLConfig config;
  auto program = CompileDML(
      "X = rand(rows=8, cols=3, seed=7)\n"
      "beta = matrix(0, rows=3, cols=1)\n"
      "for (i in 1:4) {\n"
      "  g = t(X) %*% (X %*% beta)\n"
      "  beta = beta - 0.01 * g\n"
      "}\n",
      config);
  ASSERT_TRUE(program.ok()) << program.status();
  ForBlock* loop = nullptr;
  for (const auto& b : (*program)->Blocks()) {
    if (auto* f = dynamic_cast<ForBlock*>(b.get())) loop = f;
  }
  ASSERT_NE(loop, nullptr);
  const LoopLiveness& lv = loop->Liveness();
  EXPECT_GE(lv.loop_id, 0);
  auto has = [](const std::vector<std::string>& v, const std::string& s) {
    return std::find(v.begin(), v.end(), s) != v.end();
  };
  // Loop-carried writes plus the induction variable are checkpointed.
  EXPECT_TRUE(has(lv.checkpoint_vars, "beta"));
  EXPECT_TRUE(has(lv.checkpoint_vars, "g"));
  EXPECT_TRUE(has(lv.checkpoint_vars, "i"));
  // X is read but never written: validated by lineage, not saved.
  EXPECT_FALSE(has(lv.checkpoint_vars, "X"));
  EXPECT_TRUE(has(lv.invariant_reads, "X"));
}

TEST(LoopLivenessTest, LoopIdsAreDeterministicAcrossCompiles) {
  const std::string src =
      "s = 0\n"
      "for (i in 1:3) { s = s + i }\n"
      "while (s > 0) { s = s - 1 }\n"
      "for (j in 1:2) { s = s + j }\n";
  DMLConfig config;
  auto p1 = CompileDML(src, config);
  auto p2 = CompileDML(src, config);
  ASSERT_TRUE(p1.ok() && p2.ok());
  std::vector<int> ids1, ids2;
  auto collect = [](Program* p, std::vector<int>* out) {
    for (const auto& b : p->Blocks()) {
      if (auto* f = dynamic_cast<ForBlock*>(b.get())) {
        out->push_back(f->Liveness().loop_id);
      } else if (auto* w = dynamic_cast<WhileBlock*>(b.get())) {
        out->push_back(w->Liveness().loop_id);
      }
    }
  };
  collect(p1->get(), &ids1);
  collect(p2->get(), &ids2);
  ASSERT_EQ(ids1.size(), 3u);
  EXPECT_EQ(ids1, ids2);
  // Pre-order: strictly increasing over the top-level walk.
  EXPECT_LT(ids1[0], ids1[1]);
  EXPECT_LT(ids1[1], ids1[2]);
}

// ---------------------------------------------------------------------------
// Deterministic kill points.

TEST(KillPointTest, ExactlyNthProbeFires) {
  FaultConfig config;
  config.enabled = true;
  config.seed = 1;
  config.profile.crash_at_boundary = 3;
  ScopedFaultInjection chaos(config);
  FaultInjector& inj = FaultInjector::Get();
  int fired_at = -1;
  for (int probe = 1; probe <= 6; ++probe) {
    if (inj.ShouldInject(FaultLayer::kRecovery, 0, FaultKind::kCrash)) {
      EXPECT_EQ(fired_at, -1) << "kill point fired twice";
      fired_at = probe;
    }
  }
  EXPECT_EQ(fired_at, 3);
}

TEST(KillPointTest, StreamsAreIndependentPerLoopId) {
  FaultConfig config;
  config.enabled = true;
  config.profile.crash_at_boundary = 2;
  ScopedFaultInjection chaos(config);
  FaultInjector& inj = FaultInjector::Get();
  // Advance loop 0's stream past its kill point; loop 1's stream still
  // fires at its own 2nd probe.
  EXPECT_FALSE(inj.ShouldInject(FaultLayer::kRecovery, 0, FaultKind::kCrash));
  EXPECT_TRUE(inj.ShouldInject(FaultLayer::kRecovery, 0, FaultKind::kCrash));
  EXPECT_FALSE(inj.ShouldInject(FaultLayer::kRecovery, 1, FaultKind::kCrash));
  EXPECT_TRUE(inj.ShouldInject(FaultLayer::kRecovery, 1, FaultKind::kCrash));
}

// ---------------------------------------------------------------------------
// Hermetic fault-injection scopes (regression: nested/sequential scopes used
// to leak the inner configuration into the enclosing one).

TEST(ScopedFaultInjectionTest, NestedScopeRestoresOuterConfig) {
  FaultConfig outer;
  outer.enabled = true;
  outer.seed = 11;
  outer.profile.crash_at_boundary = 5;
  ScopedFaultInjection outer_scope(outer);
  {
    FaultConfig inner;
    inner.enabled = true;
    inner.seed = 99;
    inner.profile.crash_at_boundary = 1;
    ScopedFaultInjection inner_scope(inner);
    EXPECT_EQ(FaultInjector::Get().CurrentConfig().seed, 99u);
  }
  FaultConfig restored = FaultInjector::Get().CurrentConfig();
  EXPECT_TRUE(restored.enabled);
  EXPECT_EQ(restored.seed, 11u);
  EXPECT_EQ(restored.profile.crash_at_boundary, 5);
}

TEST(ScopedFaultInjectionTest, SequentialScopesGetFreshDecisionStreams) {
  FaultConfig config;
  config.enabled = true;
  config.profile.crash_at_boundary = 1;
  {
    ScopedFaultInjection scope(config);
    EXPECT_TRUE(FaultInjector::Get().ShouldInject(FaultLayer::kRecovery, 0,
                                                  FaultKind::kCrash));
  }
  {
    // A fresh scope must replay the same decision stream from event 0, not
    // continue the previous scope's counters.
    ScopedFaultInjection scope(config);
    EXPECT_TRUE(FaultInjector::Get().ShouldInject(FaultLayer::kRecovery, 0,
                                                  FaultKind::kCrash));
  }
  EXPECT_FALSE(FaultInjector::Get().enabled());
}

// ---------------------------------------------------------------------------
// Checkpoint-state rejection on resume.

class CheckpointRejectionTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::Get().Disable(); }

  // Runs the script with checkpointing and a kill point at boundary 1,
  // leaving a committed checkpoint behind in `dir`.
  void CrashOnce(const std::string& script, const std::string& dir) {
    FaultConfig faults;
    faults.enabled = true;
    faults.profile.crash_at_boundary = 1;
    auto ctx = SystemDSContext::Builder()
                   .Checkpointing(dir)
                   .Chaos(faults)
                   .Build();
    auto r = ctx->Execute(script, Inputs(), Outputs("acc"));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kAborted) << r.status();
    FaultInjector::Get().Disable();
  }

  const std::string script_ =
      "acc = matrix(1, rows=4, cols=4)\n"
      "for (i in 1:5) {\n"
      "  acc = acc + i\n"
      "}\n";
};

TEST_F(CheckpointRejectionTest, CorruptManifestRejected) {
  TempDir dir("badmanifest");
  CrashOnce(script_, dir.path());
  // Flip a byte inside every manifest's payload.
  bool found = false;
  for (const auto& entry : fs::directory_iterator(dir.path())) {
    std::string name = entry.path().filename().string();
    if (name.rfind("manifest_loop", 0) != 0) continue;
    found = true;
    std::fstream f(entry.path(), std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(5);
    f.put('~');
  }
  ASSERT_TRUE(found) << "no committed manifest after simulated crash";
  auto ctx =
      SystemDSContext::Builder().Checkpointing(dir.path()).Resume().Build();
  auto r = ctx->Execute(script_, Inputs(), Outputs("acc"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorrupt) << r.status();
}

TEST_F(CheckpointRejectionTest, TruncatedVariableFileRejected) {
  TempDir dir("truncvar");
  CrashOnce(script_, dir.path());
  bool found = false;
  for (const auto& entry : fs::directory_iterator(dir.path())) {
    std::string name = entry.path().filename().string();
    if (name.rfind("loop", 0) != 0) continue;  // var files: loop<id>_g...
    found = true;
    fs::resize_file(entry.path(), fs::file_size(entry.path()) / 2);
  }
  ASSERT_TRUE(found) << "no checkpoint variable files after simulated crash";
  auto ctx =
      SystemDSContext::Builder().Checkpointing(dir.path()).Resume().Build();
  auto r = ctx->Execute(script_, Inputs(), Outputs("acc"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorrupt) << r.status();
}

TEST_F(CheckpointRejectionTest, ProgramVersionMismatchRejected) {
  TempDir dir("vermismatch");
  CrashOnce(script_, dir.path());
  // Resuming a DIFFERENT program from this checkpoint directory must be
  // refused: the manifest's program hash no longer matches.
  auto ctx =
      SystemDSContext::Builder().Checkpointing(dir.path()).Resume().Build();
  auto r = ctx->Execute(
      "acc = matrix(2, rows=4, cols=4)\n"
      "for (i in 1:7) {\n"
      "  acc = acc * 1.5 + i\n"
      "}\n",
      Inputs(), Outputs("acc"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kValidateError) << r.status();
}

// ---------------------------------------------------------------------------
// Buffer-pool spill files are CRC-protected.

TEST(SpillIntegrityTest, CorruptSpillFileSurfacesAsRetryableCorrupt) {
  TempDir dir("spill");
  MatrixBlock block = MatrixBlock::Dense(16, 16, 2.5);
  MatrixObject obj(std::move(block));
  std::string path = dir.File("spill0.bin");
  auto evicted = obj.EvictTo(path);
  ASSERT_TRUE(evicted.ok()) << evicted.status();
  ASSERT_TRUE(*evicted);
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(64);
    f.put('\x7f');
  }
  auto read = obj.AcquireRead();
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kCorrupt) << read.status();
  EXPECT_TRUE(fs::exists(path)) << "spill file must be kept for retry";
}

TEST(SpillIntegrityTest, IntactSpillRoundTrips) {
  TempDir dir("spillok");
  MatrixBlock block = MatrixBlock::Dense(8, 8, 0.0);
  for (int64_t i = 0; i < 8; ++i) block.Set(i, i, static_cast<double>(i + 1));
  MatrixObject obj(std::move(block));
  std::string path = dir.File("spill1.bin");
  auto evicted = obj.EvictTo(path);
  ASSERT_TRUE(evicted.ok() && *evicted);
  auto read = obj.AcquireRead();
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_DOUBLE_EQ((*read)->Get(3, 3), 4.0);
  obj.Release();
  // Blocks are immutable, so the spill file stays a valid copy after the
  // restore: the object is clean and its next eviction is a free drop.
  EXPECT_TRUE(fs::exists(path)) << "restore keeps the still-valid spill file";
  auto again = obj.EvictTo(path);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_TRUE(*again) << "clean re-eviction drops without rewriting";
  EXPECT_FALSE(obj.IsCached());
}

}  // namespace
}  // namespace sysds
