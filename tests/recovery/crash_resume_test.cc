// Crash/resume chaos tests (ctest -L recovery): a run is killed by a
// deterministic kCrash kill point at a chosen checkpoint boundary, then a
// fresh context resumes from the checkpoint directory. The resumed run's
// outputs must be BIT-IDENTICAL to an uninterrupted run — the re-executed
// prefix draws the original run's generated seeds (manifest seed state),
// restored loop-carried variables are CRC-verified, and the fast-forwarded
// loop continues exactly where the crashed run stopped. Crash points cover
// iterations {1, k/2, k-1} of k, across chaos seeds {1, 2, 3}, for an
// lmDS-style for loop, a while loop, a parfor body, and BSP parameter-
// server training with model-version checkpoints.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <tuple>

#include "api/systemds_context.h"
#include "common/faults.h"
#include "common/util.h"
#include "obs/metrics.h"
#include "runtime/matrix/lib_datagen.h"
#include "runtime/ps/param_server.h"

namespace sysds {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = (fs::temp_directory_path() /
             ("sysds_crashresume_" + tag + "_" +
              std::to_string(reinterpret_cast<uintptr_t>(this))))
                .string();
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// The crash point (1-based checkpoint boundary) and the chaos seed. The
// kill point itself is exact — the seed exercises the injector's seeded
// decision streams around it.
class CrashResumeTest
    : public ::testing::TestWithParam<std::tuple<int64_t, uint64_t>> {
 protected:
  void TearDown() override { FaultInjector::Get().Disable(); }

  static FaultConfig KillAt(int64_t boundary, uint64_t seed) {
    FaultConfig c;
    c.enabled = true;
    c.seed = seed;
    c.profile.crash_at_boundary = boundary;
    return c;
  }

  // All three runs (reference, crashed, resumed prefix) must draw the same
  // auto-generated RNG seeds, so each starts from this fixed process seed
  // state. The resume run deliberately starts from a DIFFERENT state to
  // prove the manifest's recorded seed state is restored.
  static constexpr SeedState kRunSeeds{0x5eedba5eULL, 17};

  // Runs uninterrupted (no checkpointing) and returns the named matrix.
  static MatrixBlock Reference(const std::string& script,
                               const std::string& out) {
    SetSeedState(kRunSeeds);
    auto ctx = SystemDSContext::Builder().Build();
    auto r = ctx->Execute(script, Inputs(), Outputs(out));
    EXPECT_TRUE(r.ok()) << r.status();
    return *r->GetMatrix(out);
  }

  // Crash-at-boundary run followed by a resume run; returns the resumed
  // run's output.
  static MatrixBlock CrashThenResume(const std::string& script,
                                     const std::string& out,
                                     const std::string& dir,
                                     int64_t boundary, uint64_t seed) {
    SetSeedState(kRunSeeds);
    {
      auto ctx = SystemDSContext::Builder()
                     .Checkpointing(dir)
                     .Chaos(KillAt(boundary, seed))
                     .Build();
      auto crashed = ctx->Execute(script, Inputs(), Outputs(out));
      EXPECT_FALSE(crashed.ok()) << "kill point did not fire";
      EXPECT_EQ(crashed.status().code(), StatusCode::kAborted)
          << crashed.status();
    }
    FaultInjector::Get().Disable();
    // Scramble the process seed state: resume must restore the recorded one.
    SetSeedState({0xdeadULL, 0});
    obs::MetricsDiff diff;
    auto ctx = SystemDSContext::Builder()
                   .Checkpointing(dir)
                   .Resume()
                   .Build();
    auto resumed = ctx->Execute(script, Inputs(), Outputs(out));
    EXPECT_TRUE(resumed.ok()) << resumed.status();
    EXPECT_GT(diff.Counter("recovery.resumes"), 0)
        << "resume did not restore from a checkpoint";
    return *resumed->GetMatrix(out);
  }
};

constexpr SeedState CrashResumeTest::kRunSeeds;

// k = 6 iterations of an lmDS-style gradient sweep; the feature matrix is
// auto-seeded (seed=-1) so the prefix re-execution exercises seed-state
// restoration.
TEST_P(CrashResumeTest, LmdsForLoopBitIdentical) {
  const auto [boundary, seed] = GetParam();
  const std::string script =
      "X = rand(rows=24, cols=5, min=-1, max=1, seed=-1)\n"
      "y = rand(rows=24, cols=1, seed=11)\n"
      "beta = matrix(0, 5, 1)\n"
      "for (i in 1:6) {\n"
      "  g = t(X) %*% (X %*% beta - y)\n"
      "  beta = beta - 0.001 * g\n"
      "}\n";
  MatrixBlock ref = Reference(script, "beta");
  TempDir dir("lmds");
  MatrixBlock res =
      CrashThenResume(script, "beta", dir.path(), boundary, seed);
  EXPECT_TRUE(res.EqualsApprox(ref, 0)) << "resume is not bit-identical";
}

TEST_P(CrashResumeTest, WhileLoopBitIdentical) {
  const auto [boundary, seed] = GetParam();
  const std::string script =
      "acc = rand(rows=6, cols=6, seed=-1)\n"
      "i = 0\n"
      "while (i < 6) {\n"
      "  i = i + 1\n"
      "  acc = acc * 0.9 + i * 0.125\n"
      "}\n";
  MatrixBlock ref = Reference(script, "acc");
  TempDir dir("while");
  MatrixBlock res = CrashThenResume(script, "acc", dir.path(), boundary, seed);
  EXPECT_TRUE(res.EqualsApprox(ref, 0)) << "resume is not bit-identical";
}

INSTANTIATE_TEST_SUITE_P(
    Boundaries, CrashResumeTest,
    ::testing::Combine(::testing::Values<int64_t>(1, 3, 5),
                       ::testing::Values<uint64_t>(1, 2, 3)));

// Parfor bodies have a single checkpoint boundary after compare-and-merge
// (there is no consistent mid-flight cut across parallel workers): a crash
// there resumes by skipping the completed parfor entirely.
TEST(CrashResumeParforTest, ParforSkippedOnResume) {
  const std::string script =
      "X = rand(rows=16, cols=4, seed=-1)\n"
      "R = matrix(0, 16, 1)\n"
      "parfor (i in 1:16) {\n"
      "  R[i, 1] = sum(X[i, ]) * i\n"
      "}\n"
      "R = R * 2\n";
  SetSeedState({0x5eedba5eULL, 17});
  MatrixBlock ref;
  {
    auto ctx = SystemDSContext::Builder().Build();
    auto r = ctx->Execute(script, Inputs(), Outputs("R"));
    ASSERT_TRUE(r.ok()) << r.status();
    ref = *r->GetMatrix("R");
  }
  TempDir dir("parfor");
  SetSeedState({0x5eedba5eULL, 17});
  {
    FaultConfig kill;
    kill.enabled = true;
    kill.profile.crash_at_boundary = 1;
    auto ctx = SystemDSContext::Builder()
                   .Checkpointing(dir.path())
                   .Chaos(kill)
                   .Build();
    auto crashed = ctx->Execute(script, Inputs(), Outputs("R"));
    ASSERT_FALSE(crashed.ok());
    EXPECT_EQ(crashed.status().code(), StatusCode::kAborted)
        << crashed.status();
  }
  FaultInjector::Get().Disable();
  SetSeedState({0x1234ULL, 0});
  auto ctx =
      SystemDSContext::Builder().Checkpointing(dir.path()).Resume().Build();
  auto resumed = ctx->Execute(script, Inputs(), Outputs("R"));
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_TRUE(resumed->GetMatrix("R")->EqualsApprox(ref, 0));
}

// A clean run with checkpointing enabled leaves no state behind (completed
// loops delete their checkpoints) and matches the plain run bit-identically.
TEST(CrashResumeParforTest, CompletedRunCleansUpCheckpointState) {
  const std::string script =
      "acc = matrix(1, 4, 4)\n"
      "for (i in 1:3) { acc = acc + i }\n";
  TempDir dir("cleanup");
  auto ctx = SystemDSContext::Builder().Checkpointing(dir.path()).Build();
  auto r = ctx->Execute(script, Inputs(), Outputs("acc"));
  ASSERT_TRUE(r.ok()) << r.status();
  size_t leftover = 0;
  for ([[maybe_unused]] const auto& e : fs::directory_iterator(dir.path())) {
    ++leftover;
  }
  EXPECT_EQ(leftover, 0u) << "completed loop left checkpoint state behind";
}

// ---------------------------------------------------------------------------
// Parameter-server model-version checkpoints.

class PsCrashResumeTest
    : public ::testing::TestWithParam<std::tuple<int64_t, uint64_t>> {
 protected:
  void TearDown() override { FaultInjector::Get().Disable(); }
};

TEST_P(PsCrashResumeTest, BspTrainingBitIdenticalAfterCrashResume) {
  const auto [boundary, seed] = GetParam();
  MatrixBlock x = *RandMatrix(48, 6, -1, 1, 1.0, 7, RandPdf::kUniform, 1);
  MatrixBlock y = *RandMatrix(48, 1, 0, 1, 1.0, 8, RandPdf::kUniform, 1);

  // 3 workers x 16 rows each, batch 4 => 4 rounds/epoch x 3 epochs = 12
  // rounds; crash points {1, 6, 11} are round boundaries {1, k/2, k-1}.
  PsConfig base;
  base.num_workers = 3;
  base.epochs = 3;
  base.batch_size = 4;
  base.mode = PsUpdateMode::kBSP;

  // Deterministic BSP: the fault-free reference is exact, not a tolerance.
  auto ref = PsTrain(x, y, base);
  ASSERT_TRUE(ref.ok()) << ref.status();

  TempDir dir("ps");
  {
    FaultConfig kill;
    kill.enabled = true;
    kill.seed = seed;
    kill.profile.crash_at_boundary = boundary;
    ScopedFaultInjection chaos(kill);
    PsConfig crash_cfg = base;
    crash_cfg.checkpoint_dir = dir.path();
    auto crashed = PsTrain(x, y, crash_cfg);
    ASSERT_FALSE(crashed.ok()) << "ps kill point did not fire";
    EXPECT_EQ(crashed.status().code(), StatusCode::kAborted)
        << crashed.status();
  }
  PsConfig resume_cfg = base;
  resume_cfg.checkpoint_dir = dir.path();
  resume_cfg.resume = true;
  auto resumed = PsTrain(x, y, resume_cfg);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ(resumed->resumed_round, boundary);
  EXPECT_TRUE(resumed->weights.EqualsApprox(ref->weights, 0))
      << "resumed ps model is not bit-identical";
}

INSTANTIATE_TEST_SUITE_P(
    Rounds, PsCrashResumeTest,
    ::testing::Combine(::testing::Values<int64_t>(1, 6, 11),
                       ::testing::Values<uint64_t>(1, 2, 3)));

TEST(PsRollbackTest, ExclusionCascadeRollsBackToLastCheckpoint) {
  MatrixBlock x = *RandMatrix(40, 5, -1, 1, 1.0, 9, RandPdf::kUniform, 1);
  MatrixBlock y = *RandMatrix(40, 1, 0, 1, 1.0, 10, RandPdf::kUniform, 1);

  TempDir dir("psroll");
  PsConfig cfg;
  cfg.num_workers = 4;
  cfg.epochs = 2;
  cfg.batch_size = 5;
  cfg.mode = PsUpdateMode::kBSP;
  cfg.checkpoint_dir = dir.path();
  cfg.rollback_after_exclusions = 1;

  // Worker 2 is permanently dead (every injector probe on its id fires):
  // its first server call exhausts the retry budget and excludes it, which
  // trips the rollback threshold.
  FaultConfig faults;
  faults.enabled = true;
  faults.seed = 5;
  faults.profile.dead_targets.push_back({FaultLayer::kPs, 2});
  ScopedFaultInjection chaos(faults);

  auto r = PsTrain(x, y, cfg);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->excluded_workers, 1);
  EXPECT_GE(r->rollbacks, 1);
  EXPECT_EQ(r->weights.Rows(), 5);
}

TEST(PsRollbackTest, CorruptPsCheckpointRejectedOnResume) {
  MatrixBlock x = *RandMatrix(24, 4, -1, 1, 1.0, 3, RandPdf::kUniform, 1);
  MatrixBlock y = *RandMatrix(24, 1, 0, 1, 1.0, 4, RandPdf::kUniform, 1);
  TempDir dir("pscorrupt");
  PsConfig cfg;
  cfg.num_workers = 2;
  cfg.epochs = 1;
  cfg.batch_size = 6;
  cfg.mode = PsUpdateMode::kBSP;
  cfg.checkpoint_dir = dir.path();
  ASSERT_TRUE(PsTrain(x, y, cfg).ok());
  // Flip a payload byte in the committed model checkpoint.
  std::string ckpt = (fs::path(dir.path()) / "ps_model.ckpt").string();
  ASSERT_TRUE(fs::exists(ckpt));
  {
    std::fstream f(ckpt, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(12);
    f.put('\x55');
  }
  cfg.resume = true;
  auto r = PsTrain(x, y, cfg);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorrupt) << r.status();
}

}  // namespace
}  // namespace sysds
