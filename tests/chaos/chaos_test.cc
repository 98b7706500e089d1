// Chaos suite (ctest -L chaos): runs the federated, distributed, and
// parameter-server integration paths under deterministic fault injection —
// message drops, delays, payload corruption, executor crashes, and one
// permanently dead component per scenario — across three fixed seeds.
// Federated and distributed results must be BIT-IDENTICAL to the
// fault-free run: every retry re-executes the same deterministic kernel,
// local fallbacks use the same parallelism-1 kernels as the sites, and
// per-task commits merge in a fixed serial order. The parameter server is
// asserted with convergence tolerances instead, because concurrent
// gradient pushes reorder floating-point accumulation even without faults.

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "common/faults.h"
#include "fed/federated.h"
#include "obs/metrics.h"
#include "runtime/dist/blocked_matrix.h"
#include "runtime/matrix/lib_datagen.h"
#include "runtime/matrix/lib_matmult.h"
#include "runtime/ps/param_server.h"

namespace sysds {
namespace {

MatrixBlock Random(int64_t rows, int64_t cols, uint64_t seed) {
  return *RandMatrix(rows, cols, -1, 1, 1.0, seed, RandPdf::kUniform, 1);
}

class ChaosTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void TearDown() override { FaultInjector::Get().Disable(); }

  // The acceptance profile: 10% message drop plus occasional delays,
  // corrupted payloads, and crashes. Dead targets are added per scenario.
  static FaultConfig ChaosConfig(uint64_t seed) {
    FaultConfig c;
    c.enabled = true;
    c.seed = seed;
    c.profile = FaultProfile::Standard();
    return c;
  }
};

TEST_P(ChaosTest, FederatedOpsBitIdenticalWithDeadSite) {
  MatrixBlock x = Random(120, 10, 3);
  MatrixBlock y = Random(120, 2, 4);
  MatrixBlock v = Random(10, 1, 5);

  // Fault-free reference run.
  MatrixBlock tsmm_ref, tmm_ref, mv_ref, cs_ref;
  {
    FederatedRegistry clean(3);
    auto fx = FederatedMatrix::Distribute(&clean, x, "X");
    auto fy = FederatedMatrix::Distribute(&clean, y, "Y");
    ASSERT_TRUE(fx.ok() && fy.ok());
    tsmm_ref = *fx->TsmmLeft();
    tmm_ref = *fx->Tmm(*fy);
    mv_ref = *fx->MatVec(v);
    cs_ref = *fx->ColSums();
  }

  obs::MetricsDiff diff;

  // Chaos run: standard fault rates plus site 2 permanently dead.
  FaultConfig config = ChaosConfig(GetParam());
  config.profile.dead_targets.push_back({FaultLayer::kFederated, 2});
  ScopedFaultInjection chaos(config);

  FederatedRegistry registry(3);
  auto fx = FederatedMatrix::Distribute(&registry, x, "X");
  auto fy = FederatedMatrix::Distribute(&registry, y, "Y");
  ASSERT_TRUE(fx.ok() && fy.ok());

  auto tsmm = fx->TsmmLeft();
  ASSERT_TRUE(tsmm.ok()) << tsmm.status();
  EXPECT_TRUE(tsmm->EqualsApprox(tsmm_ref, 0));

  auto tmm = fx->Tmm(*fy);
  ASSERT_TRUE(tmm.ok()) << tmm.status();
  EXPECT_TRUE(tmm->EqualsApprox(tmm_ref, 0));

  auto mv = fx->MatVec(v);
  ASSERT_TRUE(mv.ok()) << mv.status();
  EXPECT_TRUE(mv->EqualsApprox(mv_ref, 0));

  auto cs = fx->ColSums();
  ASSERT_TRUE(cs.ok()) << cs.status();
  EXPECT_TRUE(cs->EqualsApprox(cs_ref, 0));

  auto collected = fx->Collect();
  ASSERT_TRUE(collected.ok()) << collected.status();
  EXPECT_TRUE(collected->EqualsApprox(x, 0));

  // The dead site forces retries and then the local-CP fallback.
  EXPECT_GT(diff.Counter("fault.fed.retries"), 0);
  EXPECT_GT(diff.Counter("fault.fed.local_fallbacks"), 0);
}

TEST_P(ChaosTest, FederatedLmSurvivesChaos) {
  MatrixBlock x = Random(200, 12, 6);
  MatrixBlock w = Random(12, 1, 7);
  auto y = MatMult(x, w, 1);

  FaultConfig config = ChaosConfig(GetParam());
  config.profile.dead_targets.push_back({FaultLayer::kFederated, 1});
  ScopedFaultInjection chaos(config);

  FederatedRegistry registry(4);
  auto fx = FederatedMatrix::Distribute(&registry, x, "X");
  auto fy = FederatedMatrix::Distribute(&registry, *y, "y");
  ASSERT_TRUE(fx.ok() && fy.ok());
  auto b = FederatedLmDS(*fx, *fy, 1e-10);
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_TRUE(b->EqualsApprox(w, 1e-6));
}

TEST_P(ChaosTest, DistMatMultBitIdenticalUnderExecutorCrashes) {
  MatrixBlock a = Random(256, 64, 11);
  MatrixBlock b = Random(64, 256, 12);
  BlockedMatrix ba = BlockedMatrix::FromMatrix(a, 32);
  BlockedMatrix bb = BlockedMatrix::FromMatrix(b, 32);

  auto reference = DistMatMult(ba, bb);
  ASSERT_TRUE(reference.ok());

  obs::MetricsDiff diff;

  // Crash-heavy profile: every task risks losing its attempt and being
  // re-executed; with 8x8 output blocks each seed injects several crashes.
  FaultConfig config = ChaosConfig(GetParam());
  config.profile.crash_prob = 0.08;
  config.profile.delay_prob = 0.05;
  ScopedFaultInjection chaos(config);

  auto chaotic = DistMatMult(ba, bb);
  ASSERT_TRUE(chaotic.ok()) << chaotic.status();
  EXPECT_TRUE(chaotic->ToMatrix().EqualsApprox(reference->ToMatrix(), 0));

  EXPECT_GT(diff.Counter("fault.injected.crash"), 0);
  EXPECT_GT(diff.Counter("fault.dist.retries"), 0);
}

TEST_P(ChaosTest, DistTsmmBitIdenticalUnderChaos) {
  MatrixBlock x = Random(240, 48, 13);
  BlockedMatrix bx = BlockedMatrix::FromMatrix(x, 32);
  auto reference = DistTsmmLeft(bx);
  ASSERT_TRUE(reference.ok());

  FaultConfig config = ChaosConfig(GetParam());
  config.profile.crash_prob = 0.08;
  ScopedFaultInjection chaos(config);
  auto chaotic = DistTsmmLeft(bx);
  ASSERT_TRUE(chaotic.ok()) << chaotic.status();
  EXPECT_TRUE(chaotic->ToMatrix().EqualsApprox(reference->ToMatrix(), 0));
}

TEST_P(ChaosTest, PsTrainingConvergesThroughMessageDrops) {
  MatrixBlock x = Random(600, 8, 21);
  MatrixBlock w = Random(8, 1, 22);
  auto y = MatMult(x, w, 1);

  obs::MetricsDiff diff;

  // A PS crash is a permanent worker loss (not a retried attempt), so the
  // per-batch crash probability is scaled to roughly one crash per job —
  // the Standard() 2% rate would eventually take out all four workers over
  // a 300-round run.
  FaultConfig config = ChaosConfig(GetParam());
  config.profile.crash_prob = 0.001;
  ScopedFaultInjection chaos(config);

  PsConfig ps;
  ps.num_workers = 4;
  ps.epochs = 60;
  ps.batch_size = 32;
  ps.learning_rate = 0.3;
  ps.mode = PsUpdateMode::kBSP;
  auto result = PsTrain(x, *y, ps);
  ASSERT_TRUE(result.ok()) << result.status();
  // The model is noiseless and realizable, so even if a worker was
  // excluded mid-run the survivors still fit it.
  EXPECT_TRUE(std::isfinite(result->final_loss));
  EXPECT_LT(result->final_loss, 0.1);
  EXPECT_GT(diff.Counter("fault.ps.retries"), 0);
}

TEST_P(ChaosTest, PsDeadWorkerExcludedWithoutWedgingBarrier) {
  MatrixBlock x = Random(400, 6, 31);
  MatrixBlock w = Random(6, 1, 32);
  auto y = MatMult(x, w, 1);

  obs::MetricsDiff diff;

  FaultConfig config = ChaosConfig(GetParam());
  config.profile.drop_prob = 0;  // isolate the dead-worker path
  config.profile.delay_prob = 0;
  config.profile.corrupt_prob = 0;
  config.profile.crash_prob = 0;
  config.profile.dead_targets.push_back({FaultLayer::kPs, 1});
  ScopedFaultInjection chaos(config);

  PsConfig ps;
  ps.num_workers = 4;
  ps.epochs = 40;
  ps.batch_size = 32;
  ps.learning_rate = 0.3;
  ps.mode = PsUpdateMode::kBSP;
  auto result = PsTrain(x, *y, ps);
  // The BSP barrier must shrink around the dead worker instead of hanging.
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->excluded_workers, 1);
  EXPECT_TRUE(std::isfinite(result->final_loss));
  EXPECT_LT(result->final_loss, 0.1);
  EXPECT_GT(diff.Counter("fault.ps.excluded_workers"), 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosTest,
                         ::testing::Values(uint64_t{1}, uint64_t{2},
                                           uint64_t{3}));

}  // namespace
}  // namespace sysds
