// Differential suite for the operator-fusion engine: every script runs in a
// fusion-enabled and a fusion-disabled context and must produce *identical*
// results (EXPECT_EQ on scalars, zero-epsilon compare on matrices). The
// fused runtime shares aggregation primitives, chunking policy, and
// zero-handling rules with the unfused kernels precisely so this holds —
// see DESIGN.md "Operator fusion: determinism".

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "api/systemds_context.h"
#include "obs/metrics.h"

namespace sysds {
namespace {

std::unique_ptr<SystemDSContext> MakeCtx(bool fusion) {
  return SystemDSContext::Builder().Fusion(fusion).Build();
}

// Runs `script` with and without fusion and asserts the named outputs are
// identical. Also asserts the fused run actually planned at least one
// region, so the comparison is never vacuous.
void ExpectIdentical(const std::string& script,
                     const std::vector<std::string>& scalar_outs,
                     const std::vector<std::string>& matrix_outs,
                     bool expect_fused = true) {
  std::vector<std::string> all = scalar_outs;
  all.insert(all.end(), matrix_outs.begin(), matrix_outs.end());
  Outputs outs = Outputs::FromVector(all);

  auto fused_ctx = MakeCtx(true);
  auto unfused_ctx = MakeCtx(false);
  obs::MetricsDiff diff;
  auto rf = fused_ctx->Execute(script, Inputs(), outs);
  const int64_t regions = diff.Counter("fusion.regions");
  auto ru = unfused_ctx->Execute(script, Inputs(), outs);
  ASSERT_TRUE(rf.ok()) << rf.status();
  ASSERT_TRUE(ru.ok()) << ru.status();
  if (expect_fused) {
    EXPECT_GT(regions, 0)
        << "expected the fused context to plan at least one region";
  }

  for (const std::string& name : scalar_outs) {
    auto vf = rf->GetDouble(name);
    auto vu = ru->GetDouble(name);
    ASSERT_TRUE(vf.ok()) << vf.status();
    ASSERT_TRUE(vu.ok()) << vu.status();
    EXPECT_EQ(*vf, *vu) << "scalar output '" << name << "' diverged";
  }
  for (const std::string& name : matrix_outs) {
    auto mf = rf->GetMatrix(name);
    auto mu = ru->GetMatrix(name);
    ASSERT_TRUE(mf.ok()) << mf.status();
    ASSERT_TRUE(mu.ok()) << mu.status();
    ASSERT_EQ(mf->Rows(), mu->Rows());
    ASSERT_EQ(mf->Cols(), mu->Cols());
    EXPECT_TRUE(mf->EqualsApprox(*mu, 0.0))
        << "matrix output '" << name << "' diverged";
  }
}

TEST(FusionDifferentialTest, DenseChainRowAggregate) {
  ExpectIdentical(
      "X = rand(rows=200, cols=37, seed=1)\n"
      "R = rowSums(((X - 0.5) / 0.29)^2)\n"
      "s = sum(R)\n",
      {"s"}, {"R"});
}

TEST(FusionDifferentialTest, DenseChainFullAggregate) {
  ExpectIdentical(
      "X = rand(rows=150, cols=64, min=-2, max=2, seed=2)\n"
      "s = sum(1 / (1 + exp(-X)))\n",
      {"s"}, {});
}

TEST(FusionDifferentialTest, DenseChainColAggregate) {
  ExpectIdentical(
      "X = rand(rows=128, cols=45, seed=3)\n"
      "C = colSums((X * X) + X)\n",
      {}, {"C"});
}

TEST(FusionDifferentialTest, MinMeanVarAggregates) {
  ExpectIdentical(
      "X = rand(rows=90, cols=31, min=-1, max=1, seed=4)\n"
      "a = min((X + 1) * 2)\n"
      "b = mean((X - 0.3)^2)\n"
      "c = max(abs(X) * 3)\n",
      {"a", "b", "c"}, {});
}

TEST(FusionDifferentialTest, VectorBroadcastInputs) {
  ExpectIdentical(
      "X = rand(rows=64, cols=33, seed=5)\n"
      "v = rand(rows=64, cols=1, seed=6)\n"
      "w = rand(rows=1, cols=33, min=0.5, max=1.5, seed=7)\n"
      "R = rowSums(((X - v) * w) + X^2)\n"
      "C = colSums((X / w) - v)\n",
      {}, {"R", "C"});
}

TEST(FusionDifferentialTest, SparseDriverFullAggregate) {
  // Sparse input and a zero-preserving pipeline: the fused kernel takes the
  // sparse-driver fast path; the unfused chain stays sparse throughout.
  ExpectIdentical(
      "X = rand(rows=300, cols=80, sparsity=0.1, seed=8)\n"
      "s = sum((X * 2)^2)\n"
      "r = sum((X * 3) * X)\n",
      {"s", "r"}, {});
}

TEST(FusionDifferentialTest, SparseDriverRowColAggregates) {
  ExpectIdentical(
      "X = rand(rows=250, cols=60, sparsity=0.08, seed=9)\n"
      "R = rowSums((X * X) * 0.5)\n"
      "C = colSums(abs(X) * 2)\n",
      {}, {"R", "C"});
}

TEST(FusionDifferentialTest, ElementwiseOnlyRegion) {
  ExpectIdentical(
      "X = rand(rows=120, cols=40, seed=10)\n"
      "Y = rand(rows=120, cols=40, seed=11)\n"
      "Z = ((X + Y) * X) - Y\n",
      {}, {"Z"});
}

TEST(FusionDifferentialTest, NnzAndSumSqAggregates) {
  ExpectIdentical(
      "X = rand(rows=100, cols=50, sparsity=0.3, seed=12)\n"
      "n = sum((X * 2) != 0)\n"
      "q = sum((X * X) * (X * X))\n",
      {"n", "q"}, {});
}

TEST(FusionDifferentialTest, RecompileTriggersRefusion) {
  // Sizes of read() results are unknown at compile time; fusion must kick
  // in during dynamic recompilation once real dimensions are known.
  SystemDSContext gen;
  auto g = gen.Execute(
      "X = rand(rows=80, cols=12, seed=13)\nwrite(X, 'fusion_rc.csv')\n",
      Inputs(), Outputs::None());
  ASSERT_TRUE(g.ok()) << g.status();

  // The chain sits in a loop body — its own basic block — so by the time
  // that block recompiles at entry, X is live with known dimensions.
  const std::string script =
      "X = read('fusion_rc.csv')\n"
      "s = 0\n"
      "for (i in 1:2) {\n"
      "  R = rowSums(((X - 0.5) / 0.29)^2)\n"
      "  s = s + sum(R)\n"
      "}\n";

  DMLConfig stats_config;
  stats_config.statistics = true;
  SystemDSContext fused_ctx(stats_config);
  obs::MetricsDiff diff;
  auto rf = fused_ctx.Execute(script, Inputs(), Outputs("s"));
  ASSERT_TRUE(rf.ok()) << rf.status();
  EXPECT_GT(diff.Counter("compiler.recompilations"), 0);
  EXPECT_GT(diff.Counter("fusion.regions"), 0)
      << "recompilation should have re-planned fusion with known sizes";

  auto unfused_ctx = MakeCtx(false);
  auto ru = unfused_ctx->Execute(script, Inputs(), Outputs("s"));
  ASSERT_TRUE(ru.ok()) << ru.status();
  EXPECT_EQ(*rf->GetDouble("s"), *ru->GetDouble("s"));
  std::remove("fusion_rc.csv");
}

TEST(FusionDifferentialTest, MetricsReportElidedIntermediates) {
  auto ctx = MakeCtx(true);
  obs::MetricsDiff diff;
  auto r = ctx->Execute(
      "X = rand(rows=100, cols=20, seed=14)\n"
      "s = sum(((X - 0.1) * 2)^2)\n",
      Inputs(), Outputs("s"));
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_GE(diff.Counter("fusion.intermediates_elided"), 3)
      << "three interior intermediates should have been elided";
}

}  // namespace
}  // namespace sysds
