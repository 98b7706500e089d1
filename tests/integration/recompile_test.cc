#include <gtest/gtest.h>

#include "api/systemds_context.h"
#include "common/statistics.h"

namespace sysds {
namespace {

TEST(RecompileTest, UnknownSizesFromReadAreResolved) {
  // Sizes of read() results are unknown at compile time; downstream blocks
  // recompile against live metadata (§2.3(3)).
  SystemDSContext gen;
  auto g = gen.Execute(
      "X = rand(rows=80, cols=12, seed=1)\nwrite(X, 'recomp_x.csv')\n",
      Inputs(), Outputs::None());
  ASSERT_TRUE(g.ok()) << g.status();

  DMLConfig config;
  config.statistics = true;
  SystemDSContext ctx(config);
  Statistics::Get().Reset();
  auto r = ctx.Execute(
      "X = read('recomp_x.csv')\n"
      "A = t(X) %*% X\n"
      "n = nrow(X)\n"
      "s = sum(A)\n",
      Inputs(), Outputs("n", "s"));
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_DOUBLE_EQ(*r->GetDouble("n"), 80.0);
  EXPECT_GT(Statistics::Get().GetCounter("compiler.recompilations"), 0);
  std::remove("recomp_x.csv");
}

TEST(RecompileTest, DisabledRecompilationStillCorrect) {
  // Instructions are size-dynamic, so turning recompilation off changes
  // only plan choices, never results.
  SystemDSContext gen;
  auto g = gen.Execute(
      "X = rand(rows=40, cols=6, seed=2)\nwrite(X, 'recomp_y.csv')\n", Inputs(),
      Outputs::None());
  ASSERT_TRUE(g.ok());
  DMLConfig config;
  config.dynamic_recompilation = false;
  SystemDSContext ctx(config);
  auto r = ctx.Execute(
      "X = read('recomp_y.csv')\n"
      "s = sum(t(X) %*% X)\n",
      Inputs(), Outputs("s"));
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_GT(*r->GetDouble("s"), 0.0);
  std::remove("recomp_y.csv");
}

TEST(RecompileTest, LoopWithGrowingMatrix) {
  // Xg grows every iteration (the steplm pattern): compile-time sizes are
  // invalidated, runtime recompilation keeps plans consistent.
  SystemDSContext ctx;
  auto r = ctx.Execute(
      "X = rand(rows=30, cols=5, seed=3)\n"
      "Xg = matrix(1, 30, 1)\n"
      "for (i in 1:5) {\n"
      "  Xg = cbind(Xg, X[, i])\n"
      "}\n"
      "c = ncol(Xg)\n"
      "A = t(Xg) %*% Xg\n"
      "n = nrow(A)\n",
      Inputs(), Outputs("c", "n"));
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_DOUBLE_EQ(*r->GetDouble("c"), 6.0);
  EXPECT_DOUBLE_EQ(*r->GetDouble("n"), 6.0);
}

TEST(ParamServTest, DmlLevelParamservBuiltin) {
  SystemDSContext ctx;
  auto r = ctx.Execute(
      "X = rand(rows=400, cols=6, seed=4)\n"
      "wtrue = rand(rows=6, cols=1, seed=5)\n"
      "y = X %*% wtrue\n"
      "w = paramserv(features=X, labels=y, workers=2, epochs=40,\n"
      "              batchsize=32, lr=0.3, mode='BSP')\n"
      "err = sum((w - wtrue)^2)\n",
      Inputs(), Outputs("err"));
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_LT(*r->GetDouble("err"), 1e-2);
}

TEST(ParamServTest, AspModeAndLogisticObjective) {
  SystemDSContext ctx;
  auto r = ctx.Execute(
      "X = rand(rows=300, cols=4, min=-1, max=1, seed=6)\n"
      "wtrue = matrix(\"2 -2 1 -1\", 4, 1)\n"
      "y = (X %*% wtrue) > 0\n"
      "w = paramserv(features=X, labels=y, workers=2, epochs=60,\n"
      "              batchsize=32, lr=0.5, mode='ASP',\n"
      "              objective='logistic')\n"
      "pred = (X %*% w) > 0\n"
      "acc = sum(pred == y) / 300\n",
      Inputs(), Outputs("acc"));
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_GT(*r->GetDouble("acc"), 0.9);
}

}  // namespace
}  // namespace sysds
