#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "api/systemds_context.h"
#include "obs/metrics.h"

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
  obs::MetricsDiff diff;
  auto r = ctx.Execute(
      "X = read('recomp_x.csv')\n"
      "A = t(X) %*% X\n"
      "n = nrow(X)\n"
      "s = sum(A)\n",
      Inputs(), Outputs("n", "s"));
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_DOUBLE_EQ(*r->GetDouble("n"), 80.0);
  EXPECT_GT(diff.Counter("compiler.recompilations"), 0);
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

// Executed instructions of the distributed backend (opcode prefix "sp_")
// since `diff`, from the instruction statistics of contexts built with
// Statistics().
int64_t DistInstructionsExecuted(const obs::MetricsDiff& diff) {
  int64_t n = 0;
  for (const auto& [name, s] : diff.Delta().instructions) {
    if (name.rfind("sp_", 0) == 0) n += s.count;
  }
  return n;
}

TEST(RecompileTest, LmDSOnKnownSizesRunsNoDistInstruction) {
  // lmDS sizes l = matrix(reg, ncol(X), 1) from ncol(X): once X's size is
  // known, t(X)%*%X + diag(l) fits the CP budget and never runs sp_+.
  auto ctx = SystemDSContext::Builder().Statistics().Build();
  obs::MetricsDiff diff;
  auto r = ctx->Execute(
      "X = rand(rows=200, cols=20, seed=1)\n"
      "y = rand(rows=200, cols=1, seed=2)\n"
      "B = lmDS(X, y, 0, 0.001)\n"
      "n = nrow(B)\n",
      Inputs(), Outputs("n"));
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_DOUBLE_EQ(*r->GetDouble("n"), 20.0);
  EXPECT_EQ(DistInstructionsExecuted(diff), 0);
}

TEST(RecompileTest, TransformEncodeThenFunctionCallRunsNoDistInstruction) {
  // The statements after transformencode and after lmCG form new blocks
  // that recompile against the encoded matrix and the model: X %*% B runs
  // in CP.
  const std::string path = "recomp_prep.csv";
  {
    std::ofstream out(path);
    out << "city,num,label\n";
    const char* cities[] = {"graz", "vienna", "linz", "salzburg"};
    for (int i = 0; i < 400; ++i) {
      out << cities[i % 4] << "," << (i % 17) << "," << (i % 5) << "\n";
    }
  }
  auto ctx = SystemDSContext::Builder().Statistics().Build();
  obs::MetricsDiff diff;
  auto r = ctx->Execute(
      "F = read('" + path + "', data_type='frame', header=TRUE)\n"
      "[Xall, M] = transformencode(target=F, "
      "spec='{\"recode\":[\"city\"],\"dummycode\":[\"city\"]}')\n"
      "width = ncol(Xall)\n"
      "X = Xall[, 1:(width - 1)]\n"
      "y = Xall[, width]\n"
      "B = lmCG(X, y, 0, 0.001, 1e-12, 20)\n"
      "r = y - X %*% B\n"
      "res = sum(r^2)\n"
      "ynorm = sum(y^2)\n",
      Inputs(), Outputs("width", "res", "ynorm"));
  std::remove(path.c_str());
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_DOUBLE_EQ(*r->GetDouble("width"), 6.0);
  EXPECT_LT(*r->GetDouble("res"), *r->GetDouble("ynorm"));
  EXPECT_EQ(DistInstructionsExecuted(diff), 0);
}

TEST(RecompileTest, FunctionRecompilesOnlyWhenInputSizesChange) {
  // f's body recompiles for the sizes of each call's inputs, and reuses its
  // plan while they stay the same: A, A, B, B, A recompiles three times.
  auto ctx = SystemDSContext::Builder().Statistics().Build();
  obs::MetricsDiff diff;
  auto r = ctx->Execute(
      "f = function(Matrix[Double] X, Matrix[Double] v) return (Double s) {\n"
      "  s = sum((X - v)^2)\n"
      "}\n"
      "A = rand(rows=50, cols=1, seed=1)\n"
      "B = rand(rows=50, cols=3, seed=2)\n"
      "v = rand(rows=50, cols=1, seed=3)\n"
      "s1 = f(A, v)\n"
      "s2 = f(A, v)\n"
      "s3 = f(B, v)\n"
      "s4 = f(B, v)\n"
      "s5 = f(A, v)\n"
      "ea = sum((A - v)^2)\n"
      "eb = sum((B - v)^2)\n",
      Inputs(), Outputs("s1", "s2", "s3", "s4", "s5", "ea", "eb"));
  ASSERT_TRUE(r.ok()) << r.status();
  for (const char* s : {"s1", "s2", "s5"}) {
    EXPECT_DOUBLE_EQ(*r->GetDouble(s), *r->GetDouble("ea")) << s;
  }
  for (const char* s : {"s3", "s4"}) {
    EXPECT_DOUBLE_EQ(*r->GetDouble(s), *r->GetDouble("eb")) << s;
  }
  EXPECT_EQ(diff.Counter("compiler.recompilations"), 3);
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
