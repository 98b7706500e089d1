#include <gtest/gtest.h>

#include <cmath>

#include "api/systemds_context.h"

namespace sysds {
namespace {

TEST(EngineRobustnessTest, TinyBufferPoolStillCorrect) {
  // With an aggressively small buffer pool, intermediates spill to disk
  // and restore transparently; results are unchanged.
  DMLConfig config;
  config.buffer_pool_limit = 64 * 1024;  // 64 KB
  SystemDSContext ctx(config);
  auto r = ctx.Execute(
      "X = rand(rows=200, cols=60, seed=1)\n"       // ~96KB each
      "A = X + 1\n"
      "B = X * 2\n"
      "C = t(X) %*% X\n"
      "s = sum(A) + sum(B) + sum(C)\n",
      Inputs(), Outputs("s"));
  ASSERT_TRUE(r.ok()) << r.status();

  DMLConfig big;
  SystemDSContext ctx2(big);
  auto r2 = ctx2.Execute(
      "X = rand(rows=200, cols=60, seed=1)\n"
      "A = X + 1\n"
      "B = X * 2\n"
      "C = t(X) %*% X\n"
      "s = sum(A) + sum(B) + sum(C)\n",
      Inputs(), Outputs("s"));
  ASSERT_TRUE(r2.ok());
  EXPECT_DOUBLE_EQ(*r->GetDouble("s"), *r2->GetDouble("s"));
  EXPECT_GT(ctx.Pool()->EvictionCount(), 0);
}

TEST(EngineRobustnessTest, RuntimeErrorsCarryInstructionContext) {
  SystemDSContext ctx;
  auto r = ctx.Execute(
      "A = matrix(\"1 2 2 4\", 2, 2)\n"  // singular
      "b = matrix(1, 2, 1)\n"
      "x = solve(A, b)\n",
      Inputs(), Outputs::None());
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("singular"), std::string::npos);
  EXPECT_NE(r.status().message().find("[in solve]"), std::string::npos);
}

TEST(EngineRobustnessTest, IndexOutOfBoundsAtRuntime) {
  SystemDSContext ctx;
  auto r = ctx.Execute(
      "X = matrix(1, 3, 3)\n"
      "i = 5\n"
      "v = as.scalar(X[i, 1])\n",
      Inputs(), Outputs::None());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
}

TEST(EngineRobustnessTest, DivisionByZeroFollowsIeee) {
  SystemDSContext ctx;
  auto r = ctx.Execute(
      "a = 1 / 0\n"
      "b = -1 / 0\n"
      "c = 0 / 0\n"
      "isnan = c != c\n",
      Inputs(), Outputs("a", "b", "isnan"));
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(std::isinf(*r->GetDouble("a")));
  EXPECT_LT(*r->GetDouble("b"), 0);
  EXPECT_EQ(*r->GetString("isnan"), "TRUE");
}

TEST(EngineRobustnessTest, EmptyMatrixOperations) {
  SystemDSContext ctx;
  auto r = ctx.Execute(
      "X = matrix(0, 0, 5)\n"
      "n = nrow(X)\n"
      "s = sum(X)\n"
      "Y = rbind(X, matrix(1, 2, 5))\n"
      "m = nrow(Y)\n",
      Inputs(), Outputs("n", "s", "m"));
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_DOUBLE_EQ(*r->GetDouble("n"), 0.0);
  EXPECT_DOUBLE_EQ(*r->GetDouble("s"), 0.0);
  EXPECT_DOUBLE_EQ(*r->GetDouble("m"), 2.0);
}

TEST(EngineRobustnessTest, LargeLoopManyIterations) {
  SystemDSContext ctx;
  auto r = ctx.Execute(
      "s = 0\n"
      "for (i in 1:10000) {\n"
      "  s = s + i\n"
      "}\n",
      Inputs(), Outputs("s"));
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_DOUBLE_EQ(*r->GetDouble("s"), 10000.0 * 10001.0 / 2.0);
}

TEST(EngineRobustnessTest, RecursionInUserFunctions) {
  SystemDSContext ctx;
  auto r = ctx.Execute(
      "fact = function(Double n) return (Double f) {\n"
      "  if (n <= 1) {\n"
      "    f = 1\n"
      "  } else {\n"
      "    f = n * fact(n - 1)\n"
      "  }\n"
      "}\n"
      "v = fact(10)\n",
      Inputs(), Outputs("v"));
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_DOUBLE_EQ(*r->GetDouble("v"), 3628800.0);
}

TEST(EngineRobustnessTest, ShadowingParameterNames) {
  SystemDSContext ctx;
  auto r = ctx.Execute(
      "f = function(Matrix[Double] X) return (Matrix[Double] X) {\n"
      "  X = X * 2\n"
      "}\n"
      "X = matrix(3, 2, 2)\n"
      "Y = f(X)\n"
      "a = sum(X)\n"
      "b = sum(Y)\n",
      Inputs(), Outputs("a", "b"));
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_DOUBLE_EQ(*r->GetDouble("a"), 12.0);  // caller X untouched
  EXPECT_DOUBLE_EQ(*r->GetDouble("b"), 24.0);
}

TEST(EngineRobustnessTest, SparseDenseTransitionsInScript) {
  SystemDSContext ctx;
  auto r = ctx.Execute(
      "X = rand(rows=200, cols=200, seed=1, sparsity=0.01)\n"  // sparse
      "Y = X + 1\n"                                            // densifies
      "Z = Y * (X != 0)\n"                                     // re-sparsifies
      "v = sum(Z) - sum(X) - sum(X != 0)\n",
      Inputs(), Outputs("v"));
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_NEAR(*r->GetDouble("v"), 0.0, 1e-9);
}

}  // namespace
}  // namespace sysds
