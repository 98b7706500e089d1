#include <gtest/gtest.h>

#include "api/systemds_context.h"

namespace sysds {
namespace {

// Helper: run a script and return the result (asserting success).
ScriptResult RunScript(const std::string& script, const Inputs& inputs,
                       const std::vector<std::string>& outputs) {
  SystemDSContext ctx;
  auto result = ctx.Execute(script, inputs, Outputs::FromVector(outputs));
  EXPECT_TRUE(result.ok()) << result.status().ToString() << "\nscript:\n"
                           << script;
  return result.ok() ? *result : ScriptResult();
}

TEST(EndToEndTest, ScalarArithmetic) {
  ScriptResult r = RunScript("x = 1 + 2 * 3\ny = x ^ 2\n", {}, {"x", "y"});
  EXPECT_DOUBLE_EQ(*r.GetDouble("x"), 7.0);
  EXPECT_DOUBLE_EQ(*r.GetDouble("y"), 49.0);
}

TEST(EndToEndTest, PrintOutput) {
  ScriptResult r = RunScript("print('hello ' + 'world')\nprint(1+1)\n", {}, {});
  EXPECT_EQ(r.Output(), "hello world\n2\n");
}

TEST(EndToEndTest, MatrixCreateAndAggregate) {
  ScriptResult r = RunScript(
      "X = matrix(2, 10, 5)\n"
      "s = sum(X)\n"
      "m = mean(X)\n"
      "n = nrow(X)\n"
      "c = ncol(X)\n",
      {}, {"s", "m", "n", "c"});
  EXPECT_DOUBLE_EQ(*r.GetDouble("s"), 100.0);
  EXPECT_DOUBLE_EQ(*r.GetDouble("m"), 2.0);
  EXPECT_DOUBLE_EQ(*r.GetDouble("n"), 10.0);
  EXPECT_DOUBLE_EQ(*r.GetDouble("c"), 5.0);
}

TEST(EndToEndTest, MatrixMultiplyAndTranspose) {
  ScriptResult r = RunScript(
      "A = matrix(\"1 2 3 4\", 2, 2)\n"
      "B = t(A) %*% A\n"
      "s = sum(B)\n",
      {}, {"B", "s"});
  MatrixBlock b = *r.GetMatrix("B");
  // t(A)%*%A for A=[1 2;3 4] = [10 14; 14 20].
  EXPECT_DOUBLE_EQ(b.Get(0, 0), 10.0);
  EXPECT_DOUBLE_EQ(b.Get(0, 1), 14.0);
  EXPECT_DOUBLE_EQ(b.Get(1, 0), 14.0);
  EXPECT_DOUBLE_EQ(b.Get(1, 1), 20.0);
  EXPECT_DOUBLE_EQ(*r.GetDouble("s"), 58.0);
}

TEST(EndToEndTest, ControlFlowWhileAndIf) {
  ScriptResult r = RunScript(
      "i = 0\n"
      "s = 0\n"
      "while (i < 10) {\n"
      "  i = i + 1\n"
      "  if (i %% 2 == 0) {\n"
      "    s = s + i\n"
      "  }\n"
      "}\n",
      {}, {"s"});
  EXPECT_DOUBLE_EQ(*r.GetDouble("s"), 30.0);  // 2+4+6+8+10
}

TEST(EndToEndTest, ForLoopAccumulation) {
  ScriptResult r = RunScript(
      "acc = matrix(0, 3, 1)\n"
      "for (i in 1:3) {\n"
      "  acc[i, 1] = i * i\n"
      "}\n",
      {}, {"acc"});
  MatrixBlock acc = *r.GetMatrix("acc");
  EXPECT_DOUBLE_EQ(acc.Get(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(acc.Get(1, 0), 4.0);
  EXPECT_DOUBLE_EQ(acc.Get(2, 0), 9.0);
}

TEST(EndToEndTest, Indexing) {
  ScriptResult r = RunScript(
      "X = matrix(\"1 2 3 4 5 6 7 8 9\", 3, 3)\n"
      "a = as.scalar(X[2, 3])\n"
      "row = X[2, ]\n"
      "col = X[, 1]\n"
      "sub = X[1:2, 2:3]\n",
      {}, {"a", "row", "col", "sub"});
  EXPECT_DOUBLE_EQ(*r.GetDouble("a"), 6.0);
  MatrixBlock row = *r.GetMatrix("row");
  EXPECT_EQ(row.Rows(), 1);
  EXPECT_EQ(row.Cols(), 3);
  EXPECT_DOUBLE_EQ(row.Get(0, 0), 4.0);
  MatrixBlock col = *r.GetMatrix("col");
  EXPECT_EQ(col.Rows(), 3);
  EXPECT_DOUBLE_EQ(col.Get(2, 0), 7.0);
  MatrixBlock sub = *r.GetMatrix("sub");
  EXPECT_DOUBLE_EQ(sub.Get(1, 1), 6.0);
}

TEST(EndToEndTest, UserDefinedFunction) {
  ScriptResult r = RunScript(
      "f = function(Double a, Double b = 10) return (Double c) {\n"
      "  c = a * b\n"
      "}\n"
      "x = f(3)\n"
      "y = f(3, 4)\n"
      "z = f(a=2, b=5)\n",
      {}, {"x", "y", "z"});
  EXPECT_DOUBLE_EQ(*r.GetDouble("x"), 30.0);
  EXPECT_DOUBLE_EQ(*r.GetDouble("y"), 12.0);
  EXPECT_DOUBLE_EQ(*r.GetDouble("z"), 10.0);
}

TEST(EndToEndTest, MultiReturnFunction) {
  ScriptResult r = RunScript(
      "f = function(Matrix[Double] X) return (Double mn, Double mx) {\n"
      "  mn = min(X)\n"
      "  mx = max(X)\n"
      "}\n"
      "X = matrix(\"3 1 4 1 5\", 5, 1)\n"
      "[lo, hi] = f(X)\n",
      {}, {"lo", "hi"});
  EXPECT_DOUBLE_EQ(*r.GetDouble("lo"), 1.0);
  EXPECT_DOUBLE_EQ(*r.GetDouble("hi"), 5.0);
}

TEST(EndToEndTest, ExternalInputsAndOutputs) {
  SystemDSContext ctx;
  MatrixBlock x = MatrixBlock::FromValues(2, 2, {1, 2, 3, 4});
  auto result = ctx.Execute("Y = X * 2 + s\n",
                            Inputs().Matrix("X", x).Scalar("s", 1.0),
                            Outputs("Y"));
  ASSERT_TRUE(result.ok()) << result.status();
  MatrixBlock y = *result->GetMatrix("Y");
  EXPECT_DOUBLE_EQ(y.Get(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(y.Get(1, 1), 9.0);
}

TEST(EndToEndTest, LmDSBuiltinRecoversCoefficients) {
  // y = X * [2; -3] exactly; lmDS should recover the coefficients.
  ScriptResult r = RunScript(
      "X = rand(rows=200, cols=2, seed=42)\n"
      "w = matrix(\"2 -3\", 2, 1)\n"
      "y = X %*% w\n"
      "B = lmDS(X, y, 0, 1e-12)\n"
      "err = sum((B - w)^2)\n",
      {}, {"err"});
  EXPECT_LT(*r.GetDouble("err"), 1e-12);
}

TEST(EndToEndTest, LmCGMatchesLmDS) {
  ScriptResult r = RunScript(
      "X = rand(rows=100, cols=5, seed=7)\n"
      "y = rand(rows=100, cols=1, seed=8)\n"
      "B1 = lmDS(X, y, 0, 0.001)\n"
      "B2 = lmCG(X, y, 0, 0.001, 1e-12, 100)\n"
      "d = sum((B1 - B2)^2)\n",
      {}, {"d"});
  EXPECT_LT(*r.GetDouble("d"), 1e-8);
}

TEST(EndToEndTest, ParForComputesDisjointResults) {
  ScriptResult r = RunScript(
      "R = matrix(0, 1, 8)\n"
      "parfor (i in 1:8) {\n"
      "  R[1, i] = i * 10\n"
      "}\n"
      "s = sum(R)\n",
      {}, {"s"});
  EXPECT_DOUBLE_EQ(*r.GetDouble("s"), 360.0);
}

TEST(EndToEndTest, SteplmSelectsInformativeFeatures) {
  // Only features 1 and 3 are informative.
  ScriptResult r = RunScript(
      "X = rand(rows=150, cols=5, seed=3)\n"
      "y = 4 * X[, 1] - 2 * X[, 3]\n"
      "[B, S] = steplm(X, y, 0, 1e-10)\n",
      {}, {"B", "S"});
  MatrixBlock s = *r.GetMatrix("S");
  EXPECT_GT(s.Get(0, 0), 0.0);  // feature 1 selected
  EXPECT_GT(s.Get(0, 2), 0.0);  // feature 3 selected
  EXPECT_DOUBLE_EQ(s.Get(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(s.Get(0, 3), 0.0);
  EXPECT_DOUBLE_EQ(s.Get(0, 4), 0.0);
}

TEST(EndToEndTest, IfElseBranchesAndElseIf) {
  ScriptResult r = RunScript(
      "x = 5\n"
      "if (x > 10) {\n"
      "  y = 1\n"
      "} else if (x > 3) {\n"
      "  y = 2\n"
      "} else {\n"
      "  y = 3\n"
      "}\n",
      {}, {"y"});
  EXPECT_DOUBLE_EQ(*r.GetDouble("y"), 2.0);
}

TEST(EndToEndTest, ErrorUndefinedVariable) {
  SystemDSContext ctx;
  auto result = ctx.Execute("y = x + 1\n", Inputs(), Outputs("y"));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kValidateError);
}

TEST(EndToEndTest, ErrorDimensionMismatch) {
  SystemDSContext ctx;
  auto result = ctx.Execute(
      "A = matrix(1, 2, 3)\nB = matrix(1, 2, 3)\nC = A %*% B\n", Inputs(),
      Outputs("C"));
  EXPECT_FALSE(result.ok());
}

TEST(EndToEndTest, StopAbortsExecution) {
  SystemDSContext ctx;
  auto result = ctx.Execute("x = 1\nstop('custom failure')\ny = 2\n",
                            Inputs(), Outputs::None());
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("custom failure"),
            std::string::npos);
}

}  // namespace
}  // namespace sysds
