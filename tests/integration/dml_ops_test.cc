// End-to-end coverage of the DML builtin operation surface: every operation
// is exercised through the full compile+execute stack and checked against
// closed-form expectations.

#include <gtest/gtest.h>

#include <cmath>

#include "api/systemds_context.h"

namespace sysds {
namespace {

double Eval(const std::string& expr_script, const std::string& out = "v") {
  SystemDSContext ctx;
  auto r = ctx.Execute(expr_script, Inputs(), Outputs(out));
  EXPECT_TRUE(r.ok()) << r.status() << "\nscript:\n" << expr_script;
  if (!r.ok()) return std::nan("");
  auto d = r->GetDouble(out);
  EXPECT_TRUE(d.ok()) << d.status();
  return d.ok() ? *d : std::nan("");
}

TEST(DmlOpsTest, ScalarOperators) {
  EXPECT_DOUBLE_EQ(Eval("v = 7 %% 3\n"), 1.0);
  EXPECT_DOUBLE_EQ(Eval("v = -7 %% 3\n"), 2.0);  // R semantics
  EXPECT_DOUBLE_EQ(Eval("v = 7 %/% 2\n"), 3.0);
  EXPECT_DOUBLE_EQ(Eval("v = 2 ^ 10\n"), 1024.0);
  EXPECT_DOUBLE_EQ(Eval("v = -2 ^ 2\n"), -4.0);  // unary minus after power
  EXPECT_DOUBLE_EQ(Eval("v = 2 ^ -1\n"), 0.5);
  EXPECT_DOUBLE_EQ(Eval("a = TRUE\nb = FALSE\nv = a & !b\n"), 1.0);
  EXPECT_DOUBLE_EQ(Eval("v = ifelse(3 > 2, 10, 20)\n"), 10.0);
  EXPECT_DOUBLE_EQ(Eval("v = min(3, 1, 2)\n"), 1.0);
  EXPECT_DOUBLE_EQ(Eval("v = max(3, 1, 2)\n"), 3.0);
}

TEST(DmlOpsTest, ScalarMathFunctions) {
  EXPECT_NEAR(Eval("v = exp(1)\n"), std::exp(1.0), 1e-12);
  EXPECT_NEAR(Eval("v = log(exp(2))\n"), 2.0, 1e-12);
  EXPECT_NEAR(Eval("v = log(8, 2)\n"), 3.0, 1e-12);  // log with base
  EXPECT_NEAR(Eval("v = sqrt(16)\n"), 4.0, 1e-12);
  EXPECT_DOUBLE_EQ(Eval("v = abs(-3.5)\n"), 3.5);
  EXPECT_DOUBLE_EQ(Eval("v = round(2.6)\n"), 3.0);
  EXPECT_DOUBLE_EQ(Eval("v = floor(2.9)\n"), 2.0);
  EXPECT_DOUBLE_EQ(Eval("v = ceil(2.1)\n"), 3.0);
  EXPECT_DOUBLE_EQ(Eval("v = sign(-9)\n"), -1.0);
  EXPECT_NEAR(Eval("v = sin(0) + cos(0)\n"), 1.0, 1e-12);
}

TEST(DmlOpsTest, MatrixAggregates) {
  const char* mk = "X = matrix(\"1 2 3 4 5 6\", 2, 3)\n";
  EXPECT_DOUBLE_EQ(Eval(std::string(mk) + "v = sum(X)\n"), 21.0);
  EXPECT_DOUBLE_EQ(Eval(std::string(mk) + "v = mean(X)\n"), 3.5);
  EXPECT_DOUBLE_EQ(Eval(std::string(mk) + "v = min(X)\n"), 1.0);
  EXPECT_DOUBLE_EQ(Eval(std::string(mk) + "v = max(X)\n"), 6.0);
  EXPECT_NEAR(Eval(std::string(mk) + "v = var(X)\n"), 3.5, 1e-12);
  EXPECT_NEAR(Eval(std::string(mk) + "v = sd(X)\n"), std::sqrt(3.5), 1e-12);
  EXPECT_DOUBLE_EQ(
      Eval("X = matrix(\"1 2 3 4\", 2, 2)\nv = as.scalar(trace(X) + 0)\n"),
      5.0);
  EXPECT_DOUBLE_EQ(
      Eval(std::string(mk) + "v = as.scalar(colSums(X)[1, 2])\n"), 7.0);
  EXPECT_DOUBLE_EQ(
      Eval(std::string(mk) + "v = as.scalar(rowMeans(X)[2, 1])\n"), 5.0);
  EXPECT_DOUBLE_EQ(
      Eval(std::string(mk) + "v = as.scalar(colMaxs(X)[1, 1])\n"), 4.0);
  EXPECT_DOUBLE_EQ(
      Eval(std::string(mk) + "v = as.scalar(rowMins(X)[1, 1])\n"), 1.0);
  EXPECT_DOUBLE_EQ(
      Eval(std::string(mk) + "v = as.scalar(rowIndexMax(X)[1, 1])\n"), 3.0);
}

TEST(DmlOpsTest, MatrixManipulation) {
  EXPECT_DOUBLE_EQ(
      Eval("X = matrix(\"1 2 3 4\", 2, 2)\n"
           "Y = rbind(X, X)\nv = nrow(Y) + 0.1 * ncol(Y)\n"),
      4.2);
  EXPECT_DOUBLE_EQ(
      Eval("X = seq(1, 6, 1)\nY = matrix(X, 2, 3)\n"
           "v = as.scalar(Y[2, 1])\n"),
      4.0);
  EXPECT_DOUBLE_EQ(
      Eval("X = seq(5, 1, -1)\nv = as.scalar(rev(X)[1, 1])\n"), 1.0);
  EXPECT_DOUBLE_EQ(
      Eval("X = matrix(\"3 1 2\", 3, 1)\n"
           "Y = order(target=X, by=1)\nv = as.scalar(Y[1, 1])\n"),
      1.0);
  EXPECT_DOUBLE_EQ(
      Eval("X = matrix(\"0 5 0\", 3, 1)\n"
           "Y = removeEmpty(target=X, margin=\"rows\")\nv = nrow(Y)\n"),
      1.0);
  EXPECT_DOUBLE_EQ(
      Eval("X = matrix(\"1 2 1\", 3, 1)\n"
           "Y = replace(target=X, pattern=1, replacement=9)\nv = sum(Y)\n"),
      20.0);
  EXPECT_DOUBLE_EQ(
      Eval("v = sum(diag(matrix(2, 3, 1)))\n"), 6.0);
  EXPECT_DOUBLE_EQ(
      Eval("A = matrix(\"1 2 2 3 3 3\", 6, 1)\n"
           "B = matrix(\"1 1 1 1 1 1\", 6, 1)\n"
           "T = table(A, B)\nv = as.scalar(T[3, 1])\n"),
      3.0);
}

TEST(DmlOpsTest, CumulativeAggregates) {
  EXPECT_DOUBLE_EQ(
      Eval("v = as.scalar(cumsum(seq(1, 4, 1))[4, 1])\n"), 10.0);
  EXPECT_DOUBLE_EQ(
      Eval("v = as.scalar(cumprod(seq(1, 4, 1))[4, 1])\n"), 24.0);
  EXPECT_DOUBLE_EQ(
      Eval("X = matrix(\"3 1 2\", 3, 1)\nv = as.scalar(cummin(X)[3, 1])\n"),
      1.0);
  EXPECT_DOUBLE_EQ(
      Eval("X = matrix(\"1 3 2\", 3, 1)\nv = as.scalar(cummax(X)[3, 1])\n"),
      3.0);
}

TEST(DmlOpsTest, QuantilesAndMedian) {
  EXPECT_DOUBLE_EQ(Eval("v = median(seq(1, 9, 1))\n"), 5.0);
  EXPECT_DOUBLE_EQ(Eval("v = quantile(seq(0, 100, 1), 0.25)\n"), 25.0);
  EXPECT_DOUBLE_EQ(Eval("v = quantile(seq(0, 100, 1), 1.0)\n"), 100.0);
}

TEST(DmlOpsTest, MatrixElementwiseAndBroadcast) {
  EXPECT_DOUBLE_EQ(
      Eval("X = matrix(2, 2, 2)\nY = X^2 / 2 - 1\nv = sum(Y)\n"), 4.0);
  EXPECT_DOUBLE_EQ(
      Eval("X = matrix(\"1 2 3 4\", 2, 2)\n"
           "c = colMeans(X)\nY = X - c\nv = sum(Y^2)\n"),
      4.0);
  EXPECT_DOUBLE_EQ(
      Eval("X = matrix(\"1 2 3 4\", 2, 2)\n"
           "v = sum(X > 2)\n"),
      2.0);
  EXPECT_DOUBLE_EQ(
      Eval("X = matrix(\"1 0 3\", 3, 1)\n"
           "Y = ifelse(X > 0, X, 0 - 1)\nv = sum(Y)\n"),
      3.0);
}

TEST(DmlOpsTest, CastsAndStrings) {
  EXPECT_DOUBLE_EQ(Eval("v = as.integer(3.7)\n"), 3.0);
  EXPECT_DOUBLE_EQ(Eval("v = as.double(\"2.5\") * 2\n"), 5.0);
  EXPECT_DOUBLE_EQ(Eval("v = as.scalar(as.matrix(4))\n"), 4.0);
  SystemDSContext ctx;
  auto r = ctx.Execute("s = toString(matrix(1, 2, 2))\nn = 1\n", Inputs(),
                       Outputs("s"));
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_NE(r->GetString("s")->find("2x2"), std::string::npos);
}

TEST(DmlOpsTest, SampleAndSeq) {
  EXPECT_DOUBLE_EQ(Eval("v = nrow(seq(1, 10, 2))\n"), 5.0);
  EXPECT_DOUBLE_EQ(Eval("v = nrow(sample(50, 10, FALSE, 3))\n"), 10.0);
  EXPECT_DOUBLE_EQ(Eval("v = max(sample(5, 100, TRUE, 4))\n"), 5.0);
}

TEST(DmlOpsTest, LinearAlgebra) {
  EXPECT_NEAR(
      Eval("A = matrix(\"4 1 1 3\", 2, 2)\n"
           "b = matrix(\"1 2\", 2, 1)\n"
           "x = solve(A, b)\nr = A %*% x - b\nv = sum(r^2)\n"),
      0.0, 1e-20);
  EXPECT_NEAR(
      Eval("A = matrix(\"4 1 1 3\", 2, 2)\n"
           "I = A %*% inv(A)\nv = sum((I - diag(matrix(1, 2, 1)))^2)\n"),
      0.0, 1e-20);
  EXPECT_NEAR(Eval("v = det(matrix(\"3 8 4 6\", 2, 2))\n"), -14.0, 1e-10);
  EXPECT_NEAR(
      Eval("A = matrix(\"4 1 1 3\", 2, 2)\n"
           "L = cholesky(A)\nv = sum((L %*% t(L) - A)^2)\n"),
      0.0, 1e-20);
  // Matmult chain optimized or not, the result is identical.
  EXPECT_NEAR(
      Eval("A = rand(rows=5, cols=30, seed=1)\n"
           "B = rand(rows=30, cols=30, seed=2)\n"
           "c = rand(rows=30, cols=1, seed=3)\n"
           "r1 = (A %*% B) %*% c\n"
           "r2 = A %*% (B %*% c)\n"
           "v = sum((r1 - r2)^2)\n"),
      0.0, 1e-16);
}

TEST(DmlOpsTest, ReadWriteRoundtripInDml) {
  SystemDSContext ctx;
  auto r = ctx.Execute(
      "X = rand(rows=20, cols=4, seed=5)\n"
      "write(X, 'dml_ops_rw.csv')\n"
      "Y = read('dml_ops_rw.csv')\n"
      "v = sum((X - Y)^2)\n",
      Inputs(), Outputs("v"));
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_NEAR(*r->GetDouble("v"), 0.0, 1e-18);
  std::remove("dml_ops_rw.csv");
}

TEST(DmlOpsTest, BinaryFormatInDml) {
  SystemDSContext ctx;
  auto r = ctx.Execute(
      "X = rand(rows=30, cols=5, seed=6, sparsity=0.2)\n"
      "write(X, 'dml_ops_rw.bin', format='binary')\n"
      "Y = read('dml_ops_rw.bin', format='binary')\n"
      "v = sum((X - Y)^2)\n",
      Inputs(), Outputs("v"));
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_DOUBLE_EQ(*r->GetDouble("v"), 0.0);
  std::remove("dml_ops_rw.bin");
}

TEST(DmlOpsTest, NestedFunctionCallsInExpressions) {
  EXPECT_NEAR(
      Eval("X = rand(rows=50, cols=3, seed=7)\n"
           "y = X %*% matrix(\"1 2 3\", 3, 1)\n"
           "v = sum((X %*% lmDS(X, y, 0, 1e-12) - y)^2)\n"),
      0.0, 1e-15);
}

TEST(DmlOpsTest, WhileWithComplexPredicate) {
  EXPECT_DOUBLE_EQ(
      Eval("x = 100\nn = 0\n"
           "while (x > 1 & n < 50) {\n"
           "  x = x / 2\n"
           "  n = n + 1\n"
           "}\n"
           "v = n\n"),
      7.0);  // 100 / 2^7 < 1
}

TEST(DmlOpsTest, DeepControlFlowNesting) {
  EXPECT_DOUBLE_EQ(
      Eval("acc = 0\n"
           "for (i in 1:3) {\n"
           "  for (j in 1:3) {\n"
           "    if (i == j) {\n"
           "      acc = acc + 10\n"
           "    } else {\n"
           "      if (i < j) {\n"
           "        acc = acc + 1\n"
           "      }\n"
           "    }\n"
           "  }\n"
           "}\n"
           "v = acc\n"),
      33.0);  // 3 diagonal * 10 + 3 upper * 1
}

}  // namespace
}  // namespace sysds
