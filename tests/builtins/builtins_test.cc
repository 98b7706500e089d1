#include <gtest/gtest.h>

#include <cmath>

#include "api/systemds_context.h"
#include "builtins/registry.h"

namespace sysds {
namespace {

ScriptResult RunScript(const std::string& script,
                       const std::vector<std::string>& outputs) {
  SystemDSContext ctx;
  auto r = ctx.Execute(script, Inputs(), Outputs::FromVector(outputs));
  EXPECT_TRUE(r.ok()) << r.status() << "\nscript:\n" << script;
  return r.ok() ? *r : ScriptResult();
}

TEST(BuiltinRegistryTest, CoreBuiltinsRegistered) {
  for (const char* name : {"lm", "lmDS", "lmCG", "steplm", "scale",
                           "normalize", "kmeans", "pca", "gridSearch",
                           "crossV", "imputeByMean", "l2svm"}) {
    EXPECT_NE(GetBuiltinScript(name), nullptr) << name;
  }
  EXPECT_EQ(GetBuiltinScript("doesNotExist"), nullptr);
  EXPECT_GE(BuiltinNames().size(), 12u);
}

TEST(BuiltinsTest, ScaleCentersAndStandardizes) {
  ScriptResult r = RunScript(
      "X = rand(rows=500, cols=4, min=5, max=9, seed=1)\n"
      "[Y, mu, sd] = scale(X)\n"
      "cm = colMeans(Y)\n"
      "cs = colSds(Y)\n"
      "max_mean = max(abs(cm))\n"
      "sd_err = max(abs(cs - 1))\n",
      {"max_mean", "sd_err"});
  EXPECT_LT(*r.GetDouble("max_mean"), 1e-10);
  EXPECT_LT(*r.GetDouble("sd_err"), 1e-10);
}

TEST(BuiltinsTest, NormalizeToUnitRange) {
  ScriptResult r = RunScript(
      "X = rand(rows=100, cols=3, min=-7, max=13, seed=2)\n"
      "[Y, cmin, cmax] = normalize(X)\n"
      "lo = min(Y)\n"
      "hi = max(Y)\n",
      {"lo", "hi"});
  EXPECT_NEAR(*r.GetDouble("lo"), 0.0, 1e-12);
  EXPECT_NEAR(*r.GetDouble("hi"), 1.0, 1e-12);
}

TEST(BuiltinsTest, ImputeByMeanReplacesNaN) {
  ScriptResult r = RunScript(
      "X = matrix(\"1 2 3 4\", 4, 1)\n"
      "X[2, 1] = 0 / 0\n"
      "Y = imputeByMean(X)\n"
      "v = as.scalar(Y[2, 1])\n"
      "nanleft = sum(Y != Y)\n",
      {"v", "nanleft"});
  EXPECT_NEAR(*r.GetDouble("v"), (1.0 + 3.0 + 4.0) / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(*r.GetDouble("nanleft"), 0.0);
}

TEST(BuiltinsTest, OutlierBySdCapsValues) {
  ScriptResult r = RunScript(
      "X = rand(rows=200, cols=1, min=-1, max=1, seed=3)\n"
      "X[1, 1] = 1000\n"
      "Y = outlierBySd(X, 3)\n"
      "mx = max(Y)\n",
      {"mx"});
  EXPECT_LT(*r.GetDouble("mx"), 1000.0);
}

TEST(BuiltinsTest, WinsorizeCapsTails) {
  ScriptResult r = RunScript(
      "X = seq(1, 100, 1)\n"
      "Y = winsorize(X, 0.05, 0.95)\n"
      "lo = min(Y)\n"
      "hi = max(Y)\n",
      {"lo", "hi"});
  EXPECT_GT(*r.GetDouble("lo"), 1.0);
  EXPECT_LT(*r.GetDouble("hi"), 100.0);
}

TEST(BuiltinsTest, OutlierByIQR) {
  ScriptResult r = RunScript(
      "X = seq(1, 50, 1)\n"
      "X[50, 1] = 10000\n"
      "Y = outlierByIQR(X, 1.5)\n"
      "mx = max(Y)\n",
      {"mx"});
  EXPECT_LT(*r.GetDouble("mx"), 10000.0);
}

TEST(BuiltinsTest, GridSearchFindsBestLambda) {
  ScriptResult r = RunScript(
      "X = rand(rows=200, cols=5, seed=4)\n"
      "w = rand(rows=5, cols=1, seed=5)\n"
      "y = X %*% w\n"
      "params = matrix(\"0.000000001 0.1 10\", 3, 1)\n"
      "[B, opt] = gridSearch(X, y, params)\n",
      {"opt"});
  // Exact linear data: the smallest regularizer wins.
  EXPECT_NEAR(*r.GetDouble("opt"), 1e-9, 1e-10);
}

TEST(BuiltinsTest, CrossValidationLowLossOnLinearData) {
  ScriptResult r = RunScript(
      "X = rand(rows=240, cols=4, seed=6)\n"
      "w = rand(rows=4, cols=1, seed=7)\n"
      "y = X %*% w\n"
      "[loss, losses] = crossV(X, y, 4, 0.0000001)\n",
      {"loss", "losses"});
  EXPECT_LT(*r.GetDouble("loss"), 1e-8);
  EXPECT_EQ(r.GetMatrix("losses")->Rows(), 4);
}

TEST(BuiltinsTest, KmeansRecoversWellSeparatedClusters) {
  ScriptResult r = RunScript(
      "A = rand(rows=40, cols=2, min=0, max=1, seed=8)\n"
      "B = rand(rows=40, cols=2, min=10, max=11, seed=9)\n"
      "C = rand(rows=40, cols=2, min=20, max=21, seed=10)\n"
      "X = rbind(A, B, C)\n"
      "[C1, labels] = kmeans(X, 3, 20, 13)\n"
      "n = nrow(C1)\n"
      "spread = max(C1) - min(C1)\n",
      {"n", "spread", "labels"});
  EXPECT_DOUBLE_EQ(*r.GetDouble("n"), 3.0);
  // Centroids must span the three clusters (values near 0.5, 10.5, 20.5).
  EXPECT_GT(*r.GetDouble("spread"), 15.0);
  // All points of one generated cluster share a label.
  MatrixBlock labels = *r.GetMatrix("labels");
  for (int64_t i = 1; i < 40; ++i) {
    EXPECT_DOUBLE_EQ(labels.Get(i, 0), labels.Get(0, 0));
  }
}

TEST(BuiltinsTest, PcaTopComponentCapturesVariance) {
  // Strongly anisotropic data: first PC must capture most variance.
  ScriptResult r = RunScript(
      "Z = rand(rows=300, cols=2, seed=11, pdf=\"normal\")\n"
      "S = matrix(\"10 0 0 0.1\", 2, 2)\n"
      "X = Z %*% S\n"
      "[Xr, V, evals] = pca(X, 2, 100)\n"
      "e1 = as.scalar(evals[1, 1])\n"
      "e2 = as.scalar(evals[2, 1])\n"
      "ratio = e1 / (e1 + e2)\n"
      "vnorm = sum(V[, 1]^2)\n",
      {"ratio", "vnorm"});
  EXPECT_GT(*r.GetDouble("ratio"), 0.99);
  EXPECT_NEAR(*r.GetDouble("vnorm"), 1.0, 1e-9);
}

TEST(BuiltinsTest, L2svmSeparatesLinearlySeparableData) {
  ScriptResult r = RunScript(
      "Xp = rand(rows=50, cols=3, min=0.5, max=1.5, seed=12)\n"
      "Xn = rand(rows=50, cols=3, min=-1.5, max=-0.5, seed=13)\n"
      "X = rbind(Xp, Xn)\n"
      "Y = rbind(matrix(1, 50, 1), matrix(-1, 50, 1))\n"
      "w = l2svm(X, Y, 0.01, 1.0, 60)\n"
      "pred = sign(X %*% w)\n"
      "acc = sum(pred == Y) / 100\n",
      {"acc"});
  EXPECT_GT(*r.GetDouble("acc"), 0.95);
}

TEST(BuiltinsTest, LogisticRegressionIrls) {
  ScriptResult r = RunScript(
      "X = rand(rows=300, cols=3, min=-1, max=1, seed=14)\n"
      "wtrue = matrix(\"3 -2 1\", 3, 1)\n"
      "p = 1 / (1 + exp(-(X %*% wtrue)))\n"
      "y = p > 0.5\n"
      "B = logisticRegression(X, y, 0.000001, 15)\n"
      "pred = (1 / (1 + exp(-(X %*% B)))) > 0.5\n"
      "acc = sum(pred == y) / 300\n",
      {"acc"});
  EXPECT_GT(*r.GetDouble("acc"), 0.97);
}

TEST(BuiltinsTest, LmDispatchesOnWidth) {
  // Example 1 / Figure 2: lm picks lmDS for <=1024 columns; both paths
  // produce the same answer on the same inputs.
  ScriptResult r = RunScript(
      "X = rand(rows=120, cols=6, seed=15)\n"
      "y = rand(rows=120, cols=1, seed=16)\n"
      "B1 = lm(X, y, 0, 0.001)\n"
      "B2 = lmDS(X, y, 0, 0.001)\n"
      "d = sum((B1 - B2)^2)\n",
      {"d"});
  EXPECT_LT(*r.GetDouble("d"), 1e-20);
}

TEST(BuiltinsTest, SteplmStopsWhenNoImprovement) {
  // Pure-noise target: steplm should select (almost) nothing.
  ScriptResult r = RunScript(
      "X = rand(rows=100, cols=6, seed=17)\n"
      "y = rand(rows=100, cols=1, seed=18)\n"
      "[B, S] = steplm(X, y, 0, 0.001, 5.0)\n"
      "nsel = sum(S > 0)\n",
      {"nsel"});
  EXPECT_LE(*r.GetDouble("nsel"), 2.0);
}

}  // namespace
}  // namespace sysds
