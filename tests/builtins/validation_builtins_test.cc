#include <gtest/gtest.h>

#include "api/systemds_context.h"

namespace sysds {
namespace {

ScriptResult RunScript(const std::string& script,
                       const std::vector<std::string>& outputs) {
  SystemDSContext ctx;
  auto r = ctx.Execute(script, Inputs(), Outputs::FromVector(outputs));
  EXPECT_TRUE(r.ok()) << r.status() << "\nscript:\n" << script;
  return r.ok() ? *r : ScriptResult();
}

TEST(ValidationBuiltinsTest, CovAndCor) {
  ScriptResult r = RunScript(
      "x = matrix(\"1 2 3 4 5\", 5, 1)\n"
      "y = 2 * x + 1\n"
      "c = cov(x, y)\n"
      "rho = cor(x, y)\n"
      "z = matrix(\"5 4 3 2 1\", 5, 1)\n"
      "rneg = cor(x, z)\n",
      {"c", "rho", "rneg"});
  // var(x) = 2.5, cov(x, 2x+1) = 2 var(x) = 5.
  EXPECT_NEAR(*r.GetDouble("c"), 5.0, 1e-12);
  EXPECT_NEAR(*r.GetDouble("rho"), 1.0, 1e-12);
  EXPECT_NEAR(*r.GetDouble("rneg"), -1.0, 1e-12);
}

TEST(ValidationBuiltinsTest, RegressionMetrics) {
  ScriptResult r = RunScript(
      "y = matrix(\"1 2 3 4\", 4, 1)\n"
      "yhat = matrix(\"1 2 3 6\", 4, 1)\n"
      "m = mse(yhat, y)\n"
      "rm = rmse(yhat, y)\n"
      "rr = r2(yhat, y)\n"
      "perfect = r2(y, y)\n",
      {"m", "rm", "rr", "perfect"});
  EXPECT_NEAR(*r.GetDouble("m"), 1.0, 1e-12);  // (0+0+0+4)/4
  EXPECT_NEAR(*r.GetDouble("rm"), 1.0, 1e-12);
  EXPECT_NEAR(*r.GetDouble("rr"), 1.0 - 4.0 / 5.0, 1e-12);
  EXPECT_NEAR(*r.GetDouble("perfect"), 1.0, 1e-12);
}

TEST(ValidationBuiltinsTest, ConfusionMatrixAndAccuracy) {
  ScriptResult r = RunScript(
      "y    = matrix(\"1 1 2 2 3 3\", 6, 1)\n"
      "pred = matrix(\"1 2 2 2 3 1\", 6, 1)\n"
      "[cm, acc] = confusionMatrix(pred, y)\n",
      {"cm", "acc"});
  MatrixBlock cm = *r.GetMatrix("cm");
  EXPECT_EQ(cm.Rows(), 3);
  EXPECT_EQ(cm.Cols(), 3);
  EXPECT_DOUBLE_EQ(cm.Get(0, 0), 1.0);  // actual 1 pred 1
  EXPECT_DOUBLE_EQ(cm.Get(0, 1), 1.0);  // actual 1 pred 2
  EXPECT_DOUBLE_EQ(cm.Get(1, 1), 2.0);  // actual 2 pred 2
  EXPECT_DOUBLE_EQ(cm.Get(2, 0), 1.0);  // actual 3 pred 1
  EXPECT_NEAR(*r.GetDouble("acc"), 4.0 / 6.0, 1e-12);
}

TEST(ValidationBuiltinsTest, ConfusionMatrixPadsMissingClasses) {
  ScriptResult r = RunScript(
      "y    = matrix(\"1 1 1 3\", 4, 1)\n"
      "pred = matrix(\"1 1 1 1\", 4, 1)\n"
      "[cm, acc] = confusionMatrix(pred, y)\n",
      {"cm", "acc"});
  MatrixBlock cm = *r.GetMatrix("cm");
  EXPECT_EQ(cm.Rows(), 3);
  EXPECT_EQ(cm.Cols(), 3);
  EXPECT_DOUBLE_EQ(cm.Get(2, 0), 1.0);
  EXPECT_NEAR(*r.GetDouble("acc"), 0.75, 1e-12);
}

TEST(ValidationBuiltinsTest, TrainTestSplitShapes) {
  ScriptResult r = RunScript(
      "X = rand(rows=100, cols=3, seed=1)\n"
      "y = rand(rows=100, cols=1, seed=2)\n"
      "[Xtr, ytr, Xte, yte] = trainTestSplit(X, y, 0.7)\n"
      "a = nrow(Xtr)\nb = nrow(Xte)\nc = nrow(ytr)\n",
      {"a", "b", "c"});
  EXPECT_DOUBLE_EQ(*r.GetDouble("a"), 70.0);
  EXPECT_DOUBLE_EQ(*r.GetDouble("b"), 30.0);
  EXPECT_DOUBLE_EQ(*r.GetDouble("c"), 70.0);
}

TEST(FrameIndexingTest, RowAndColumnSlicing) {
  SystemDSContext ctx;
  FrameBlock f(4, {ValueType::kString, ValueType::kFP64, ValueType::kFP64},
               {"name", "a", "b"});
  for (int i = 0; i < 4; ++i) {
    f.SetString(i, 0, "row" + std::to_string(i));
    f.SetDouble(i, 1, i * 10.0);
    f.SetDouble(i, 2, i * 100.0);
  }
  auto r = ctx.Execute(
      "G = F[2:3, ]\n"
      "H = F[, 2:3]\n"
      "n = nrow(G)\n"
      "c = ncol(H)\n",
      Inputs().Frame("F", f), Outputs("G", "H", "n", "c"));
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_DOUBLE_EQ(*r->GetDouble("n"), 2.0);
  EXPECT_DOUBLE_EQ(*r->GetDouble("c"), 2.0);
  FrameBlock g = *r->GetFrame("G");
  EXPECT_EQ(g.GetString(0, 0), "row1");
  FrameBlock h = *r->GetFrame("H");
  EXPECT_EQ(h.ColumnNames()[0], "a");
  EXPECT_DOUBLE_EQ(h.GetDouble(3, 1), 300.0);
}

}  // namespace
}  // namespace sysds
