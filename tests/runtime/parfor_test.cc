#include <gtest/gtest.h>

#include "api/systemds_context.h"

namespace sysds {
namespace {

ScriptResult RunScript(const std::string& script,
                       const std::vector<std::string>& outputs,
                       int num_threads = 4) {
  DMLConfig config;
  config.num_threads = num_threads;
  SystemDSContext ctx(config);
  auto r = ctx.Execute(script, Inputs(), Outputs::FromVector(outputs));
  EXPECT_TRUE(r.ok()) << r.status();
  return r.ok() ? *r : ScriptResult();
}

TEST(ParForTest, DisjointLeftIndexingMerges) {
  ScriptResult r = RunScript(
      "R = matrix(0, 16, 2)\n"
      "parfor (i in 1:16) {\n"
      "  R[i, 1] = i\n"
      "  R[i, 2] = i * i\n"
      "}\n",
      {"R"});
  MatrixBlock m = *r.GetMatrix("R");
  for (int64_t i = 0; i < 16; ++i) {
    EXPECT_DOUBLE_EQ(m.Get(i, 0), static_cast<double>(i + 1));
    EXPECT_DOUBLE_EQ(m.Get(i, 1), static_cast<double>((i + 1) * (i + 1)));
  }
}

TEST(ParForTest, MatchesSequentialFor) {
  const char* body =
      " (i in 1:10) {\n"
      "  X = rand(rows=20, cols=5, seed=i)\n"
      "  R[i, 1] = sum(t(X) %*% X)\n"
      "}\n";
  ScriptResult seq =
      RunScript(std::string("R = matrix(0, 10, 1)\nfor") + body, {"R"});
  ScriptResult par =
      RunScript(std::string("R = matrix(0, 10, 1)\nparfor") + body, {"R"});
  EXPECT_TRUE(seq.GetMatrix("R")->EqualsApprox(*par.GetMatrix("R"), 1e-9));
}

TEST(ParForTest, ColumnBlockUpdates) {
  ScriptResult r = RunScript(
      "X = rand(rows=30, cols=8, seed=1)\n"
      "Y = matrix(0, 30, 8)\n"
      "parfor (j in 1:8) {\n"
      "  c = X[, j]\n"
      "  Y[, j] = c / max(sum(c), 0.000001)\n"
      "}\n"
      "s = sum(colSums(Y))\n",
      {"s"});
  EXPECT_NEAR(*r.GetDouble("s"), 8.0, 1e-9);
}

TEST(ParForTest, ReadOnlySharedInputs) {
  ScriptResult r = RunScript(
      "X = matrix(3, 10, 10)\n"
      "R = matrix(0, 1, 4)\n"
      "parfor (i in 1:4) {\n"
      "  R[1, i] = sum(X) * i\n"
      "}\n",
      {"R"});
  MatrixBlock m = *r.GetMatrix("R");
  EXPECT_DOUBLE_EQ(m.Get(0, 0), 300.0);
  EXPECT_DOUBLE_EQ(m.Get(0, 3), 1200.0);
}

TEST(ParForTest, NestedControlFlowInBody) {
  ScriptResult r = RunScript(
      "R = matrix(0, 1, 12)\n"
      "parfor (i in 1:12) {\n"
      "  if (i %% 2 == 0) {\n"
      "    R[1, i] = i\n"
      "  } else {\n"
      "    acc = 0\n"
      "    for (j in 1:i) {\n"
      "      acc = acc + j\n"
      "    }\n"
      "    R[1, i] = acc\n"
      "  }\n"
      "}\n"
      "s = sum(R)\n",
      {"s"});
  // Even i: i; odd i: i*(i+1)/2.
  double expect = 0;
  for (int i = 1; i <= 12; ++i) {
    expect += (i % 2 == 0) ? i : i * (i + 1) / 2;
  }
  EXPECT_DOUBLE_EQ(*r.GetDouble("s"), expect);
}

TEST(ParForTest, FunctionCallsInBody) {
  ScriptResult r = RunScript(
      "sq = function(Double x) return (Double y) { y = x * x }\n"
      "R = matrix(0, 6, 1)\n"
      "parfor (i in 1:6) {\n"
      "  R[i, 1] = sq(i)\n"
      "}\n"
      "s = sum(R)\n",
      {"s"});
  EXPECT_DOUBLE_EQ(*r.GetDouble("s"), 1 + 4 + 9 + 16 + 25 + 36);
}

TEST(ParForTest, ScalarResultLastWriterWins) {
  // Scalars are merged last-writer-wins in worker order; with a single
  // worker the result is simply the last iteration.
  ScriptResult r = RunScript(
      "last = 0\n"
      "parfor (i in 1:5) {\n"
      "  last = i\n"
      "}\n",
      {"last"}, /*num_threads=*/1);
  EXPECT_DOUBLE_EQ(*r.GetDouble("last"), 5.0);
}

TEST(ParForTest, EmptyRange) {
  ScriptResult r = RunScript(
      "x = 1\n"
      "parfor (i in 2:1) {\n"
      "  x = 99\n"
      "}\n",
      {"x"});
  EXPECT_DOUBLE_EQ(*r.GetDouble("x"), 1.0);
}

TEST(ParForTest, ErrorInWorkerPropagates) {
  DMLConfig config;
  config.num_threads = 4;
  SystemDSContext ctx(config);
  auto r = ctx.Execute(
      "parfor (i in 1:4) {\n"
      "  if (i == 3) {\n"
      "    stop('worker failure')\n"
      "  }\n"
      "}\n",
      Inputs(), Outputs::None());
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("worker failure"), std::string::npos);
}

}  // namespace
}  // namespace sysds
