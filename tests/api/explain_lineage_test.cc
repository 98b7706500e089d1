#include <gtest/gtest.h>

#include "api/systemds_context.h"

namespace sysds {
namespace {

TEST(ExplainTest, ShowsBlocksAndInstructions) {
  SystemDSContext ctx;
  auto plan = ctx.Explain(
      "X = rand(rows=100, cols=10, seed=1)\n"
      "A = t(X) %*% X\n"
      "if (sum(A) > 0) {\n"
      "  s = 1\n"
      "} else {\n"
      "  s = 2\n"
      "}\n"
      "for (i in 1:3) {\n"
      "  s = s + i\n"
      "}\n");
  ASSERT_TRUE(plan.ok()) << plan.status();
  // Fused operator visible in the plan (the Example 1 story).
  EXPECT_NE(plan->find("tsmm"), std::string::npos);
  EXPECT_NE(plan->find("GENERIC block"), std::string::npos);
  EXPECT_NE(plan->find("IF block"), std::string::npos);
  EXPECT_NE(plan->find("FOR block"), std::string::npos);
  EXPECT_NE(plan->find("rand"), std::string::npos);
}

TEST(ExplainTest, ShowsFunctionsAndParfor) {
  SystemDSContext ctx;
  auto plan = ctx.Explain(
      "f = function(Matrix[Double] X) return (Double s) { s = sum(X) }\n"
      "R = matrix(0, 4, 1)\n"
      "parfor (i in 1:4) {\n"
      "  R[i, 1] = f(rand(rows=5, cols=5, seed=i))\n"
      "}\n");
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_NE(plan->find("FUNCTION f"), std::string::npos);
  EXPECT_NE(plan->find("PARFOR block"), std::string::npos);
  EXPECT_NE(plan->find("fcall"), std::string::npos);
}

TEST(LineageApiTest, OutputsCarrySerializedTraces) {
  DMLConfig config;
  config.lineage_tracing = true;
  SystemDSContext ctx(config);
  auto r = ctx.Execute(
      "X = rand(rows=20, cols=5, seed=7)\n"
      "y = rand(rows=20, cols=1, seed=8)\n"
      "B = lmDS(X, y, 0, 0.001)\n",
      Inputs(), Outputs("B"));
  ASSERT_TRUE(r.ok()) << r.status();
  auto trace = r->GetLineage("B");
  ASSERT_TRUE(trace.ok()) << trace.status();
  // The trace is a queryable record of the logical operations including
  // datagen seeds (reproducibility).
  EXPECT_NE(trace->find("rand"), std::string::npos);
  EXPECT_NE(trace->find("tsmm"), std::string::npos);
  EXPECT_NE(trace->find("solve"), std::string::npos);
  EXPECT_NE(trace->find("7"), std::string::npos);  // the seed literal
}

TEST(LineageApiTest, NoTraceWithoutTracing) {
  SystemDSContext ctx;
  auto r = ctx.Execute("x = 1\n", Inputs(), Outputs("x"));
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->GetLineage("x").ok());
}

TEST(LineageApiTest, IdenticalScriptsYieldIdenticalTraces) {
  // Reproducibility: the serialized lineage of a deterministic script is
  // stable across executions (model versioning use case).
  DMLConfig config;
  config.lineage_tracing = true;
  const char* script =
      "X = rand(rows=10, cols=3, seed=1)\n"
      "B = t(X) %*% X + diag(matrix(0.1, 3, 1))\n";
  SystemDSContext c1(config);
  SystemDSContext c2(config);
  auto r1 = c1.Execute(script, Inputs(), Outputs("B"));
  auto r2 = c2.Execute(script, Inputs(), Outputs("B"));
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_EQ(*r1->GetLineage("B"), *r2->GetLineage("B"));
}

}  // namespace
}  // namespace sysds
