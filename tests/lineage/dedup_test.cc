#include <gtest/gtest.h>

#include "api/systemds_context.h"
#include "compiler/compiler.h"
#include "lineage/lineage.h"
#include "obs/metrics.h"
#include "runtime/controlprog/program.h"

namespace sysds {
namespace {

// Runs a script and returns the lineage node count of `var` at the end.
int64_t TraceSize(const std::string& script, const std::string& var,
                  bool dedup) {
  DMLConfig config;
  config.lineage_tracing = true;
  config.lineage_dedup = dedup;
  auto prog = CompileDML(script, config, {});
  EXPECT_TRUE(prog.ok()) << prog.status();
  ExecutionContext ec(prog->get(), &config);
  std::ostringstream out;
  ec.SetOut(&out);
  Status s = (*prog)->Execute(&ec);
  EXPECT_TRUE(s.ok()) << s;
  LineageItemPtr item = ec.Lineage()->GetOrNull(var);
  EXPECT_NE(item, nullptr);
  return item == nullptr ? -1 : item->NodeCount();
}

TEST(LineageDedupTest, BoundsTraceGrowthInLoops) {
  // 60 iterations, each with several instructions: the full trace grows
  // with iterations * instructions, the deduplicated trace only with
  // iterations * loop-carried variables.
  const char* script =
      "X = rand(rows=20, cols=4, seed=1)\n"
      "acc = matrix(0, 4, 4)\n"
      "for (i in 1:60) {\n"
      "  Y = t(X) %*% X\n"
      "  Z = Y * i + 1\n"
      "  acc = acc + Z\n"
      "}\n";
  int64_t full = TraceSize(script, "acc", /*dedup=*/false);
  int64_t deduped = TraceSize(script, "acc", /*dedup=*/true);
  EXPECT_GT(full, deduped * 2);  // substantial reduction
  EXPECT_GT(deduped, 0);
}

TEST(LineageDedupTest, DistinctControlFlowPathsGetDistinctIds) {
  obs::MetricsDiff diff;
  DMLConfig config;
  config.lineage_tracing = true;
  config.lineage_dedup = true;
  SystemDSContext ctx(config);
  // Two distinct paths through the loop body (even/odd), taken repeatedly.
  auto r = ctx.Execute(
      "acc = 0\n"
      "for (i in 1:20) {\n"
      "  if (i %% 2 == 0) {\n"
      "    acc = acc + i\n"
      "  } else {\n"
      "    acc = acc - i\n"
      "  }\n"
      "}\n",
      Inputs(), Outputs("acc"));
  ASSERT_TRUE(r.ok()) << r.status();
  // acc is a scalar: control-flow over scalars does not even need dedup
  // nodes (scalars are traced by value); the path registry stays small.
  EXPECT_LE(diff.Counter("lineage.dedup_paths"), 4);
}

TEST(LineageDedupTest, MatrixLoopPathsRegistered) {
  obs::MetricsDiff diff;
  DMLConfig config;
  config.lineage_tracing = true;
  config.lineage_dedup = true;
  SystemDSContext ctx(config);
  auto r = ctx.Execute(
      "A = matrix(1, 3, 3)\n"
      "for (i in 1:30) {\n"
      "  if (i %% 2 == 0) {\n"
      "    A = A * 2\n"
      "  } else {\n"
      "    A = A + 1\n"
      "  }\n"
      "}\n"
      "s = sum(A)\n",
      Inputs(), Outputs("s"));
  ASSERT_TRUE(r.ok()) << r.status();
  // Exactly two distinct paths despite 30 iterations.
  EXPECT_EQ(diff.Counter("lineage.dedup_paths"), 2);
}

TEST(LineageDedupTest, ResultsUnchangedByDedup) {
  const char* script =
      "X = rand(rows=50, cols=6, seed=3)\n"
      "w = matrix(0, 6, 1)\n"
      "for (i in 1:10) {\n"
      "  g = t(X) %*% (X %*% w) - t(X) %*% matrix(1, 50, 1)\n"
      "  w = w - 0.001 * g\n"
      "}\n"
      "s = sum(w)\n";
  DMLConfig plain;
  SystemDSContext c1(plain);
  auto r1 = c1.Execute(script, Inputs(), Outputs("s"));
  DMLConfig dedup;
  dedup.lineage_tracing = true;
  dedup.lineage_dedup = true;
  SystemDSContext c2(dedup);
  auto r2 = c2.Execute(script, Inputs(), Outputs("s"));
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_DOUBLE_EQ(*r1->GetDouble("s"), *r2->GetDouble("s"));
}

}  // namespace
}  // namespace sysds
