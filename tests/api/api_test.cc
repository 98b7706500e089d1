#include "api/systemds_context.h"

#include <gtest/gtest.h>

#include "obs/metrics.h"

namespace sysds {
namespace {

TEST(ApiTest, PreparedScriptRepeatedExecution) {
  SystemDSContext ctx;
  SymbolInfo mat;
  mat.dt = DataType::kMatrix;
  SymbolInfo sc;
  sc.dt = DataType::kScalar;
  auto prepared =
      ctx.Prepare("y = sum(X) * f\n", {{"X", mat}, {"f", sc}});
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  for (int i = 1; i <= 3; ++i) {
    auto r = (*prepared)->Execute(
        Inputs()
            .Matrix("X", MatrixBlock::Dense(4, 4, static_cast<double>(i)))
            .Scalar("f", 10.0),
        Outputs("y"));
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_DOUBLE_EQ(*r->GetDouble("y"), 16.0 * i * 10.0);
  }
}

TEST(ApiTest, PreparedScriptBindsAllScalarTypes) {
  SystemDSContext ctx;
  SymbolInfo sc;
  sc.dt = DataType::kScalar;
  SymbolInfo si = sc;
  si.vt = ValueType::kInt64;
  SymbolInfo sb = sc;
  sb.vt = ValueType::kBoolean;
  SymbolInfo ss = sc;
  ss.vt = ValueType::kString;
  auto prepared = ctx.Prepare(
      "r = d + i\n"
      "msg = s + \"!\"\n"
      "flag = !b\n",
      {{"d", sc}, {"i", si}, {"b", sb}, {"s", ss}});
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  auto r = (*prepared)->Execute(Inputs()
                                    .Scalar("d", 1.5)
                                    .Integer("i", 2)
                                    .Boolean("b", false)
                                    .String("s", "hi"),
                                Outputs("r", "msg", "flag"));
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_DOUBLE_EQ(*r->GetDouble("r"), 3.5);
  EXPECT_EQ(*r->GetString("msg"), "hi!");
  EXPECT_EQ(*r->GetString("flag"), "TRUE");
}

TEST(ApiTest, FrameInputOutput) {
  SystemDSContext ctx;
  FrameBlock f(2, {ValueType::kString, ValueType::kFP64}, {"k", "v"});
  f.SetString(0, 0, "a");
  f.SetString(1, 0, "b");
  f.SetDouble(0, 1, 1);
  f.SetDouble(1, 1, 2);
  auto r = ctx.Execute("n = nrow(F)\nG = F\n", Inputs().Frame("F", f),
                       Outputs("n", "G"));
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_DOUBLE_EQ(*r->GetDouble("n"), 2.0);
  EXPECT_EQ(r->GetFrame("G")->GetString(1, 0), "b");
}

TEST(ApiTest, MissingOutputReported) {
  SystemDSContext ctx;
  auto r = ctx.Execute("x = 1\n", Inputs(), Outputs("x"));
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->GetMatrix("x").ok());   // x is scalar, not matrix
  EXPECT_FALSE(r->GetDouble("nope").ok());
}

TEST(ApiTest, StatisticsCollection) {
  DMLConfig config;
  config.statistics = true;
  SystemDSContext ctx(config);
  auto r = ctx.Execute(
      "X = rand(rows=50, cols=10, seed=1)\nY = t(X) %*% X\ns = sum(Y)\n",
      Inputs(), Outputs("s"));
  ASSERT_TRUE(r.ok());
  std::string report = obs::MetricsRegistry::Get().Report();
  EXPECT_NE(report.find("tsmm"), std::string::npos);
  EXPECT_NE(report.find("rand"), std::string::npos);
}

TEST(ApiTest, FullReuseAcrossExecutions) {
  auto ctx = SystemDSContext::Builder().Reuse(ReusePolicy::kFull).Build();
  const char* script =
      "X = rand(rows=100, cols=10, seed=1)\n"
      "s = sum(t(X) %*% X)\n";
  auto r1 = ctx->Execute(script, Inputs(), Outputs("s"));
  auto r2 = ctx->Execute(script, Inputs(), Outputs("s"));
  auto r3 = ctx->Execute(script, Inputs(), Outputs("s"));
  ASSERT_TRUE(r1.ok() && r2.ok() && r3.ok());
  EXPECT_DOUBLE_EQ(*r1->GetDouble("s"), *r3->GetDouble("s"));
  // Later runs reuse across executions (shared cache).
  EXPECT_GT(ctx->Cache()->Stats().full_hits, 0);
}

TEST(ApiTest, CompileErrorsSurfaceBeforeExecution) {
  SystemDSContext ctx;
  auto r = ctx.Execute("x = unknownFn(1)\n", Inputs(), Outputs::None());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kValidateError);
}

TEST(ApiTest, BuilderFixesConfigAtConstruction) {
  auto ctx = SystemDSContext::Builder()
                 .NumThreads(2)
                 .Reuse(ReusePolicy::kFull)
                 .LineageCacheLimit(1 << 20)
                 .Statistics(false)
                 .Build();
  EXPECT_EQ(ctx->config().num_threads, 2);
  EXPECT_EQ(ctx->config().reuse_policy, ReusePolicy::kFull);
  EXPECT_EQ(ctx->config().lineage_cache_limit, 1 << 20);
  EXPECT_EQ(ctx->Cache()->policy(), ReusePolicy::kFull);
}

TEST(ApiTest, TypedInputsOutputsExecute) {
  auto ctx = SystemDSContext::Builder().Build();
  MatrixBlock x = MatrixBlock::Dense(3, 2, 2.0);
  auto r = ctx->Execute("s = sum(X) * eps\nmsg = tag + \"!\"\n",
                        Inputs()
                            .Matrix("X", x)
                            .Scalar("eps", 0.5)
                            .String("tag", "done"),
                        Outputs("s", "msg"));
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_DOUBLE_EQ(*r->GetDouble("s"), 6.0);
  EXPECT_EQ(*r->GetString("msg"), "done!");
}

TEST(ApiTest, OutputsNoneForSideEffectScripts) {
  auto ctx = SystemDSContext::Builder().Build();
  auto r = ctx->Execute("print(\"hello\")\n", Inputs(), Outputs::None());
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_NE(r->Output().find("hello"), std::string::npos);
}

TEST(ApiTest, PreparedScriptStatelessExecute) {
  auto ctx = SystemDSContext::Builder().Build();
  SymbolInfo mat;
  mat.dt = DataType::kMatrix;
  mat.dim1 = 4;
  mat.dim2 = 4;
  auto prepared = ctx->Prepare("y = sum(X)\n", {{"X", mat}});
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  // Per-call bindings: no state on the PreparedScript, calls do not
  // interfere.
  for (int i = 1; i <= 3; ++i) {
    auto r = (*prepared)->Execute(
        Inputs().Matrix("X",
                        MatrixBlock::Dense(4, 4, static_cast<double>(i))),
        Outputs("y"));
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_DOUBLE_EQ(*r->GetDouble("y"), 16.0 * i);
  }
}

// Regression test: PreparedScript used to hold raw pointers into its
// SystemDSContext (config, lineage cache, buffer pool) that dangled once
// the context was destroyed. It now co-owns them.
TEST(ApiTest, PreparedScriptOutlivesContext) {
  std::unique_ptr<PreparedScript> prepared;
  {
    auto ctx = SystemDSContext::Builder().Reuse(ReusePolicy::kFull).Build();
    SymbolInfo mat;
    mat.dt = DataType::kMatrix;
    mat.dim1 = 8;
    mat.dim2 = 8;
    auto p = ctx->Prepare("y = sum(t(X) %*% X)\n", {{"X", mat}});
    ASSERT_TRUE(p.ok()) << p.status();
    prepared = std::move(*p);
  }  // context destroyed here
  auto r = prepared->Execute(
      Inputs().Matrix("X", MatrixBlock::Dense(8, 8, 1.0)), Outputs("y"));
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_DOUBLE_EQ(*r->GetDouble("y"), 8.0 * 8.0 * 8.0);
}

// Regression test: lineage used to trace bound inputs by variable name
// only, so with a reuse cache shared across executions, a second request
// binding a *different* matrix to "X" would be served the first request's
// cached intermediates. Inputs are now traced by object identity.
TEST(ApiTest, ReuseDoesNotAliasDistinctBoundInputs) {
  auto ctx = SystemDSContext::Builder().Reuse(ReusePolicy::kFull).Build();
  SymbolInfo mat;
  mat.dt = DataType::kMatrix;
  mat.dim1 = 4;
  mat.dim2 = 4;
  auto prepared = ctx->Prepare("y = sum(t(X) %*% X)\n", {{"X", mat}});
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  auto r1 = (*prepared)->Execute(
      Inputs().Matrix("X", MatrixBlock::Dense(4, 4, 1.0)), Outputs("y"));
  auto r2 = (*prepared)->Execute(
      Inputs().Matrix("X", MatrixBlock::Dense(4, 4, 2.0)), Outputs("y"));
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_DOUBLE_EQ(*r1->GetDouble("y"), 64.0);    // 4x4 entries of 4
  EXPECT_DOUBLE_EQ(*r2->GetDouble("y"), 256.0);   // 4x4 entries of 16

  // Re-binding the same object does reuse cached intermediates.
  DataPtr shared =
      std::make_shared<MatrixObject>(MatrixBlock::Dense(4, 4, 3.0));
  auto r3 = (*prepared)->Execute(Inputs().Bind("X", shared), Outputs("y"));
  int64_t hits_before = ctx->Cache()->Stats().full_hits;
  auto r4 = (*prepared)->Execute(Inputs().Bind("X", shared), Outputs("y"));
  ASSERT_TRUE(r3.ok() && r4.ok());
  EXPECT_DOUBLE_EQ(*r3->GetDouble("y"), *r4->GetDouble("y"));
  EXPECT_GT(ctx->Cache()->Stats().full_hits, hits_before);
}

TEST(ApiTest, ExpiredDeadlineFailsWithTimeout) {
  auto ctx = SystemDSContext::Builder().Build();
  SymbolInfo mat;
  mat.dt = DataType::kMatrix;
  auto prepared = ctx->Prepare("y = sum(X)\n", {{"X", mat}});
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  ExecuteOptions opts;
  opts.deadline = std::chrono::steady_clock::now() -
                  std::chrono::milliseconds(1);  // already in the past
  auto r = (*prepared)->Execute(
      Inputs().Matrix("X", MatrixBlock::Dense(2, 2, 1.0)), Outputs("y"),
      opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kTimeout);
  EXPECT_TRUE(IsRetryable(r.status()));
}

TEST(ApiTest, CancellationTokenStopsExecution) {
  auto ctx = SystemDSContext::Builder().Build();
  SymbolInfo mat;
  mat.dt = DataType::kMatrix;
  auto prepared = ctx->Prepare("y = sum(X)\n", {{"X", mat}});
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  ExecuteOptions opts;
  opts.cancel = std::make_shared<CancellationToken>();
  opts.cancel->Cancel();  // cancelled before submission
  auto r = (*prepared)->Execute(
      Inputs().Matrix("X", MatrixBlock::Dense(2, 2, 1.0)), Outputs("y"),
      opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
}

TEST(ApiTest, DeadlineInterruptsLongLoop) {
  auto ctx = SystemDSContext::Builder().Build();
  // An effectively unbounded loop; only the instruction-level deadline
  // poll can stop it.
  SymbolInfo sc;
  sc.dt = DataType::kScalar;
  sc.vt = ValueType::kInt64;
  auto prepared = ctx->Prepare(
      "acc = 0\ni = 0\nwhile (i < n) { acc = acc + i\ni = i + 1 }\n",
      {{"n", sc}});
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  ExecuteOptions opts;
  opts.deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(50);
  auto r = (*prepared)->Execute(Inputs().Integer("n", 2000000000),
                                Outputs("acc"), opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kTimeout);
}

}  // namespace
}  // namespace sysds
