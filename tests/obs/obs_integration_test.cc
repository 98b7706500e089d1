// End-to-end observability: run a DML script with tracing enabled and
// assert the exported Chrome trace contains nested spans from at least four
// distinct subsystems (compiler, CP interpreter, buffer pool, lineage).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

#include "api/systemds_context.h"
#include "common/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sysds {
namespace {

TEST(ObsIntegrationTest, TraceCoversCompileCpBufferPoolAndLineage) {
  obs::Tracer::Get().Clear();

  DMLConfig config;
  config.lineage_tracing = true;
  config.reuse_policy = ReusePolicy::kFull;
  // Tiny pool limit: registering the second matrix must evict the first,
  // and using it again must restore it (bufferpool spill + restore spans).
  config.buffer_pool_limit = 4 * 1024;

  std::string trace_path =
      std::string(::testing::TempDir()) + "obs_integration_trace.json";
  {
    auto ctx = SystemDSContext::Builder()
                   .WithConfig(config)
                   .EnableTracing(trace_path)
                   .Build();
    auto r = ctx->Execute(
        "A = rand(rows=100, cols=100, seed=1)\n"
        "B = rand(rows=100, cols=100, seed=2)\n"
        "C = A %*% B\n"
        "s = sum(C)\n"
        "t = sum(C)\n",  // recomputation: lineage cache probe + reuse
        Inputs(), Outputs("s"));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_TRUE(ctx->FlushObservability().ok());
  }

  std::ifstream in(trace_path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  auto doc = ParseJson(buf.str());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const JsonValue* events = doc->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_GT(events->AsArray().size(), 0u);

  std::set<std::string> categories;
  double compile_ts = -1, compile_end = -1, parse_ts = -1, parse_end = -1;
  for (const JsonValue& ev : events->AsArray()) {
    const JsonValue* cat = ev.Find("cat");
    if (cat != nullptr) categories.insert(cat->AsString());
    const JsonValue* name = ev.Find("name");
    if (name == nullptr) continue;
    if (name->AsString() == "compile_dml") {
      compile_ts = ev.Find("ts")->AsNumber();
      compile_end = compile_ts + ev.Find("dur")->AsNumber();
    }
    if (name->AsString() == "parse") {
      parse_ts = ev.Find("ts")->AsNumber();
      parse_end = parse_ts + ev.Find("dur")->AsNumber();
    }
  }

  // ≥ 4 distinct subsystems traced.
  EXPECT_TRUE(categories.count("compiler")) << buf.str().substr(0, 2000);
  EXPECT_TRUE(categories.count("cp"));
  EXPECT_TRUE(categories.count("bufferpool"));
  EXPECT_TRUE(categories.count("lineage"));

  // Nesting: the parse phase lies inside the compile_dml span.
  ASSERT_GE(compile_ts, 0.0);
  ASSERT_GE(parse_ts, 0.0);
  EXPECT_GE(parse_ts, compile_ts);
  // 0.5us slack: exported timestamps are truncated to 0.1us resolution.
  EXPECT_LE(parse_end, compile_end + 0.5);

  std::remove(trace_path.c_str());
}

TEST(ObsIntegrationTest, MetricsExportWritesRegistryJson) {
  std::string metrics_path =
      std::string(::testing::TempDir()) + "obs_integration_metrics.json";
  {
    auto ctx =
        SystemDSContext::Builder().EnableMetricsExport(metrics_path).Build();
    auto r = ctx->Execute("X = rand(rows=20, cols=20, seed=3)\ns = sum(X)\n",
                          Inputs(), Outputs("s"));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }  // destructor flushes

  std::ifstream in(metrics_path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  auto doc = ParseJson(buf.str());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_NE(doc->Find("counters"), nullptr);
  EXPECT_NE(doc->Find("gauges"), nullptr);
  EXPECT_NE(doc->Find("instructions"), nullptr);
  std::remove(metrics_path.c_str());
}

// The registry is monotonic, so a diff taken around one context's runs
// counts exactly those runs while a second context runs, and diffs, at the
// same time.
TEST(ObsIntegrationTest, DiffIsUnaffectedByAConcurrentContext) {
  auto a = SystemDSContext::Builder().Statistics().Build();
  auto b = SystemDSContext::Builder().Statistics().Build();
  std::atomic<bool> done{false};
  std::atomic<int64_t> b_runs{0};
  std::atomic<bool> b_ok{true};
  int64_t b_solves = -1;
  std::thread other([&] {
    obs::MetricsDiff diff;
    while (!done.load()) {
      auto r = b->Execute(
          "A = matrix(\"4 1 1 3\", 2, 2)\n"
          "y = matrix(\"1 2\", 2, 1)\n"
          "s = sum(solve(A, y))\n",
          Inputs(), Outputs("s"));
      if (!r.ok()) {
        b_ok.store(false);
        break;
      }
      b_runs.fetch_add(1);
    }
    b_solves = diff.Delta().Instruction("solve").count;
  });
  while (b_ok.load() && b_runs.load() == 0) std::this_thread::yield();

  constexpr int kRuns = 3;
  obs::MetricsDiff diff;
  bool a_ok = true;
  for (int i = 0; i < kRuns; ++i) {
    auto r = a->Execute(
        "X = rand(rows=40, cols=5, seed=1)\n"
        "R = matrix(0, 4, 1)\n"
        "parfor (i in 1:4) {\n"
        "  G = t(X) %*% X\n"
        "  R[i, 1] = sum(G)\n"
        "}\n"
        "s = sum(R)\n",
        Inputs(), Outputs("s"));
    a_ok = a_ok && r.ok();
  }
  obs::MetricsSnapshot d = diff.Delta();
  done.store(true);
  other.join();

  ASSERT_TRUE(a_ok);
  ASSERT_TRUE(b_ok.load());
  EXPECT_EQ(d.Counter("parfor.executions"), kRuns);
  EXPECT_EQ(d.Instruction("tsmm").count, 4 * kRuns);
  EXPECT_EQ(b_solves, b_runs.load());
}

}  // namespace
}  // namespace sysds
