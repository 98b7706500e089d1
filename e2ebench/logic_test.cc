// Tests of the benchmark's own logic: order statistics, self time from
// span nesting, and the output checks.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "bench_util.h"
#include "checks.h"
#include "trace_breakdown.h"

namespace e2ebench {
namespace {

TEST(QuantileTest, InterpolatesLikeNumpyDefault) {
  std::vector<double> v = {4, 1, 3, 2};  // sorted: 1 2 3 4
  EXPECT_DOUBLE_EQ(Quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.9), 3.7);  // h = 2.7
  EXPECT_DOUBLE_EQ(Median({7}), 7.0);
  EXPECT_DOUBLE_EQ(Quantile({}, 0.5), 0.0);
}

TEST(QuantileTest, InfiniteLatenciesSortLast) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> v = {1, 2, inf, 3};
  EXPECT_DOUBLE_EQ(Quantile(v, 0.5), 2.5);
  EXPECT_TRUE(std::isinf(Quantile(v, 1.0)));
}

TEST(RngTest, SameSeedSameStream) {
  Rng a(StreamSeed(42, 7)), b(StreamSeed(42, 7)), c(StreamSeed(42, 8));
  for (int i = 0; i < 100; ++i) {
    uint64_t x = a.Next();
    EXPECT_EQ(x, b.Next());
    EXPECT_NE(x, c.Next());
  }
}

TEST(MedianPerKeyTest, MissingKeysCountAsZero) {
  auto m = MedianPerKey({{{"a", 1}, {"b", 5}}, {{"a", 3}}, {{"a", 2}}});
  EXPECT_DOUBLE_EQ(m["a"], 2.0);
  EXPECT_DOUBLE_EQ(m["b"], 0.0);
}

// One thread: execute [0, 100us) contains tsmm [10, 60) and rmvar [70, 75);
// tsmm contains a restore [20, 30). A second thread has a parfor worker
// [0, 50) with one instruction [5, 45).
const char* kTrace =
    "{\"traceEvents\":["
    "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
    "\"args\":{\"name\":\"main\"}},"
    "{\"name\":\"restore\",\"cat\":\"bufferpool\",\"pid\":1,\"tid\":0,"
    "\"ts\":20.0,\"ph\":\"X\",\"dur\":10.0},"
    "{\"name\":\"tsmm\",\"cat\":\"cp\",\"pid\":1,\"tid\":0,\"ts\":10.0,"
    "\"ph\":\"X\",\"dur\":50.0},"
    "{\"name\":\"rmvar\",\"cat\":\"cp\",\"pid\":1,\"tid\":0,\"ts\":70.0,"
    "\"ph\":\"X\",\"dur\":5.0},"
    "{\"name\":\"execute\",\"cat\":\"bench\",\"pid\":1,\"tid\":0,\"ts\":0.0,"
    "\"ph\":\"X\",\"dur\":100.0},"
    "{\"name\":\"cache_probe\",\"cat\":\"lineage\",\"pid\":1,\"tid\":0,"
    "\"ts\":12.0,\"ph\":\"i\",\"s\":\"t\"},"
    "{\"name\":\"worker#0\",\"cat\":\"parfor\",\"pid\":1,\"tid\":3,"
    "\"ts\":0.0,\"ph\":\"X\",\"dur\":50.0},"
    "{\"name\":\"sp_+\",\"cat\":\"cp\",\"pid\":1,\"tid\":3,\"ts\":5.0,"
    "\"ph\":\"X\",\"dur\":40.0}"
    "]}";

TEST(TraceBreakdownTest, ParsesTheTracerExport) {
  std::vector<SpanRecord> spans = ParseChromeTrace(kTrace);
  ASSERT_EQ(spans.size(), 6u);  // metadata and instant skipped
  EXPECT_EQ(spans[0].name, "restore");
  EXPECT_EQ(spans[0].category, "bufferpool");
  EXPECT_EQ(spans[0].ts_ns, 20000);
  EXPECT_EQ(spans[0].dur_ns, 10000);
  EXPECT_EQ(spans[4].name, "worker#0");
  EXPECT_EQ(spans[4].tid, 3);
}

TEST(TraceBreakdownTest, SelfTimeSubtractsDirectChildrenOnly) {
  Breakdown b = ComputeBreakdown(ParseChromeTrace(kTrace));
  // execute: 100 - (50 + 5) = 45; tsmm: 50 - 10 = 40; restore: 10.
  EXPECT_EQ(b.SelfNs("bench"), 45000);
  EXPECT_EQ((b.spans[{"cp", "tsmm"}].self_ns), 40000);
  EXPECT_EQ(b.SelfNs("bufferpool"), 10000);
  // cp = tsmm 40 + rmvar 5 + sp_+ 40; parfor worker: 50 - 40 = 10.
  EXPECT_EQ(b.SelfNs("cp"), 85000);
  EXPECT_EQ(b.SelfNs("parfor"), 10000);
  EXPECT_EQ(b.categories["cp"].count, 3);
  EXPECT_EQ(b.ByPrefix("cp", "sp_").count, 1);
  EXPECT_EQ(b.max_depth, 2);
  // Self times on a thread add up to its traced time.
  EXPECT_EQ(b.SelfNs("bench") + 40000 + 10000 + 5000, 100000);
}

TEST(TraceBreakdownTest, RoundingSlackKeepsChildrenNested) {
  // The child ends 0.1 us after its parent because of export rounding.
  std::vector<SpanRecord> spans = {
      {"cp", "parent", 0, 1000, 5000},
      {"cp", "child", 0, 2000, 4100},
  };
  Breakdown b = ComputeBreakdown(spans);
  EXPECT_EQ(b.max_depth, 1);
  EXPECT_EQ((b.spans[{"cp", "parent"}].self_ns), 5000 - 4100);
}

TEST(ChecksTest, ResidualOfExactRidgeSolutionIsTiny) {
  // X = [[1, 0], [0, 2], [1, 1]], y = [1, 2, 3].
  const double x[] = {1, 0, 0, 2, 1, 1};
  const double y[] = {1, 2, 3};
  NormalEquations ne = ComputeNormalEquations(x, y, 3, 2);
  // G = [[2, 1], [1, 5]], b = [4, 7].
  EXPECT_DOUBLE_EQ(ne.gram[0], 2);
  EXPECT_DOUBLE_EQ(ne.gram[1], 1);
  EXPECT_DOUBLE_EQ(ne.gram[2], 1);
  EXPECT_DOUBLE_EQ(ne.gram[3], 5);
  EXPECT_DOUBLE_EQ(ne.xty[0], 4);
  EXPECT_DOUBLE_EQ(ne.xty[1], 7);
  // (G + 1 I) beta = b  =>  [[3, 1], [1, 6]] beta = [4, 7]: beta = [1, 1].
  const double beta[] = {1, 1};
  EXPECT_LT(NormalEquationResidual(ne, beta, 1.0), 1e-15);
  const double wrong[] = {1, 1.01};
  EXPECT_GT(NormalEquationResidual(ne, wrong, 1.0), 1e-3);
}

TEST(ChecksTest, ArgMaxIsOneBasedAndToleratesNearTies) {
  const double s[] = {0.1, 0.7, 0.7 - 1e-13, 0.2};
  EXPECT_EQ(ArgMax1Based(s, 4), 2);
  EXPECT_TRUE(ArgMaxAgrees(s, 4, 2));
  EXPECT_TRUE(ArgMaxAgrees(s, 4, 3));  // within tolerance
  EXPECT_FALSE(ArgMaxAgrees(s, 4, 4));
  EXPECT_FALSE(ArgMaxAgrees(s, 4, 0));
  EXPECT_FALSE(ArgMaxAgrees(s, 4, 5));
}

}  // namespace
}  // namespace e2ebench
