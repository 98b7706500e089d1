#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/json.h"

namespace sysds {
namespace obs {
namespace {

TEST(MetricsTest, CounterConcurrentIncrements) {
  MetricsDiff diff;
  Counter* c = MetricsRegistry::Get().GetCounter("test.metrics.concurrent");
  constexpr int kThreads = 8;
  constexpr int kIncrements = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([c] {
      for (int i = 0; i < kIncrements; ++i) c->Add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(diff.Counter("test.metrics.concurrent"), kThreads * kIncrements);
}

TEST(MetricsTest, RegistryReturnsStablePointers) {
  Counter* a = MetricsRegistry::Get().GetCounter("test.metrics.stable");
  Counter* b = MetricsRegistry::Get().GetCounter("test.metrics.stable");
  EXPECT_EQ(a, b);
  EXPECT_EQ(MetricsRegistry::Get().CounterValue("test.metrics.never_made"),
            0);
}

TEST(MetricsTest, GaugeSetAndAdd) {
  Gauge* g = MetricsRegistry::Get().GetGauge("test.metrics.gauge");
  g->Set(42);
  EXPECT_EQ(g->Value(), 42);
  g->Add(-2);
  EXPECT_EQ(g->Value(), 40);
}

TEST(MetricsTest, HistogramLogBucketsAndQuantiles) {
  Histogram* h = MetricsRegistry::Get().GetHistogram("test.metrics.hist");
  // 100 small values and 1 huge outlier: p50 stays small, p99 region large.
  for (int i = 0; i < 100; ++i) h->Observe(100);  // bucket bit_width(100)=7
  h->Observe(1 << 20);
  EXPECT_EQ(h->Count(), 101);
  EXPECT_EQ(h->Sum(), 100 * 100 + (1 << 20));
  EXPECT_LE(h->ApproxQuantile(0.5), 128);
  EXPECT_GE(h->ApproxQuantile(1.0), 1 << 20);
  EXPECT_EQ(h->BucketCount(7), 100);
}

TEST(MetricsTest, HistogramNonPositiveValuesLandInBucketZero) {
  Histogram* h = MetricsRegistry::Get().GetHistogram("test.metrics.hist0");
  h->Observe(0);
  h->Observe(-5);
  EXPECT_EQ(h->BucketCount(0), 2);
}

TEST(MetricsTest, ExportJsonIsWellFormed) {
  MetricsRegistry::Get().GetCounter("test.metrics.json\"quote")->Add(3);
  MetricsRegistry::Get().GetGauge("test.metrics.jsong")->Set(7);
  Histogram* h = MetricsRegistry::Get().GetHistogram("test.metrics.jsonh");
  h->Observe(1000);
  auto doc = ParseJson(MetricsRegistry::Get().ExportJson());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const JsonValue* counters = doc->Find("counters");
  ASSERT_NE(counters, nullptr);
  const JsonValue* quoted = counters->Find("test.metrics.json\"quote");
  ASSERT_NE(quoted, nullptr);
  EXPECT_EQ(quoted->AsNumber(), 3);
  const JsonValue* hist = doc->Find("histograms")->Find("test.metrics.jsonh");
  ASSERT_NE(hist, nullptr);
  EXPECT_GE(hist->Find("count")->AsNumber(), 1);
}

// A diff sums every Add since it was taken, through any pointer to the
// counter, and covers histogram count/sum and instruction stats too.
TEST(MetricsTest, DiffSumsCounterAdds) {
  MetricsRegistry& reg = MetricsRegistry::Get();
  reg.GetCounter("test.diff.counter")->Add(100);  // before the diff
  MetricsDiff diff;
  reg.GetCounter("test.diff.counter")->Add(9);
  reg.GetCounter("test.diff.counter")->Add(1);
  reg.GetHistogram("test.diff.hist")->Observe(40);
  reg.GetInstrStat("test.diff.op")->count.Add(2);
  MetricsSnapshot d = diff.Delta();
  EXPECT_EQ(d.Counter("test.diff.counter"), 10);
  EXPECT_EQ(d.Counter("test.diff.never_made"), 0);
  EXPECT_EQ(d.Histogram("test.diff.hist").count, 1);
  EXPECT_EQ(d.Histogram("test.diff.hist").sum, 40);
  EXPECT_EQ(d.Instruction("test.diff.op").count, 2);
  EXPECT_EQ(reg.CounterValue("test.diff.counter"), 110);
}

// `-stats` times instructions on whatever thread runs them; the report
// shows one line per opcode with the sum over threads.
TEST(MetricsTest, StatisticsInstructionTimesAggregate) {
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      InstrStat* s = MetricsRegistry::Get().GetInstrStat("test.op");
      for (int i = 0; i < 1000; ++i) {
        s->count.Add(1);
        s->nanos.Add(1000000);
      }
    });
  }
  for (auto& t : threads) t.join();
  std::string report = MetricsRegistry::Get().Report();
  EXPECT_NE(report.find("test.op\t4000\t4\n"), std::string::npos) << report;
}

TEST(StatisticsTest, CountersAndReport) {
  MetricsRegistry& reg = MetricsRegistry::Get();
  reg.GetCounter("test.counter")->Add(5);
  reg.GetCounter("test.counter")->Add(1);
  reg.GetCounter("test.zero");  // created, never counted
  EXPECT_EQ(reg.CounterValue("test.counter"), 6);
  EXPECT_EQ(reg.CounterValue("missing"), 0);
  auto time = [&](const std::string& opcode, int64_t nanos) {
    InstrStat* s = reg.GetInstrStat(opcode);
    s->count.Add(1);
    s->nanos.Add(nanos);
  };
  time("test.report.slow", 500000000000);
  time("test.report.slow", 250000000000);
  time("test.report.fast", 100000000000);
  reg.GetInstrStat("never.timed");
  std::string report = reg.Report(1);
  // Top-1 by time is the slow opcode; non-zero counters always shown.
  EXPECT_NE(report.find("  test.report.slow\t2\t750\n"), std::string::npos)
      << report;
  EXPECT_EQ(report.find("test.report.fast"), std::string::npos);
  EXPECT_NE(report.find("Counters:\n"), std::string::npos);
  EXPECT_NE(report.find("  test.counter\t6\n"), std::string::npos);
  EXPECT_EQ(report.find("test.zero"), std::string::npos);
  EXPECT_EQ(reg.Report().find("never.timed"), std::string::npos);
}

}  // namespace
}  // namespace obs
}  // namespace sysds
