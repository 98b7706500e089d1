#include "serve/scoring_service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace sysds {
namespace serve {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

std::shared_ptr<const PreparedScript> PrepareModel(
    SystemDSContext& ctx, const std::string& script,
    const std::map<std::string, SymbolInfo>& infos) {
  auto p = ctx.Prepare(script, infos);
  EXPECT_TRUE(p.ok()) << p.status();
  return p.ok() ? std::shared_ptr<const PreparedScript>(std::move(*p))
                : nullptr;
}

SymbolInfo MatrixInfo(int64_t rows = -1, int64_t cols = -1) {
  SymbolInfo info;
  info.dt = DataType::kMatrix;
  info.dim1 = rows;
  info.dim2 = cols;
  return info;
}

SymbolInfo IntInfo() {
  SymbolInfo info;
  info.dt = DataType::kScalar;
  info.vt = ValueType::kInt64;
  return info;
}

/// Spins until `pred` holds or `timeout` elapses; returns pred().
template <typename Pred>
bool WaitUntil(Pred pred, milliseconds timeout = milliseconds(5000)) {
  auto end = steady_clock::now() + timeout;
  while (!pred()) {
    if (steady_clock::now() >= end) return false;
    std::this_thread::sleep_for(milliseconds(1));
  }
  return true;
}

// A request that runs until its token is cancelled (bounded by n). A while
// loop, not `for (i in 1:n)`: the for range is materialized up front where
// no interrupt poll runs, while the while predicate re-evaluates — and
// polls — every iteration.
constexpr const char* kSlowScript =
    "acc = 0\ni = 0\nwhile (i < n) { acc = acc + i\ni = i + 1 }\n";

TEST(ScoringServiceTest, RegisterAndScore) {
  auto ctx = SystemDSContext::Builder().Build();
  auto script = PrepareModel(*ctx, "y = sum(X) * 2\n", {{"X", MatrixInfo()}});
  ASSERT_NE(script, nullptr);

  ScoringService svc;
  ASSERT_TRUE(svc.RegisterModel("m", script, {"y"}).ok());
  auto r = svc.Score("m", Inputs().Matrix("X", MatrixBlock::Dense(3, 3, 1.0)));
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_DOUBLE_EQ(*r->GetDouble("y"), 18.0);
  EXPECT_EQ(svc.Stats().completed, 1);
}

TEST(ScoringServiceTest, UnknownModelAndDuplicateRegistration) {
  auto ctx = SystemDSContext::Builder().Build();
  auto script = PrepareModel(*ctx, "y = sum(X)\n", {{"X", MatrixInfo()}});
  ASSERT_NE(script, nullptr);

  ScoringService svc;
  auto r = svc.Score("ghost", Inputs());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);

  ASSERT_TRUE(svc.RegisterModel("m", script, {"y"}).ok());
  EXPECT_EQ(svc.RegisterModel("m", script, {"y"}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(svc.RegisterModel("n", nullptr, {"y"}).code(),
            StatusCode::kInvalidArgument);
}

TEST(ScoringServiceTest, QueueBackpressureRejectsWithRetryableOom) {
  auto ctx = SystemDSContext::Builder().Build();
  auto slow = PrepareModel(*ctx, kSlowScript, {{"n", IntInfo()}});
  ASSERT_NE(slow, nullptr);

  ServiceOptions opts;
  opts.num_workers = 1;
  opts.max_queue_depth = 1;
  ScoringService svc(opts);
  ASSERT_TRUE(svc.RegisterModel("slow", slow, {"acc"}).ok());

  // Occupy the single worker with a request that runs until cancelled.
  RequestOptions blocker_opts;
  blocker_opts.cancel = std::make_shared<CancellationToken>();
  auto blocker = svc.Submit("slow", Inputs().Integer("n", 2000000000),
                            blocker_opts);
  ASSERT_TRUE(WaitUntil([&] { return svc.QueueDepth() == 0; }));

  // One request fits in the queue; the next one must be rejected.
  auto queued = svc.Submit("slow", Inputs().Integer("n", 1));
  auto rejected = svc.Submit("slow", Inputs().Integer("n", 1));
  auto r = rejected.get();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOom);
  EXPECT_TRUE(IsRetryable(r.status()));
  EXPECT_EQ(svc.Stats().rejected, 1);

  blocker_opts.cancel->Cancel();
  EXPECT_EQ(blocker.get().status().code(), StatusCode::kCancelled);
  EXPECT_TRUE(queued.get().ok());
}

TEST(ScoringServiceTest, DeadlineExpiresWhileQueued) {
  auto ctx = SystemDSContext::Builder().Build();
  auto slow = PrepareModel(*ctx, kSlowScript, {{"n", IntInfo()}});
  ASSERT_NE(slow, nullptr);

  ServiceOptions opts;
  opts.num_workers = 1;
  ScoringService svc(opts);
  ASSERT_TRUE(svc.RegisterModel("slow", slow, {"acc"}).ok());

  RequestOptions blocker_opts;
  blocker_opts.cancel = std::make_shared<CancellationToken>();
  auto blocker = svc.Submit("slow", Inputs().Integer("n", 2000000000),
                            blocker_opts);
  ASSERT_TRUE(WaitUntil([&] { return svc.QueueDepth() == 0; }));

  // This request's deadline expires while it waits behind the blocker.
  RequestOptions doomed_opts;
  doomed_opts.deadline = steady_clock::now() + milliseconds(30);
  auto doomed = svc.Submit("slow", Inputs().Integer("n", 1), doomed_opts);
  std::this_thread::sleep_for(milliseconds(60));
  blocker_opts.cancel->Cancel();

  auto r = doomed.get();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kTimeout);
  EXPECT_EQ(svc.Stats().deadline_misses, 1);
  blocker.get();
}

TEST(ScoringServiceTest, DeadlineInterruptsRunningRequest) {
  auto ctx = SystemDSContext::Builder().Build();
  auto slow = PrepareModel(*ctx, kSlowScript, {{"n", IntInfo()}});
  ASSERT_NE(slow, nullptr);

  ServiceOptions opts;
  opts.num_workers = 1;
  opts.default_deadline = milliseconds(50);
  ScoringService svc(opts);
  ASSERT_TRUE(svc.RegisterModel("slow", slow, {"acc"}).ok());

  auto r = svc.Score("slow", Inputs().Integer("n", 2000000000));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kTimeout);
  EXPECT_EQ(svc.Stats().deadline_misses, 1);
}

TEST(ScoringServiceTest, ShutdownDrainsAdmittedRequests) {
  auto ctx = SystemDSContext::Builder().Build();
  auto script = PrepareModel(*ctx, "y = sum(X)\n", {{"X", MatrixInfo()}});
  ASSERT_NE(script, nullptr);

  ServiceOptions opts;
  opts.num_workers = 2;
  opts.max_queue_depth = 256;
  ScoringService svc(opts);
  ASSERT_TRUE(svc.RegisterModel("m", script, {"y"}).ok());

  std::vector<std::future<StatusOr<ScriptResult>>> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(svc.Submit(
        "m", Inputs().Matrix("X", MatrixBlock::Dense(2, 2, 1.0 + i))));
  }
  svc.Shutdown();  // must drain, not drop

  for (int i = 0; i < 32; ++i) {
    auto r = futures[static_cast<size_t>(i)].get();
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_DOUBLE_EQ(*r->GetDouble("y"), 4.0 * (1.0 + i));
  }
  // Admission is closed after shutdown.
  auto late = svc.Score("m", Inputs().Matrix("X", MatrixBlock::Dense(2, 2)));
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kCancelled);
}

// A submit after Shutdown is rejected, and the service's own count and the
// registry's serve.rejected both record it.
TEST(ScoringServiceTest, ShutdownRejectionIsCountedInStatsAndRegistry) {
  ScoringService svc;
  svc.Shutdown();
  obs::MetricsDiff diff;
  auto r = svc.Score("m", Inputs());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(svc.Stats().rejected, 1);
  EXPECT_EQ(diff.Counter("serve.rejected"), svc.Stats().rejected);
}

// serve.queue_depth is the sum of the queues of every live service.
TEST(ScoringServiceTest, QueueDepthGaugeSumsOverServices) {
  auto ctx = SystemDSContext::Builder().Build();
  auto slow = PrepareModel(*ctx, kSlowScript, {{"n", IntInfo()}});
  ASSERT_NE(slow, nullptr);
  obs::Gauge* depth =
      obs::MetricsRegistry::Get().GetGauge("serve.queue_depth");
  const int64_t base = depth->Value();

  ServiceOptions opts;
  opts.num_workers = 1;
  ScoringService s1(opts);
  ScoringService s2(opts);
  ASSERT_TRUE(s1.RegisterModel("slow", slow, {"acc"}).ok());
  ASSERT_TRUE(s2.RegisterModel("slow", slow, {"acc"}).ok());

  // Occupy each service's one worker, then queue 2 requests on s1 and 3 on
  // s2 behind it.
  RequestOptions blocker_opts;
  blocker_opts.cancel = std::make_shared<CancellationToken>();
  auto b1 = s1.Submit("slow", Inputs().Integer("n", 2000000000), blocker_opts);
  auto b2 = s2.Submit("slow", Inputs().Integer("n", 2000000000), blocker_opts);
  ASSERT_TRUE(WaitUntil(
      [&] { return s1.QueueDepth() == 0 && s2.QueueDepth() == 0; }));
  std::vector<std::future<StatusOr<ScriptResult>>> queued;
  for (int i = 0; i < 2; ++i) {
    queued.push_back(s1.Submit("slow", Inputs().Integer("n", 1)));
  }
  for (int i = 0; i < 3; ++i) {
    queued.push_back(s2.Submit("slow", Inputs().Integer("n", 1)));
  }
  EXPECT_EQ(s1.QueueDepth(), 2);
  EXPECT_EQ(s2.QueueDepth(), 3);
  EXPECT_EQ(depth->Value() - base, 5);

  blocker_opts.cancel->Cancel();
  for (auto& f : queued) EXPECT_TRUE(f.get().ok());
  b1.get();
  b2.get();
  EXPECT_EQ(depth->Value(), base);
}

TEST(ScoringServiceTest, MicroBatchingStacksSingleRowRequests) {
  auto ctx = SystemDSContext::Builder().Build();
  auto script = PrepareModel(*ctx, "yhat = X %*% B\n",
                             {{"X", MatrixInfo()}, {"B", MatrixInfo()}});
  ASSERT_NE(script, nullptr);

  ServiceOptions sopts;
  sopts.num_workers = 1;
  sopts.max_queue_depth = 64;
  ScoringService svc(sopts);
  ModelOptions mopts;
  mopts.micro_batching = true;
  mopts.batch_input = "X";
  mopts.max_batch_size = 8;
  ASSERT_TRUE(svc.RegisterModel("lm", script, {"yhat"}, mopts).ok());

  // Shared model weights: same DataPtr across requests (batching
  // requirement).
  MatrixBlock b = MatrixBlock::Dense(4, 1);
  for (int64_t i = 0; i < 4; ++i) b.DenseRow(i)[0] = 1.0 + i;
  b.MarkNnzDirty();
  DataPtr weights = std::make_shared<MatrixObject>(b);

  // Occupy the worker so the scoring requests pile up and batch.
  auto slow = PrepareModel(*ctx, kSlowScript, {{"n", IntInfo()}});
  ASSERT_NE(slow, nullptr);
  ASSERT_TRUE(svc.RegisterModel("slow", slow, {"acc"}).ok());
  RequestOptions blocker_opts;
  blocker_opts.cancel = std::make_shared<CancellationToken>();
  auto blocker = svc.Submit("slow", Inputs().Integer("n", 2000000000),
                            blocker_opts);
  ASSERT_TRUE(WaitUntil([&] { return svc.QueueDepth() == 0; }));

  std::vector<std::future<StatusOr<ScriptResult>>> futures;
  for (int i = 0; i < 6; ++i) {
    MatrixBlock row = MatrixBlock::Dense(1, 4);
    for (int64_t j = 0; j < 4; ++j) {
      row.DenseRow(0)[j] = static_cast<double>(i + 1);
    }
    row.MarkNnzDirty();
    futures.push_back(svc.Submit(
        "lm", Inputs().Matrix("X", row).Bind("B", weights)));
  }
  ASSERT_TRUE(WaitUntil([&] { return svc.QueueDepth() == 6; }));
  blocker_opts.cancel->Cancel();
  blocker.get();

  // yhat_i = (i+1) * (1+2+3+4) = (i+1) * 10, one row per request.
  for (int i = 0; i < 6; ++i) {
    auto r = futures[static_cast<size_t>(i)].get();
    ASSERT_TRUE(r.ok()) << r.status();
    MatrixBlock yhat = *r->GetMatrix("yhat");
    ASSERT_EQ(yhat.Rows(), 1);
    ASSERT_EQ(yhat.Cols(), 1);
    EXPECT_DOUBLE_EQ(yhat.Get(0, 0), 10.0 * (i + 1));
  }
  ServiceStats stats = svc.Stats();
  EXPECT_GE(stats.batches, 1);
  EXPECT_GE(stats.batched_requests, 2);
}

TEST(ScoringServiceTest, BatchWithScalarOutputFallsBackToIndividual) {
  auto ctx = SystemDSContext::Builder().Build();
  auto script = PrepareModel(*ctx, "s = sum(X %*% B)\n",
                             {{"X", MatrixInfo()}, {"B", MatrixInfo()}});
  ASSERT_NE(script, nullptr);

  ServiceOptions sopts;
  sopts.num_workers = 1;
  ScoringService svc(sopts);
  ModelOptions mopts;
  mopts.micro_batching = true;
  mopts.batch_input = "X";
  mopts.max_batch_size = 4;
  ASSERT_TRUE(svc.RegisterModel("m", script, {"s"}, mopts).ok());

  DataPtr weights =
      std::make_shared<MatrixObject>(MatrixBlock::Dense(3, 1, 2.0));
  // The scalar output cannot be sliced per row; every request must still
  // get its own (correct) answer through the fallback path.
  std::vector<std::future<StatusOr<ScriptResult>>> futures;
  for (int i = 0; i < 4; ++i) {
    futures.push_back(svc.Submit(
        "m", Inputs()
                 .Matrix("X", MatrixBlock::Dense(1, 3, 1.0 + i))
                 .Bind("B", weights)));
  }
  for (int i = 0; i < 4; ++i) {
    auto r = futures[static_cast<size_t>(i)].get();
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_DOUBLE_EQ(*r->GetDouble("s"), (1.0 + i) * 3.0 * 2.0);
  }
}

// The ISSUE's stress test: 8 workers x 200 executions over a shared
// PreparedScript with lineage reuse; results must match serial execution
// and the cache hit count must be consistent with the request count.
TEST(ScoringServiceTest, StressConcurrentExecutionMatchesSerial) {
  constexpr int kWorkers = 8;
  constexpr int kRequestsPerWorker = 200;
  constexpr int kDistinctInputs = 4;
  constexpr int kTotal = kWorkers * kRequestsPerWorker;

  auto ctx = SystemDSContext::Builder()
                 .Reuse(ReusePolicy::kFull)
                 .NumThreads(1)
                 .Build();
  auto script = PrepareModel(*ctx, "y = sum(t(X) %*% X)\n",
                             {{"X", MatrixInfo(16, 16)}});
  ASSERT_NE(script, nullptr);

  // Shared input objects: lineage traces bound matrices by object
  // identity, so reuse across requests requires sharing the DataPtr (the
  // serving pattern for model weights and hot feature blocks).
  std::vector<DataPtr> inputs;
  std::vector<double> expected;
  for (int i = 0; i < kDistinctInputs; ++i) {
    inputs.push_back(
        std::make_shared<MatrixObject>(MatrixBlock::Dense(16, 16, 1.0 + i)));
    // Serial reference execution.
    auto r = script->Execute(Inputs().Bind("X", inputs.back()),
                             Outputs("y"));
    ASSERT_TRUE(r.ok()) << r.status();
    expected.push_back(*r->GetDouble("y"));
  }
  LineageCacheStats warm = ctx->Cache()->Stats();
  ASSERT_GT(warm.puts, 0);  // the serial pass populated the cache

  ServiceOptions opts;
  opts.num_workers = kWorkers;
  opts.max_queue_depth = kTotal + 16;
  ScoringService svc(opts);
  ASSERT_TRUE(svc.RegisterModel("m", script, {"y"}).ok());

  // Concurrent submitters exercise Submit from many threads as well.
  std::vector<std::future<StatusOr<ScriptResult>>> futures(
      static_cast<size_t>(kTotal));
  std::vector<std::thread> submitters;
  for (int t = 0; t < kWorkers; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kRequestsPerWorker; ++i) {
        int idx = t * kRequestsPerWorker + i;
        futures[static_cast<size_t>(idx)] = svc.Submit(
            "m", Inputs().Bind("X", inputs[static_cast<size_t>(
                                       idx % kDistinctInputs)]));
      }
    });
  }
  for (std::thread& t : submitters) t.join();

  for (int i = 0; i < kTotal; ++i) {
    auto r = futures[static_cast<size_t>(i)].get();
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_DOUBLE_EQ(*r->GetDouble("y"),
                     expected[static_cast<size_t>(i % kDistinctInputs)])
        << "request " << i;
  }
  EXPECT_EQ(svc.Stats().completed, kTotal);
  EXPECT_EQ(svc.Stats().failed, 0);

  // The cache was warmed serially, so every concurrent request hits at
  // least once (the tsmm intermediate), and counters stay consistent.
  LineageCacheStats stats = ctx->Cache()->Stats();
  EXPECT_GE(stats.full_hits - warm.full_hits, kTotal);
  EXPECT_GE(stats.probes, stats.full_hits);
}

}  // namespace
}  // namespace serve
}  // namespace sysds
