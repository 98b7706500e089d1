// Async buffer-pool coverage: write-behind eviction, free drops of clean
// blocks, single-flight restores, hint-driven prefetch, 2Q scan
// resistance, pressure-aware admission, and the chaos paths (failed
// writebacks, corrupt spill files) the synchronous stub never exercised.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "api/systemds_context.h"
#include "common/faults.h"
#include "obs/metrics.h"
#include "runtime/bufferpool/buffer_pool.h"
#include "runtime/controlprog/data.h"
#include "serve/scoring_service.h"

namespace sysds {
namespace {

namespace fs = std::filesystem;

class BufferPoolAsyncTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::Get().Disable(); }
};

// Creates a matrix bound to `pool`, as an ExecutionContext binds a matrix
// the first time it stores it.
std::shared_ptr<MatrixObject> Pooled(const std::shared_ptr<BufferPool>& pool,
                                     MatrixBlock block) {
  auto m = std::make_shared<MatrixObject>(std::move(block));
  m->BindPool(pool);
  return m;
}

FaultConfig SpillErrorConfig(double prob) {
  FaultConfig c;
  c.enabled = true;
  c.seed = 1;
  c.profile.spill_error_prob = prob;
  return c;
}

// Restores (spill-file reads) since `diff`.
int64_t Restores(const obs::MetricsDiff& diff) {
  return diff.Delta().Histogram("bufferpool.restore_ns").count;
}

TEST_F(BufferPoolAsyncTest, WriteBehindTurnsEvictionsIntoFreeDrops) {
  BufferPool::Options opt;
  opt.limit_bytes = 200 * 1024;  // fits ~2 of the 80KB blocks
  auto pool = std::make_shared<BufferPool>(opt);
  obs::MetricsDiff diff;

  std::vector<std::shared_ptr<MatrixObject>> objs;
  for (int i = 0; i < 6; ++i) {
    objs.push_back(Pooled(
        pool, MatrixBlock::Dense(100, 100, static_cast<double>(i + 1))));
  }
  pool->Drain();
  EXPECT_LE(pool->CachedBytes(), opt.limit_bytes);
  EXPECT_GT(pool->EvictionCount(), 0);
  // The background writer cleaned blocks so at least some evictions were
  // free drops instead of synchronous spill writes.
  EXPECT_GT(diff.Counter("bufferpool.free_drops"), 0);
  // Contents survive the async path bit-exact.
  for (int i = 0; i < 6; ++i) {
    auto r = objs[static_cast<size_t>(i)]->AcquireRead();
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_DOUBLE_EQ((*r)->Get(42, 42), static_cast<double>(i + 1));
    objs[static_cast<size_t>(i)]->Release();
  }
}

TEST_F(BufferPoolAsyncTest, RestoredObjectStaysCleanAndReEvictsForFree) {
  auto pool = std::make_shared<BufferPool>(1 << 30);
  auto obj = Pooled(pool, MatrixBlock::Dense(64, 64, 5.0));
  pool->SetLimit(64);  // force a synchronous spill
  ASSERT_FALSE(obj->HasPayload());

  pool->SetLimit(1 << 30);
  auto r = obj->AcquireRead();
  ASSERT_TRUE(r.ok()) << r.status();
  obj->Release();
  ASSERT_TRUE(obj->HasPayload());

  // Blocks are immutable, so the kept spill file is still valid: the
  // second eviction must not write again.
  obs::MetricsDiff diff;
  pool->SetLimit(64);
  pool->Drain();
  EXPECT_FALSE(obj->HasPayload());
  EXPECT_EQ(diff.Counter("bufferpool.sync_spills"), 0);
  EXPECT_EQ(diff.Counter("bufferpool.writebacks"), 0);
  EXPECT_GT(diff.Counter("bufferpool.free_drops"), 0);

  auto again = obj->AcquireRead();
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_DOUBLE_EQ((*again)->Get(7, 7), 5.0);
  obj->Release();
}

TEST_F(BufferPoolAsyncTest, ConcurrentAcquiresCoalesceIntoOneRestore) {
  auto pool = std::make_shared<BufferPool>(1 << 30);
  auto obj = Pooled(pool, MatrixBlock::Dense(200, 200, 2.0));
  pool->SetLimit(64);
  ASSERT_FALSE(obj->HasPayload());
  pool->SetLimit(1 << 30);

  const int kThreads = 8;
  obs::MetricsDiff reads;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      auto r = obj->AcquireRead();
      if (!r.ok() || (*r)->Get(13, 13) != 2.0) {
        failures.fetch_add(1);
      } else {
        obj->Release();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  // Single-flight: N concurrent acquires of one spilled object perform
  // exactly one disk read; waiters block on the object's CV.
  EXPECT_EQ(Restores(reads), 1);
}

TEST_F(BufferPoolAsyncTest, PrefetchRestoresAheadOfDemand) {
  auto pool = std::make_shared<BufferPool>(1 << 30);
  auto obj = Pooled(pool, MatrixBlock::Dense(64, 64, 9.0));
  pool->SetLimit(64);
  ASSERT_FALSE(obj->HasPayload());
  pool->SetLimit(1 << 30);

  obs::MetricsDiff diff;
  pool->Prefetch(obj.get());
  pool->Drain();
  EXPECT_TRUE(obj->HasPayload()) << "prefetch restored ahead of demand";
  EXPECT_GT(diff.Counter("bufferpool.prefetch_issued"), 0);

  obs::MetricsDiff reads;
  auto r = obj->AcquireRead();
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_DOUBLE_EQ((*r)->Get(3, 3), 9.0);
  obj->Release();
  EXPECT_EQ(Restores(reads), 0) << "no demand read after prefetch";
  EXPECT_GT(diff.Counter("bufferpool.prefetch_hits"), 0);
}

TEST_F(BufferPoolAsyncTest, TwoQKeepsWorkingSetThroughScan) {
  // A re-referenced (protected) object must survive a one-touch scan that
  // is larger than the pool, while the scan itself is evicted.
  auto pool = std::make_shared<BufferPool>(400 * 1024);
  auto hot = Pooled(pool, MatrixBlock::Dense(100, 100, 1.0));
  // Re-reference: promoted to the protected queue.
  for (int i = 0; i < 3; ++i) {
    auto r = hot->AcquireRead();
    EXPECT_TRUE(r.ok());
    hot->Release();
  }
  // One-touch scan, 2x the pool size.
  std::vector<std::shared_ptr<MatrixObject>> scan;
  for (int i = 0; i < 10; ++i) {
    scan.push_back(Pooled(pool, MatrixBlock::Dense(100, 100, 2.0)));
  }
  pool->Drain();
  EXPECT_GT(pool->EvictionCount(), 0) << "the scan must overflow the pool";
  int evicted_scan = 0;
  for (const auto& m : scan) evicted_scan += m->HasPayload() ? 0 : 1;
  EXPECT_GT(evicted_scan, 0);
  EXPECT_TRUE(hot->HasPayload()) << "the protected block survives the scan";
  obs::MetricsDiff reads;
  auto r = hot->AcquireRead();
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_DOUBLE_EQ((*r)->Get(7, 7), 1.0);
  hot->Release();
  EXPECT_EQ(Restores(reads), 0) << "no demand restore of hot";
}

TEST_F(BufferPoolAsyncTest, EvictToKeepsABlockPinnedAfterItsWriteResident) {
  // EvictTo is WriteBack followed by DropIfClean. A pin taken once the
  // write is done makes the drop fail: the block stays resident and clean.
  const std::string path =
      (fs::temp_directory_path() /
       ("sysds_evict_pin_" + std::to_string(::getpid()) + ".bin"))
          .string();
  MatrixObject obj(MatrixBlock::Dense(32, 32, 4.0));
  auto wrote = obj.WriteBack(path);
  ASSERT_TRUE(wrote.ok()) << wrote.status();
  ASSERT_TRUE(*wrote);
  auto pinned = obj.AcquireRead();
  ASSERT_TRUE(pinned.ok()) << pinned.status();

  auto evicted = obj.EvictTo(path);
  ASSERT_TRUE(evicted.ok()) << evicted.status();
  EXPECT_FALSE(*evicted) << "a pinned block is not dropped";
  EXPECT_TRUE(obj.HasPayload());
  EXPECT_DOUBLE_EQ((*pinned)->Get(5, 5), 4.0);
  auto rewrite = obj.WriteBack(path);
  ASSERT_TRUE(rewrite.ok()) << rewrite.status();
  EXPECT_FALSE(*rewrite) << "still clean: nothing left to write";
  obj.Release();

  // Once unpinned, the clean block drops for free and restores intact.
  evicted = obj.EvictTo(path);
  ASSERT_TRUE(evicted.ok()) << evicted.status();
  EXPECT_TRUE(*evicted);
  EXPECT_FALSE(obj.HasPayload());
  auto restored = obj.AcquireRead();
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_DOUBLE_EQ((*restored)->Get(31, 31), 4.0);
  obj.Release();
}

TEST_F(BufferPoolAsyncTest, PinnedStormExportsNegativeHeadroom) {
  BufferPool::Options opt;
  opt.limit_bytes = 100 * 1024;
  auto pool = std::make_shared<BufferPool>(opt);
  // Pin three ~80KB objects: pinned bytes alone exceed the limit.
  std::vector<std::shared_ptr<MatrixObject>> pinned;
  for (int i = 0; i < 3; ++i) {
    pinned.push_back(Pooled(
        pool, MatrixBlock::Dense(100, 100, static_cast<double>(i))));
    ASSERT_TRUE(pinned.back()->AcquireRead().ok());
  }
  pool->Drain();
  // No pinned block was evicted, even though the pool is far over limit.
  for (const auto& p : pinned) EXPECT_TRUE(p->HasPayload());
  EXPECT_GT(pool->PinnedBytes(), opt.limit_bytes);
  EXPECT_LT(pool->Headroom(), 0);
  EXPECT_TRUE(pool->UnderPressure(1));

  // Unpinning restores normal eviction behaviour.
  for (const auto& p : pinned) p->Release();
  EXPECT_GE(pool->Headroom(), 0);
  pool->SetLimit(1024);
  pool->Drain();
  EXPECT_LE(pool->CachedBytes(), 1024);
}

TEST_F(BufferPoolAsyncTest, ServiceRejectsWithOomWhenHeadroomLow) {
  auto ctx = SystemDSContext::Builder().BufferPoolLimit(100 * 1024).Build();
  SymbolInfo xinfo;
  xinfo.dt = DataType::kMatrix;
  xinfo.dim1 = 2;
  xinfo.dim2 = 2;
  auto prepared = ctx->Prepare("y = sum(X)", {{"X", xinfo}});
  ASSERT_TRUE(prepared.ok()) << prepared.status();

  serve::ServiceOptions sopt;
  sopt.num_workers = 1;
  sopt.admission_headroom_bytes = 16 * 1024;
  serve::ScoringService svc(sopt);
  ASSERT_TRUE(
      svc.RegisterModel(
             "m", std::shared_ptr<const PreparedScript>(std::move(*prepared)),
             {"y"})
          .ok());

  // With ample headroom the request is admitted and served.
  auto ok = svc.Score("m", Inputs().Matrix("X", MatrixBlock::Dense(2, 2, 1.0)));
  ASSERT_TRUE(ok.ok()) << ok.status();

  // Pin the pool full: real headroom (limit - pinned) goes negative and
  // admission fast-rejects with the retryable kOom, same as a full queue.
  // Storing each matrix in a script variable binds it to the context's
  // pool.
  std::vector<std::shared_ptr<MatrixObject>> pinned;
  for (int i = 0; i < 3; ++i) {
    pinned.push_back(
        std::make_shared<MatrixObject>(MatrixBlock::Dense(100, 100, 1.0)));
    ASSERT_TRUE(ctx->Execute("n = nrow(P)", Inputs().Bind("P", pinned.back()),
                             Outputs("n"))
                    .ok());
    ASSERT_TRUE(pinned.back()->AcquireRead().ok());
  }
  auto rejected =
      svc.Score("m", Inputs().Matrix("X", MatrixBlock::Dense(2, 2, 1.0)));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kOom);
  EXPECT_TRUE(IsRetryable(rejected.status()));

  // Backpressure clears with the pins.
  for (const auto& p : pinned) p->Release();
  auto recovered =
      svc.Score("m", Inputs().Matrix("X", MatrixBlock::Dense(2, 2, 1.0)));
  EXPECT_TRUE(recovered.ok()) << recovered.status();
}

TEST_F(BufferPoolAsyncTest, FailedWritebackStaysDirtyAndRetryable) {
  BufferPool::Options opt;
  opt.limit_bytes = 200 * 1024;
  auto pool = std::make_shared<BufferPool>(opt);
  obs::MetricsDiff diff;
  std::vector<std::shared_ptr<MatrixObject>> objs;
  {
    // Every spill write fails: write-behind must leave blocks dirty and
    // resident (degraded but correct), never drop unwritten data.
    ScopedFaultInjection chaos(SpillErrorConfig(1.0));
    for (int i = 0; i < 6; ++i) {
      objs.push_back(Pooled(
          pool, MatrixBlock::Dense(100, 100, static_cast<double>(i))));
    }
    pool->Drain();
    EXPECT_GT(diff.Counter("fault.bufferpool.writeback_failures"), 0);
    for (const auto& o : objs) EXPECT_TRUE(o->HasPayload());
  }
  // Once the spill device recovers the same pressure drains normally.
  pool->SetLimit(100 * 1024);
  pool->Drain();
  EXPECT_LE(pool->CachedBytes(), 100 * 1024);
  for (int i = 0; i < 6; ++i) {
    auto r = objs[static_cast<size_t>(i)]->AcquireRead();
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_DOUBLE_EQ((*r)->Get(1, 1), static_cast<double>(i));
    objs[static_cast<size_t>(i)]->Release();
  }
}

TEST_F(BufferPoolAsyncTest, CorruptWritebackSurfacesAsCorruptAndRetryable) {
  BufferPool::Options opt;
  opt.limit_bytes = 1 << 30;
  auto pool = std::make_shared<BufferPool>(opt);
  auto obj = Pooled(pool, MatrixBlock::Dense(64, 64, 4.0));
  pool->SetLimit(64);  // spill + drop
  ASSERT_FALSE(obj->HasPayload());
  pool->SetLimit(1 << 30);

  // Corrupt the spill file the way a crash mid-writeback would: flip a
  // payload byte. The CRC footer must catch it as kCorrupt (retryable),
  // never deserialize garbage.
  std::string path = pool->SpillPathFor(obj.get());
  ASSERT_TRUE(fs::exists(path));
  std::string original;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    original = buf.str();
  }
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(32);
    f.put('\x5a');
  }
  auto read = obj->AcquireRead();
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kCorrupt) << read.status();
  EXPECT_TRUE(IsRetryable(read.status()));
  EXPECT_TRUE(fs::exists(path)) << "spill file kept for retry";

  // Repair (e.g. the storage layer heals) and the same acquire succeeds.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << original;
  }
  auto recovered = obj->AcquireRead();
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_DOUBLE_EQ((*recovered)->Get(5, 5), 4.0);
  obj->Release();
}

TEST_F(BufferPoolAsyncTest, RegisterUnregisterRaceWithInflightWriteback) {
  // Object churn under constant eviction pressure: destructors must block
  // on in-flight writebacks (no use-after-free of the raw pointer the
  // background writer holds). Primarily a tsan target.
  BufferPool::Options opt;
  opt.limit_bytes = 64 * 1024;  // every object overflows the pool
  auto pool = std::make_shared<BufferPool>(opt);
  const int kThreads = 4, kIters = 25;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        auto obj =
            Pooled(pool, MatrixBlock::Dense(
                             60, 60, static_cast<double>(t * kIters + i)));
        auto r = obj->AcquireRead();
        if (!r.ok() ||
            (*r)->Get(0, 0) != static_cast<double>(t * kIters + i)) {
          failures.fetch_add(1);
        } else {
          obj->Release();
        }
        // obj destroyed here, potentially mid-writeback.
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  pool->Drain();
  EXPECT_EQ(pool->CachedBytes(), 0);
  EXPECT_EQ(pool->PinnedBytes(), 0);
}

// ---------------------------------------------------------------------------
// Differential: the pool must be invisible in results. The same iterative
// over-memory script produces bit-identical outputs with a tiny pool
// (spill/restore on every iteration, async machinery fully engaged), with
// the async features disabled, and with a pool large enough to never evict.
// ---------------------------------------------------------------------------

double RunIterativeScript(SystemDSContext::Builder builder) {
  auto ctx = builder.Build();
  const char* script = R"(
    X = rand(rows=200, cols=100, min=0, max=1, seed=42)
    Y = rand(rows=200, cols=100, min=0, max=1, seed=43)
    acc = matrix(0, rows=100, cols=100)
    for (i in 1:6) {
      G = t(X) %*% Y
      acc = acc + G * (1.0 / i)
      Z = X + Y
      s0 = sum(Z)
    }
    out = sum(acc)
    print(out)
  )";
  auto result = ctx->Execute(script, Inputs(), Outputs("out"));
  EXPECT_TRUE(result.ok()) << result.status();
  if (!result.ok()) return 0.0;
  auto v = result->GetDouble("out");
  EXPECT_TRUE(v.ok());
  return v.ok() ? *v : 0.0;
}

TEST_F(BufferPoolAsyncTest, ResultsBitIdenticalAcrossPoolConfigurations) {
  double no_evictions =
      RunIterativeScript(SystemDSContext::Builder().BufferPoolLimit(1 << 30));
  double async_tiny = RunIterativeScript(
      SystemDSContext::Builder().BufferPoolLimit(64 * 1024));
  double no_prefetch_tiny = RunIterativeScript(
      SystemDSContext::Builder().BufferPoolLimit(64 * 1024).BufferPoolPrefetch(
          false));
  // A pool far below one operand: every registration lands above the hard
  // limit, so dirty victims take the synchronous EvictTo backstop.
  obs::MetricsDiff diff;
  double sync_backstop = RunIterativeScript(
      SystemDSContext::Builder().BufferPoolLimit(16 * 1024));
  EXPECT_GT(diff.Counter("bufferpool.sync_spills"), 0);
  // Bit-identical, not approximately equal: spill/restore round-trips and
  // background scheduling must not perturb a single bit of the result.
  EXPECT_EQ(no_evictions, async_tiny);
  EXPECT_EQ(no_evictions, no_prefetch_tiny);
  EXPECT_EQ(no_evictions, sync_backstop);
  EXPECT_NE(no_evictions, 0.0);
}

TEST_F(BufferPoolAsyncTest, LoopPrefetchEngagesOnOverLimitWorkload) {
  obs::MetricsDiff diff;
  // The pool holds one 160 KB operand but not the loop's working set; a
  // prefetch is admitted only when the headroom covers the block.
  double v = RunIterativeScript(
      SystemDSContext::Builder().BufferPoolLimit(240 * 1024));
  EXPECT_NE(v, 0.0);
  // The loop's liveness hints scheduled background restores of spilled
  // operands at iteration boundaries.
  EXPECT_GT(diff.Counter("bufferpool.prefetch_issued"), 0);
}

}  // namespace
}  // namespace sysds
