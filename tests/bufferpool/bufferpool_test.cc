#include "runtime/bufferpool/buffer_pool.h"

#include <gtest/gtest.h>

#include <cmath>

#include "api/systemds_context.h"
#include "common/faults.h"
#include "obs/metrics.h"
#include "runtime/controlprog/data.h"

namespace sysds {
namespace {

class BufferPoolTest : public ::testing::Test {
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

TEST_F(BufferPoolTest, TracksRegisteredBytes) {
  auto pool = std::make_shared<BufferPool>(1 << 30);
  auto m = Pooled(pool, MatrixBlock::Dense(100, 100, 1.0));
  EXPECT_GE(pool->CachedBytes(), 100 * 100 * 8);
  m.reset();
  EXPECT_EQ(pool->CachedBytes(), 0);
}

TEST_F(BufferPoolTest, EvictsLruAndRestoresTransparently) {
  // Pool fits ~2 of the 80KB blocks.
  auto pool = std::make_shared<BufferPool>(200 * 1024);
  std::vector<std::shared_ptr<MatrixObject>> objs;
  for (int i = 0; i < 5; ++i) {
    objs.push_back(Pooled(
        pool, MatrixBlock::Dense(100, 100, static_cast<double>(i + 1))));
  }
  // With write-behind the pool may float between the soft and hard limit
  // until the background writer catches up; Drain() observes steady state.
  pool->Drain();
  EXPECT_GT(pool->EvictionCount(), 0);
  EXPECT_LE(pool->CachedBytes(), 200 * 1024);
  // The first object was evicted; acquiring restores the exact contents.
  EXPECT_FALSE(objs[0]->IsCached());
  auto restored = objs[0]->AcquireRead();
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_DOUBLE_EQ((*restored)->Get(50, 50), 1.0);
  EXPECT_EQ((*restored)->NonZeros(), 100 * 100);
  objs[0]->Release();
}

TEST_F(BufferPoolTest, PinnedObjectsAreNotEvicted) {
  auto pool = std::make_shared<BufferPool>(1 << 30);
  auto pinned = Pooled(pool, MatrixBlock::Dense(100, 100, 7.0));
  ASSERT_TRUE(pinned->AcquireRead().ok());  // pin
  pool->SetLimit(1024);  // force eviction pressure
  // Allocate more to trigger eviction attempts.
  auto other = Pooled(pool, MatrixBlock::Dense(100, 100, 8.0));
  EXPECT_TRUE(pinned->IsCached());  // survived because pinned
  pinned->Release();
}

TEST_F(BufferPoolTest, SparseBlocksSurviveEviction) {
  auto pool = std::make_shared<BufferPool>(64 * 1024);
  MatrixBlock sparse = MatrixBlock::Sparse(500, 500);
  sparse.Set(3, 7, 1.5);
  sparse.Set(400, 499, -2.5);
  auto obj = Pooled(pool, std::move(sparse));
  // Push it out with dense blocks.
  std::vector<std::shared_ptr<MatrixObject>> filler;
  for (int i = 0; i < 4; ++i) {
    filler.push_back(Pooled(pool, MatrixBlock::Dense(100, 100, 1.0)));
  }
  auto restored = obj->AcquireRead();
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_DOUBLE_EQ((*restored)->Get(3, 7), 1.5);
  EXPECT_DOUBLE_EQ((*restored)->Get(400, 499), -2.5);
  EXPECT_EQ((*restored)->NonZeros(), 2);
  obj->Release();
}

TEST_F(BufferPoolTest, MetadataAvailableWhileEvicted) {
  auto pool = std::make_shared<BufferPool>(1024);  // everything evicts
  auto a = Pooled(pool, MatrixBlock::Dense(64, 32, 1.0));
  auto b = Pooled(pool, MatrixBlock::Dense(16, 8, 1.0));
  EXPECT_EQ(a->Rows(), 64);
  EXPECT_EQ(a->Cols(), 32);
  EXPECT_EQ(a->NonZeros(), 64 * 32);
}

TEST_F(BufferPoolTest, SpillFailureRepinsAndKeepsAccountingConsistent) {
  auto pool = std::make_shared<BufferPool>(1 << 30);
  std::vector<std::shared_ptr<MatrixObject>> objs;
  for (int i = 0; i < 4; ++i) {
    objs.push_back(Pooled(
        pool, MatrixBlock::Dense(100, 100, static_cast<double>(i + 1))));
  }
  int64_t tracked = pool->CachedBytes();
  int64_t evictions_before = pool->EvictionCount();
  obs::MetricsDiff diff;

  // Every spill write fails: eviction must retry, then re-pin the victims
  // in memory without corrupting LRU/byte accounting.
  {
    ScopedFaultInjection chaos(SpillErrorConfig(1.0));
    pool->SetLimit(1024);
    for (const auto& o : objs) EXPECT_TRUE(o->IsCached());
    EXPECT_EQ(pool->CachedBytes(), tracked);  // nothing untracked or leaked
    EXPECT_EQ(pool->EvictionCount(), evictions_before);
    EXPECT_GT(diff.Counter("fault.bufferpool.spill_retries"), 0);
    EXPECT_GT(diff.Counter("fault.bufferpool.spill_repins"), 0);
  }

  // Once the spill device recovers, the same pressure evicts normally.
  pool->SetLimit(1023);  // re-trigger the eviction pass
  EXPECT_GT(pool->EvictionCount(), evictions_before);
  EXPECT_LE(pool->CachedBytes(), 1023);
  // Evicted contents restore intact.
  auto restored = objs[0]->AcquireRead();
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_DOUBLE_EQ((*restored)->Get(50, 50), 1.0);
  objs[0]->Release();
}

TEST_F(BufferPoolTest, RestoreFailurePropagatesAndStaysRetryable) {
  auto pool = std::make_shared<BufferPool>(1 << 30);
  auto obj = Pooled(pool, MatrixBlock::Dense(64, 64, 3.0));
  pool->SetLimit(64);  // spill it (injection off, so the write succeeds)
  ASSERT_FALSE(obj->IsCached());

  obs::MetricsDiff diff;
  {
    // Both the read and its retry fail: the error must surface to the
    // caller — never a substitute zeros block — and leave the object
    // unpinned with its spill file intact.
    ScopedFaultInjection chaos(SpillErrorConfig(1.0));
    auto acquired = obj->AcquireRead();
    ASSERT_FALSE(acquired.ok());
    EXPECT_EQ(acquired.status().code(), StatusCode::kIoError);
    EXPECT_FALSE(obj->IsCached());
  }
  EXPECT_GT(diff.Counter("fault.bufferpool.restore_retries"), 0);
  EXPECT_GT(diff.Counter("fault.bufferpool.restore_failures"), 0);

  // The failure is transient, not fatal: once the spill device recovers,
  // the same acquire succeeds from the kept spill file.
  auto recovered = obj->AcquireRead();
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_DOUBLE_EQ((*recovered)->Get(10, 10), 3.0);
  obj->Release();
}

TEST_F(BufferPoolTest, ScriptCompletesUnderSpillFaults) {
  // End-to-end: a script whose working set overflows a tiny pool completes
  // with correct results even when every spill write fails (re-pin path).
  obs::MetricsDiff diff;
  FaultConfig chaos = SpillErrorConfig(1.0);
  auto ctx = SystemDSContext::Builder()
                 .BufferPoolLimit(32 * 1024)
                 .Chaos(chaos)
                 .Build();
  const char* script = R"(
    X = rand(rows=128, cols=64, min=0, max=1, seed=7)
    Y = t(X) %*% X
    Z = Y + Y
    s = sum(Z)
    print(s)
  )";
  auto result = ctx->Execute(script, Inputs(), Outputs("s"));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto s = result->GetDouble("s");
  ASSERT_TRUE(s.ok());
  EXPECT_TRUE(std::isfinite(*s));
  EXPECT_NE(*s, 0.0);
  EXPECT_GT(diff.Counter("fault.bufferpool.spill_repins"), 0);
}

}  // namespace
}  // namespace sysds
