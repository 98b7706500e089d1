// Buffer-pool ownership across contexts: every matrix a context stores
// stays in that context's pool for life, and the pool outlives every matrix
// bound to it. These run under the asan preset, where a matrix that leaves
// the wrong pool shows up as a heap-use-after-free in the pool it was
// really registered with.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "api/systemds_context.h"
#include "obs/metrics.h"
#include "runtime/bufferpool/buffer_pool.h"
#include "runtime/controlprog/data.h"
#include "serve/scoring_service.h"

namespace sysds {
namespace {

SymbolInfo MatrixInfo(int64_t rows, int64_t cols) {
  SymbolInfo info;
  info.dt = DataType::kMatrix;
  info.dim1 = rows;
  info.dim2 = cols;
  return info;
}

// Build context A, create a matrix, build context B, drop the matrix, then
// shrink A's pool. The matrix must unregister from A (the pool that holds
// it), not from the newest pool; otherwise A's eviction pass visits the
// freed object.
TEST(PoolOwnershipTest, DroppedMatrixLeavesItsOwnContextsPool) {
  auto a = SystemDSContext::Builder().Build();
  auto r = a->Execute("Y = X + 1\n",
                      Inputs().Matrix("X", MatrixBlock::Dense(64, 64, 1.0)),
                      Outputs("Y"));
  ASSERT_TRUE(r.ok()) << r.status();
  auto held = std::make_unique<ScriptResult>(std::move(r).value());
  ASSERT_GT(a->Pool()->CachedBytes(), 0);

  auto b = SystemDSContext::Builder().Build();
  held.reset();  // drops Y, the last matrix registered in A's pool
  EXPECT_EQ(a->Pool()->CachedBytes(), 0);

  a->Pool()->SetLimit(0);  // eviction pass over A's entries
  EXPECT_EQ(a->Pool()->CachedBytes(), 0);
  EXPECT_EQ(b->Pool()->CachedBytes(), 0);
}

// bufferpool.{cached,pinned}_bytes sum over every live pool: each pool adds
// what it holds, and a destroyed pool takes its share back.
TEST(PoolOwnershipTest, PoolGaugesSumOverLiveContexts) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Get();
  obs::Gauge* cached = reg.GetGauge("bufferpool.cached_bytes");
  obs::Gauge* pinned = reg.GetGauge("bufferpool.pinned_bytes");
  const int64_t cached_base = cached->Value();
  const int64_t pinned_base = pinned->Value();

  auto a = SystemDSContext::Builder().Build();
  auto b = SystemDSContext::Builder().Build();
  auto xa = std::make_shared<MatrixObject>(MatrixBlock::Dense(64, 64, 1.0));
  auto xb = std::make_shared<MatrixObject>(MatrixBlock::Dense(128, 64, 2.0));
  // Storing an input binds it to that context's pool; a read pins it.
  ASSERT_TRUE(
      a->Execute("s = sum(X)\n", Inputs().Bind("X", xa), Outputs("s")).ok());
  ASSERT_TRUE(
      b->Execute("s = sum(X)\n", Inputs().Bind("X", xb), Outputs("s")).ok());
  ASSERT_TRUE(xa->AcquireRead().ok());
  ASSERT_TRUE(xb->AcquireRead().ok());
  ASSERT_GT(a->Pool()->PinnedBytes(), 0);
  ASSERT_GT(b->Pool()->PinnedBytes(), 0);
  EXPECT_EQ(cached->Value() - cached_base,
            a->Pool()->CachedBytes() + b->Pool()->CachedBytes());
  EXPECT_EQ(pinned->Value() - pinned_base,
            a->Pool()->PinnedBytes() + b->Pool()->PinnedBytes());

  xb->Release();
  xb.reset();
  b.reset();  // the last reference to b's pool
  EXPECT_EQ(cached->Value() - cached_base, a->Pool()->CachedBytes());
  EXPECT_EQ(pinned->Value() - pinned_base, a->Pool()->PinnedBytes());
  xa->Release();
  xa.reset();
  a.reset();
  EXPECT_EQ(cached->Value(), cached_base);
  EXPECT_EQ(pinned->Value(), pinned_base);
}

// A PreparedScript whose context is destroyed first keeps storing matrices
// in that context's pool — also while a newer context exists — and the pool
// stays alive after the script is dropped for as long as results bound to
// it are.
TEST(PoolOwnershipTest, PreparedScriptPoolOutlivesContextAndScript) {
  std::unique_ptr<PreparedScript> prepared;
  BufferPool* pool = nullptr;
  LineageCache* cache = nullptr;
  {
    auto ctx = SystemDSContext::Builder().Reuse(ReusePolicy::kFull).Build();
    auto p = ctx->Prepare("G = t(X) %*% X\ny = sum(G)\n",
                          {{"X", MatrixInfo(32, 32)}});
    ASSERT_TRUE(p.ok()) << p.status();
    prepared = std::move(*p);
    pool = ctx->Pool();  // co-owned by `prepared`
    cache = ctx->Cache();
  }
  auto other = SystemDSContext::Builder().Build();

  DataPtr x = std::make_shared<MatrixObject>(MatrixBlock::Dense(32, 32, 1.0));
  auto r1 = prepared->Execute(Inputs().Bind("X", x), Outputs("G", "y"));
  ASSERT_TRUE(r1.ok()) << r1.status();

  // The input and the lineage-cached G were stored by the script, so they
  // live in its pool: shrinking that pool spills them.
  pool->SetLimit(0);
  pool->Drain();
  EXPECT_FALSE(static_cast<MatrixObject*>(x.get())->IsCached());
  EXPECT_EQ(pool->CachedBytes(), 0);
  EXPECT_EQ(other->Pool()->CachedBytes(), 0);

  // Executing again reuses the spilled cached blocks.
  int64_t hits_before = cache->Stats().full_hits;
  auto r2 = prepared->Execute(Inputs().Bind("X", x), Outputs("G", "y"));
  ASSERT_TRUE(r2.ok()) << r2.status();
  EXPECT_GT(cache->Stats().full_hits, hits_before);
  EXPECT_DOUBLE_EQ(*r2->GetDouble("y"), *r1->GetDouble("y"));
  EXPECT_DOUBLE_EQ(*r1->GetDouble("y"), 32.0 * 32.0 * 32.0);

  // Drop the script (and with it the lineage cache). The results and the
  // input still hold matrices bound to the pool, so it must still work.
  prepared.reset();
  int64_t evictions = pool->EvictionCount();
  EXPECT_GT(evictions, 0);
  auto g = r1->GetMatrix("G");  // restores through the pool
  ASSERT_TRUE(g.ok()) << g.status();
  EXPECT_DOUBLE_EQ(g->Get(3, 5), 32.0);
  EXPECT_GE(pool->EvictionCount(), evictions);
}

// Two models prepared by two contexts with different pool limits, served by
// one ScoringService: admission reads each model's own pool, so pinning one
// context's pool full rejects only that model's requests.
TEST(PoolOwnershipTest, ServiceAdmissionReadsEachModelsOwnPool) {
  auto small = SystemDSContext::Builder().BufferPoolLimit(256 * 1024).Build();
  auto large = SystemDSContext::Builder().BufferPoolLimit(64 << 20).Build();
  auto ps = small->Prepare("y = sum(X)", {{"X", MatrixInfo(2, 2)}});
  auto pl = large->Prepare("y = sum(X)", {{"X", MatrixInfo(2, 2)}});
  ASSERT_TRUE(ps.ok() && pl.ok());

  serve::ServiceOptions sopt;
  sopt.num_workers = 1;
  sopt.admission_headroom_bytes = 128 * 1024;
  serve::ScoringService svc(sopt);
  ASSERT_TRUE(svc.RegisterModel("small",
                                std::shared_ptr<const PreparedScript>(
                                    std::move(*ps)),
                                {"y"})
                  .ok());
  ASSERT_TRUE(svc.RegisterModel("large",
                                std::shared_ptr<const PreparedScript>(
                                    std::move(*pl)),
                                {"y"})
                  .ok());
  auto request = [] {
    return Inputs().Matrix("X", MatrixBlock::Dense(2, 2, 1.0));
  };
  ASSERT_TRUE(svc.Score("small", request()).ok());
  ASSERT_TRUE(svc.Score("large", request()).ok());

  // Pin 4 x 80 KB in the small context's pool (limit 256 KB). Storing each
  // matrix in one of its script variables binds it to that pool.
  std::vector<std::shared_ptr<MatrixObject>> pinned;
  for (int i = 0; i < 4; ++i) {
    pinned.push_back(
        std::make_shared<MatrixObject>(MatrixBlock::Dense(100, 100, 1.0)));
    ASSERT_TRUE(small
                    ->Execute("n = nrow(P)", Inputs().Bind("P", pinned.back()),
                              Outputs("n"))
                    .ok());
    ASSERT_TRUE(pinned.back()->AcquireRead().ok());
  }
  EXPECT_LT(small->Pool()->Headroom(), 0);

  auto rejected = svc.Score("small", request());
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kOom);
  auto served = svc.Score("large", request());
  ASSERT_TRUE(served.ok()) << served.status();
  EXPECT_DOUBLE_EQ(*served->GetDouble("y"), 4.0);

  for (const auto& p : pinned) p->Release();
  EXPECT_TRUE(svc.Score("small", request()).ok());
}

}  // namespace
}  // namespace sysds
