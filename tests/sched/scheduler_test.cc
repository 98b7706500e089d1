// Scheduler regression suite (ctest -L sched). Runs with SYSDS_NUM_THREADS=8
// (set in main below, before the global pool is created) so the
// work-stealing pool has 7 workers even on small CI machines: nested
// parallelism, stealing, and helping joins are all exercised for real.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <future>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "api/systemds_context.h"
#include "common/thread_pool.h"
#include "common/util.h"
#include "obs/metrics.h"
#include "runtime/compress/compressed_block.h"
#include "runtime/matrix/lib_agg.h"
#include "runtime/matrix/lib_datagen.h"
#include "runtime/matrix/lib_fused.h"
#include "runtime/matrix/lib_matmult.h"

namespace sysds {
namespace {

MatrixBlock Random(int64_t rows, int64_t cols, double sparsity,
                   uint64_t seed) {
  auto m = RandMatrix(rows, cols, -1.0, 1.0, sparsity, seed,
                      RandPdf::kUniform, 1);
  return *m;
}

// Bitwise equality: the scheduler must never change results, not even in
// the last ulp, so approximate comparison would hide exactly the bugs this
// suite exists to catch (merge-order or chunking dependent on scheduling).
::testing::AssertionResult BitIdentical(const MatrixBlock& a,
                                        const MatrixBlock& b) {
  if (a.Rows() != b.Rows() || a.Cols() != b.Cols()) {
    return ::testing::AssertionFailure() << "shape mismatch";
  }
  for (int64_t i = 0; i < a.Rows(); ++i) {
    for (int64_t j = 0; j < a.Cols(); ++j) {
      double va = a.Get(i, j), vb = b.Get(i, j);
      uint64_t x, y;
      std::memcpy(&x, &va, sizeof(x));
      std::memcpy(&y, &vb, sizeof(y));
      if (x != y) {
        return ::testing::AssertionFailure()
               << "bit mismatch at (" << i << "," << j << "): " << va
               << " vs " << vb;
      }
    }
  }
  return ::testing::AssertionSuccess();
}

uint64_t Bits(double v) {
  uint64_t x;
  std::memcpy(&x, &v, sizeof(x));
  return x;
}

const int kThreadCounts[] = {1, 2, 4, 8};

// A parfor body that runs a matrix kernel must fan out across workers
// instead of collapsing to serial execution (the pre-helping-join pool ran
// nested ParallelFor inline on the caller).
TEST(SchedulerTest, NestedParallelForUsesMultipleThreads) {
  ASSERT_GE(ThreadPool::Global().num_threads(), 1u);
  std::mutex mu;
  std::set<std::thread::id> inner_threads;
  ThreadPool::Global().ParallelFor(0, 4, 4, [&](int64_t ob, int64_t oe) {
    for (int64_t o = ob; o < oe; ++o) {
      ThreadPool::Global().ParallelFor(0, 16, 16, [&](int64_t b, int64_t e) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        std::lock_guard<std::mutex> lock(mu);
        (void)b;
        (void)e;
        inner_threads.insert(std::this_thread::get_id());
      });
    }
  });
  EXPECT_GE(inner_threads.size(), 2u)
      << "nested ParallelFor chunks all ran on one thread";
}

// Deep nesting with every worker occupied by a blocked join must complete:
// joins help (execute pending chunks) instead of sleeping while holding a
// worker slot. A hang here fails via the 60s watchdog instead of wedging
// the whole suite.
TEST(SchedulerTest, NestedJoinsCompleteUnderSaturation) {
  auto workload = [] {
    std::atomic<int64_t> total{0};
    ThreadPool::Global().ParallelFor(0, 16, 16, [&](int64_t ob, int64_t oe) {
      for (int64_t o = ob; o < oe; ++o) {
        ThreadPool::Global().ParallelFor(
            0, 16, 16, [&](int64_t b, int64_t e) {
              for (int64_t i = b; i < e; ++i) {
                ThreadPool::Global().ParallelFor(
                    0, 4, 4,
                    [&](int64_t ib, int64_t ie) { total += ie - ib; });
              }
            });
      }
    });
    return total.load();
  };
  std::packaged_task<int64_t()> task(workload);
  std::future<int64_t> done = task.get_future();
  std::thread runner(std::move(task));
  ASSERT_EQ(done.wait_for(std::chrono::seconds(60)),
            std::future_status::ready)
      << "nested joins deadlocked under saturation";
  EXPECT_EQ(done.get(), 16 * 16 * 4);
  runner.join();
}

TEST(SchedulerTest, MatMultBitIdenticalAcrossThreadCounts) {
  MatrixBlock ad = Random(130, 70, 1.0, 1);
  MatrixBlock bd = Random(70, 90, 1.0, 2);
  MatrixBlock as = Random(130, 70, 0.05, 3);
  as.ToSparse();
  MatrixBlock bs = Random(70, 90, 0.08, 4);
  bs.ToSparse();
  auto dense_ref = MatMult(ad, bd, 1);
  auto sd_ref = MatMult(as, bd, 1);
  auto ss_ref = MatMult(as, bs, 1);
  ASSERT_TRUE(dense_ref.ok() && sd_ref.ok() && ss_ref.ok());
  for (int t : kThreadCounts) {
    auto dense = MatMult(ad, bd, t);
    auto sd = MatMult(as, bd, t);
    auto ss = MatMult(as, bs, t);
    ASSERT_TRUE(dense.ok() && sd.ok() && ss.ok());
    EXPECT_TRUE(BitIdentical(*dense_ref, *dense)) << "dense t=" << t;
    EXPECT_TRUE(BitIdentical(*sd_ref, *sd)) << "sparse-dense t=" << t;
    EXPECT_TRUE(BitIdentical(*ss_ref, *ss)) << "sparse-sparse t=" << t;
  }
}

TEST(SchedulerTest, TsmmAndTlmmBitIdenticalAcrossThreadCounts) {
  MatrixBlock xd = Random(200, 40, 1.0, 5);
  MatrixBlock xs = Random(200, 40, 0.1, 6);
  xs.ToSparse();
  MatrixBlock bd = Random(200, 30, 1.0, 7);
  MatrixBlock bs = Random(200, 30, 0.1, 10);
  bs.ToSparse();
  for (const MatrixBlock* x : {&xd, &xs}) {
    auto left_ref = TransposeSelfMatMult(*x, true, 1);
    auto right_ref = TransposeSelfMatMult(*x, false, 1);
    auto tlmm_ref = TransposeLeftMatMult(*x, bd, 1);
    auto tlmm_sparse_ref = TransposeLeftMatMult(*x, bs, 1);
    ASSERT_TRUE(left_ref.ok() && right_ref.ok() && tlmm_ref.ok() &&
                tlmm_sparse_ref.ok());
    for (int t : kThreadCounts) {
      auto left = TransposeSelfMatMult(*x, true, t);
      auto right = TransposeSelfMatMult(*x, false, t);
      auto tlmm = TransposeLeftMatMult(*x, bd, t);
      auto tlmm_sparse = TransposeLeftMatMult(*x, bs, t);
      ASSERT_TRUE(left.ok() && right.ok() && tlmm.ok() && tlmm_sparse.ok());
      EXPECT_TRUE(BitIdentical(*left_ref, *left)) << "tsmm-left t=" << t;
      EXPECT_TRUE(BitIdentical(*right_ref, *right)) << "tsmm-right t=" << t;
      EXPECT_TRUE(BitIdentical(*tlmm_ref, *tlmm)) << "tlmm t=" << t;
      EXPECT_TRUE(BitIdentical(*tlmm_sparse_ref, *tlmm_sparse))
          << "tlmm sparse-B t=" << t;
    }
  }
}

TEST(SchedulerTest, AggregatesBitIdenticalAcrossThreadCounts) {
  MatrixBlock a = Random(500, 20, 1.0, 8);
  MatrixBlock s = Random(500, 20, 0.1, 9);
  s.ToSparse();
  for (const MatrixBlock* m : {&a, &s}) {
    for (AggOpCode op : {AggOpCode::kSum, AggOpCode::kMean, AggOpCode::kVar,
                         AggOpCode::kMin, AggOpCode::kMax}) {
      auto full_ref = AggregateAll(op, *m, 1);
      auto row_ref = AggregateRowCol(op, AggDirection::kRow, *m, 1);
      auto col_ref = AggregateRowCol(op, AggDirection::kCol, *m, 1);
      ASSERT_TRUE(full_ref.ok() && row_ref.ok() && col_ref.ok());
      for (int t : kThreadCounts) {
        auto full = AggregateAll(op, *m, t);
        auto row = AggregateRowCol(op, AggDirection::kRow, *m, t);
        auto col = AggregateRowCol(op, AggDirection::kCol, *m, t);
        ASSERT_TRUE(full.ok() && row.ok() && col.ok());
        EXPECT_EQ(Bits(*full_ref), Bits(*full)) << "full t=" << t;
        EXPECT_TRUE(BitIdentical(*row_ref, *row)) << "row t=" << t;
        EXPECT_TRUE(BitIdentical(*col_ref, *col)) << "col t=" << t;
      }
    }
  }
}

TEST(SchedulerTest, FusedPipelineBitIdenticalAcrossThreadCounts) {
  // (X - s0) / s1 then ^ s1, row-summed: the doc-grammar example pipeline.
  auto plan =
      FusedPlan::Parse("in1;sc2;kF;b-:i0,s0;b/:t0,s1;b^:t1,s1;out:t2;agg:uarsum");
  ASSERT_TRUE(plan.ok()) << plan.status();
  MatrixBlock x = Random(400, 16, 1.0, 10);
  std::vector<double> scalars = {0.5, 2.0};
  auto ref = ExecuteFusedPlan(*plan, {&x}, scalars, 1);
  ASSERT_TRUE(ref.ok()) << ref.status();
  for (int t : kThreadCounts) {
    auto r = ExecuteFusedPlan(*plan, {&x}, scalars, t);
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(ref->is_scalar, r->is_scalar);
    EXPECT_TRUE(BitIdentical(ref->matrix, r->matrix)) << "t=" << t;
  }
}

TEST(SchedulerTest, CompressedOpsBitIdenticalAcrossThreadCounts) {
  // Few distinct values per column so the planner picks dictionary groups.
  MatrixBlock m = MatrixBlock::Dense(600, 8);
  for (int64_t i = 0; i < m.Rows(); ++i) {
    for (int64_t j = 0; j < m.Cols(); ++j) {
      m.Set(i, j, static_cast<double>((i * 7 + j * 13) % 5));
    }
  }
  m.MarkNnzDirty();
  CompressedMatrixBlock c = CompressedMatrixBlock::Compress(m);
  MatrixBlock b = Random(8, 6, 1.0, 11);
  MatrixBlock dec_ref = c.Decompress(1);
  auto rmm_ref = c.RightMatMult(b, 1);
  ASSERT_TRUE(rmm_ref.ok());
  for (int t : kThreadCounts) {
    MatrixBlock dec = c.Decompress(t);
    auto rmm = c.RightMatMult(b, t);
    ASSERT_TRUE(rmm.ok());
    EXPECT_TRUE(BitIdentical(dec_ref, dec)) << "decompress t=" << t;
    EXPECT_TRUE(BitIdentical(*rmm_ref, *rmm)) << "rightmm t=" << t;
  }
}

// Same computation repeated under live stealing: the chunk->thread
// assignment varies run to run, the bits must not.
TEST(SchedulerTest, RepeatedRunsBitIdenticalUnderStealing) {
  MatrixBlock a = Random(130, 70, 0.1, 12);
  a.ToSparse();
  MatrixBlock b = Random(70, 90, 1.0, 13);
  auto first_mm = MatMult(a, b, 8);
  auto first_tsmm = TransposeSelfMatMult(b, true, 8);
  ASSERT_TRUE(first_mm.ok() && first_tsmm.ok());
  for (int rep = 0; rep < 10; ++rep) {
    auto mm = MatMult(a, b, 8);
    auto tsmm = TransposeSelfMatMult(b, true, 8);
    ASSERT_TRUE(mm.ok() && tsmm.ok());
    EXPECT_TRUE(BitIdentical(*first_mm, *mm)) << "rep=" << rep;
    EXPECT_TRUE(BitIdentical(*first_tsmm, *tsmm)) << "rep=" << rep;
  }
}

// A pathologically skewed sparse matrix (one dense row, the rest nearly
// empty) goes down the cost-weighted chunking path; results must match the
// serial run exactly.
TEST(SchedulerTest, SkewedSparseMatMultBitIdentical) {
  MatrixBlock a(400, 300, /*sparse=*/true);
  Xoshiro rng(14);
  for (int64_t j = 0; j < 300; ++j) {
    a.SparseData().Row(0).Append(j, rng.NextDouble(-1.0, 1.0));
  }
  for (int64_t i = 1; i < 400; ++i) {
    if (i % 7 == 0) {
      a.SparseData().Row(i).Append(i % 300, rng.NextDouble(-1.0, 1.0));
    }
  }
  a.MarkNnzDirty();
  MatrixBlock b = Random(300, 50, 1.0, 15);
  MatrixBlock b_tl = Random(400, 50, 1.0, 16);  // t(A)%*%B needs 400 rows
  auto ref = MatMult(a, b, 1);
  auto skew_tlmm_ref = TransposeLeftMatMult(a, b_tl, 1);
  ASSERT_TRUE(ref.ok() && skew_tlmm_ref.ok())
      << ref.status() << " " << skew_tlmm_ref.status();
  for (int t : kThreadCounts) {
    auto r = MatMult(a, b, t);
    auto tl = TransposeLeftMatMult(a, b_tl, t);
    ASSERT_TRUE(r.ok() && tl.ok());
    EXPECT_TRUE(BitIdentical(*ref, *r)) << "t=" << t;
    EXPECT_TRUE(BitIdentical(*skew_tlmm_ref, *tl)) << "t=" << t;
  }
}

TEST(SchedulerTest, SchedulerMetricsAdvance) {
  obs::Histogram* imb = obs::MetricsRegistry::Get().GetHistogram(
      "scheduler.imbalance.sched_test");
  obs::MetricsDiff diff;

  std::atomic<int64_t> sum{0};
  ThreadPool::Global().ParallelFor(
      0, 1024, 32,
      [&](int64_t b, int64_t e) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        sum += e - b;
      },
      imb);
  EXPECT_EQ(sum.load(), 1024);
  obs::MetricsSnapshot d = diff.Delta();
  EXPECT_GT(d.Counter("scheduler.chunks"), 0);
  EXPECT_GE(d.Counter("scheduler.tasks"), 0);
  EXPECT_GT(d.Histogram("scheduler.imbalance.sched_test").count, 0);
}

// Distinct threads that executed the chunks of one 64-chunk loop capped at
// `max_threads`. Chunks sleep so that idle workers would join the loop if
// the cap let them.
std::set<std::thread::id> LoopThreads(int max_threads, bool weighted) {
  std::mutex mu;
  std::set<std::thread::id> ids;
  auto body = [&] {
    std::this_thread::sleep_for(std::chrono::microseconds(300));
    std::lock_guard<std::mutex> lock(mu);
    ids.insert(std::this_thread::get_id());
  };
  if (weighted) {
    ThreadPool::Global().ParallelForWeighted(
        0, 64, 64, [](int64_t) { return 1; },
        [&](int64_t, int64_t, int64_t) { body(); }, nullptr, max_threads);
  } else {
    ThreadPool::Global().ParallelFor(
        0, 64, 64, [&](int64_t, int64_t) { body(); }, nullptr, max_threads);
  }
  return ids;
}

TEST(SchedulerTest, MaxThreadsOneRunsEveryChunkOnCaller) {
  for (bool weighted : {false, true}) {
    std::set<std::thread::id> ids = LoopThreads(1, weighted);
    ASSERT_EQ(ids.size(), 1u) << "weighted=" << weighted;
    EXPECT_EQ(*ids.begin(), std::this_thread::get_id());
  }
}

TEST(SchedulerTest, MaxThreadsTwoUsesAtMostTwoThreads) {
  // Two or more workers, so an uncapped loop would use three threads or more.
  ASSERT_GE(ThreadPool::Global().num_threads(), 2u);
  for (int rep = 0; rep < 5; ++rep) {
    for (bool weighted : {false, true}) {
      EXPECT_LE(LoopThreads(2, weighted).size(), 2u)
          << "weighted=" << weighted << " rep=" << rep;
    }
  }
}

// Runs every task already queued on the pool, so that counter deltas taken
// afterwards only see work started by the code under test.
void DrainPool() {
  while (ThreadPool::Global().TryRunPendingTask()) {
  }
}

// A NumThreads(1) context never hands its kernels' chunks to pool workers:
// nothing is queued, so no worker runs or steals a task while its gemm and
// tsmm execute.
TEST(SchedulerTest, NumThreadsOneContextRunsKernelsOnCaller) {
  auto ctx = SystemDSContext::Builder().NumThreads(1).Build();
  MatrixBlock x = Random(2000, 100, 1.0, 20);
  MatrixBlock w = Random(100, 10, 1.0, 21);
  DrainPool();
  obs::MetricsDiff diff;
  auto r = ctx->Execute("G = t(X) %*% X\nP = X %*% W\n",
                        Inputs().Matrix("X", x).Matrix("W", w),
                        Outputs("G", "P"));
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(diff.Counter("scheduler.tasks"), 0);
  EXPECT_EQ(diff.Counter("scheduler.steals"), 0);
  auto g = r->GetMatrix("G");
  auto p = r->GetMatrix("P");
  ASSERT_TRUE(g.ok() && p.ok());
  EXPECT_TRUE(BitIdentical(*g, *TransposeSelfMatMult(x, true, 1)));
  EXPECT_TRUE(BitIdentical(*p, *MatMult(x, w, 1)));
}

// One script over lmDS, a fused elementwise+aggregate chain and rand gives
// the same bits at every context thread budget.
TEST(SchedulerTest, ContextResultsBitIdenticalAcrossNumThreads) {
  const std::string script =
      "X = rand(rows=5000, cols=40, min=-1, max=1, seed=7)\n"
      "w = rand(rows=40, cols=1, seed=8)\n"
      "y = X %*% w + 0.01 * rand(rows=5000, cols=1, seed=9)\n"
      "B = lmDS(X, y, 0, 0.001)\n"
      "R = rowSums(((X - 0.5) / 0.29)^2)\n"
      "s = sum(R)\n";
  const char* kMatrices[] = {"X", "B", "R"};
  std::vector<std::vector<MatrixBlock>> matrices;
  std::vector<double> sums;
  for (int t : {1, 2, 4}) {
    auto ctx = SystemDSContext::Builder().NumThreads(t).Build();
    obs::MetricsDiff diff;
    auto r = ctx->Execute(script, Inputs(), Outputs("X", "B", "R", "s"));
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_GT(diff.Counter("fusion.regions"), 0) << "no fused region, t=" << t;
    matrices.emplace_back();
    for (const char* name : kMatrices) {
      auto m = r->GetMatrix(name);
      ASSERT_TRUE(m.ok()) << name << ": " << m.status();
      matrices.back().push_back(std::move(*m));
    }
    auto sum = r->GetDouble("s");
    ASSERT_TRUE(sum.ok()) << sum.status();
    sums.push_back(*sum);
  }
  for (size_t i = 1; i < matrices.size(); ++i) {
    for (size_t k = 0; k < matrices[i].size(); ++k) {
      EXPECT_TRUE(BitIdentical(matrices[0][k], matrices[i][k]))
          << kMatrices[k] << " run " << i;
    }
    EXPECT_EQ(Bits(sums[0]), Bits(sums[i])) << "run " << i;
  }
}

}  // namespace
}  // namespace sysds

// Custom main: pin the pool size before anything touches
// ThreadPool::Global() so the suite exercises real multi-worker scheduling
// regardless of the machine it runs on. setenv(..., 0) keeps an explicit
// caller-provided SYSDS_NUM_THREADS.
int main(int argc, char** argv) {
  setenv("SYSDS_NUM_THREADS", "8", /*overwrite=*/0);
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
