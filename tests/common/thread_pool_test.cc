#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <future>
#include <mutex>
#include <numeric>
#include <utility>
#include <vector>

namespace sysds {
namespace {

TEST(ThreadPoolTest, SubmitExecutesTasks) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  std::promise<void> done;
  const int n = 50;
  std::atomic<int> remaining{n};
  for (int i = 0; i < n; ++i) {
    pool.Submit([&] {
      count.fetch_add(1);
      if (remaining.fetch_sub(1) == 1) done.set_value();
    });
  }
  done.get_future().wait();
  EXPECT_EQ(count.load(), n);
}

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(0, 1000, 7, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) hits[static_cast<size_t>(i)]++;
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForEmptyRange) {
  ThreadPool pool(2);
  bool called = false;
  pool.ParallelFor(5, 5, 4, [&](int64_t, int64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, ParallelForSingleChunk) {
  ThreadPool pool(2);
  std::vector<int> order;
  pool.ParallelFor(0, 10, 1, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) order.push_back(static_cast<int>(i));
  });
  std::vector<int> expect(10);
  std::iota(expect.begin(), expect.end(), 0);
  EXPECT_EQ(order, expect);
}

TEST(ThreadPoolTest, ZeroWorkerPoolRunsChunksInOrderOnCaller) {
  // A zero-worker pool (SYSDS_NUM_THREADS=1 gives Global() zero workers)
  // must still apply the same chunk decomposition, serially in chunk order.
  ThreadPool pool(0);
  std::vector<int> order;
  pool.ParallelFor(0, 20, 4, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) order.push_back(static_cast<int>(i));
  });
  std::vector<int> expect(20);
  std::iota(expect.begin(), expect.end(), 0);
  EXPECT_EQ(order, expect);
}

TEST(ThreadPoolTest, ZeroWorkerPoolDrainsSubmitsOnDestruction) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(0);
    for (int i = 0; i < 5; ++i) pool.Submit([&] { count.fetch_add(1); });
    // Nothing runs until someone helps...
    EXPECT_EQ(count.load(), 0);
    EXPECT_TRUE(pool.TryRunPendingTask());
    EXPECT_EQ(count.load(), 1);
  }
  // ...and the destructor drains the rest.
  EXPECT_EQ(count.load(), 5);
}

TEST(ThreadPoolTest, NestedParallelForFromWorkerDoesNotDeadlock) {
  // Kernels run inside parfor workers; nested ParallelFor calls from pool
  // threads perform helping joins (claim pending chunks) instead of waiting
  // on the saturated pool.
  ThreadPool& pool = ThreadPool::Global();
  std::atomic<int64_t> total{0};
  pool.ParallelFor(0, 8, 8, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) {
      pool.ParallelFor(0, 100, 4, [&](int64_t ib, int64_t ie) {
        total.fetch_add(ie - ib);
      });
    }
  });
  EXPECT_EQ(total.load(), 800);
}

TEST(ThreadPoolTest, ParallelForWeightedCoversRangeExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(500);
  std::vector<std::atomic<int>> chunk_of(500);
  pool.ParallelForWeighted(
      0, 500, 8, [](int64_t i) { return i % 7 + 1; },
      [&](int64_t b, int64_t e, int64_t c) {
        for (int64_t i = b; i < e; ++i) {
          hits[static_cast<size_t>(i)]++;
          chunk_of[static_cast<size_t>(i)] = static_cast<int>(c);
        }
      });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  // Chunk ids must be contiguous and non-decreasing over the range.
  for (size_t i = 1; i < chunk_of.size(); ++i) {
    int d = chunk_of[i].load() - chunk_of[i - 1].load();
    EXPECT_TRUE(d == 0 || d == 1);
  }
}

TEST(ThreadPoolTest, ParallelForWeightedIsolatesHeavyRow) {
  // One row carrying nearly all the weight must land in its own small chunk
  // so it cannot straggle a wide chunk.
  ThreadPool pool(2);
  std::vector<std::pair<int64_t, int64_t>> ranges(64, {-1, -1});
  int64_t used = 0;
  std::mutex mu;
  pool.ParallelForWeighted(
      0, 100, 8, [](int64_t i) { return i == 0 ? int64_t{100000} : int64_t{1}; },
      [&](int64_t b, int64_t e, int64_t c) {
        std::lock_guard<std::mutex> lock(mu);
        ranges[static_cast<size_t>(c)] = {b, e};
        used = std::max(used, c + 1);
      });
  // Row 0 exceeds every per-chunk target, so chunk 0 is exactly [0, 1).
  EXPECT_EQ(ranges[0].first, 0);
  EXPECT_EQ(ranges[0].second, 1);
  EXPECT_GE(used, 2);
}

TEST(ThreadPoolTest, PickChunksIgnoresThreadCount) {
  // Determinism across parallelism levels hinges on the chunk geometry being
  // a pure function of the row count: PickChunks sees only the rows, and
  // ParallelFor's thread cap never moves a chunk boundary.
  for (int64_t rows : {0, 1, 8, 15, 16, 60, 1000, 1 << 20}) {
    int64_t c = PickChunks(rows);
    EXPECT_GE(c, 1);
    EXPECT_LE(c, kMaxLoopChunks);
  }
  EXPECT_EQ(PickChunks(10), 1);  // tiny inputs stay serial
  ThreadPool pool(3);
  const int64_t rows = 1024;
  std::vector<std::pair<int64_t, int64_t>> want;
  for (int max_threads : {1, 2, 4, 0}) {
    std::mutex mu;
    std::vector<std::pair<int64_t, int64_t>> got;
    pool.ParallelFor(
        0, rows, PickChunks(rows),
        [&](int64_t b, int64_t e) {
          std::lock_guard<std::mutex> lock(mu);
          got.emplace_back(b, e);
        },
        nullptr, max_threads);
    std::sort(got.begin(), got.end());
    if (want.empty()) want = got;
    EXPECT_EQ(got, want) << "max_threads=" << max_threads;
  }
  EXPECT_EQ(static_cast<int64_t>(want.size()), PickChunks(rows));
}

TEST(ThreadPoolTest, PickChunksBoundedCapsScratch) {
  // 1M rows with a 32 MB per-chunk accumulator: the 64 MB budget allows two
  // chunks even though the unbounded policy would pick kMaxLoopChunks.
  EXPECT_EQ(PickChunks(1 << 20), kMaxLoopChunks);
  EXPECT_EQ(PickChunksBounded(1 << 20, int64_t{32} << 20), 2);
  EXPECT_EQ(PickChunksBounded(1 << 20, 8), kMaxLoopChunks);
  EXPECT_GE(PickChunksBounded(1 << 20, int64_t{1} << 40), 1);
}

TEST(ThreadPoolTest, DefaultParallelismPositive) {
  EXPECT_GE(DefaultParallelism(), 1);
}

}  // namespace
}  // namespace sysds
