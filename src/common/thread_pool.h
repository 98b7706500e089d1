#ifndef SYSDS_COMMON_THREAD_POOL_H_
#define SYSDS_COMMON_THREAD_POOL_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>

namespace sysds {

namespace obs {
class Histogram;
}  // namespace obs

/// Work-stealing task scheduler used by the multi-threaded kernels, the
/// parfor backend, the distributed-executor simulator, and the scoring
/// service. Each worker owns a lock-free Chase–Lev deque; idle workers steal
/// from victims in a randomized-but-seeded order, and external submitters go
/// through a small injection queue. Workers park on per-worker condition
/// variables (no global broadcast) and are woken one at a time.
///
/// ParallelFor is a blocking range helper with static chunking: the chunk
/// decomposition (ceil-divided contiguous ranges) is a pure function of
/// (begin, end, num_chunks), never of which thread runs which chunk, so
/// callers that accumulate per-chunk partials indexed by chunk id and merge
/// them in chunk order get bit-identical results regardless of scheduling
/// order or thread count. A thread blocked in ParallelFor performs a
/// *helping join*: it claims and executes pending chunks of its own join,
/// then any other pending task in the pool, and only parks when nothing is
/// runnable — so nested parallelism (a matrix kernel inside a parfor body or
/// a dist task) uses all cores instead of collapsing to serial execution.
class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for asynchronous execution. With a zero-worker pool the
  /// task only runs when some thread drains it via TryRunPendingTask (the
  /// blocking helpers RunRetryableTasks/ParallelFor do this) or at pool
  /// destruction.
  void Submit(std::function<void()> task);

  /// Runs fn(chunk_begin, chunk_end) over [begin, end) split into
  /// `num_chunks` contiguous chunks, blocking until all complete. The calling
  /// thread participates (it claims chunks starting at chunk 0), so a pool
  /// of N-1 workers executes with up to N threads. Empty chunks (possible
  /// when num_chunks does not divide the range) are skipped without calling
  /// fn. When `imbalance` (the caller's `scheduler.imbalance.<loop>`
  /// histogram) is set and the loop actually splits, per-chunk wall times
  /// feed it: percent excess of the slowest chunk over the mean.
  /// `max_threads` caps how many threads, the caller included, execute this
  /// loop's chunks (<= 0: the whole pool; 1: every chunk on the caller). It
  /// never changes the chunk geometry, and it does not bound joins that a
  /// chunk itself starts.
  void ParallelFor(int64_t begin, int64_t end, int64_t num_chunks,
                   const std::function<void(int64_t, int64_t)>& fn,
                   obs::Histogram* imbalance = nullptr,
                   int max_threads = 0);

  /// Cost-weighted variant for skewed inputs: splits [begin, end) into at
  /// most `num_chunks` contiguous chunks of approximately equal cumulative
  /// weight(i) (e.g. row nnz), then runs fn(chunk_begin, chunk_end,
  /// chunk_id). Chunk boundaries are a pure function of the weights and
  /// num_chunks — never of thread count or scheduling — so per-chunk-indexed
  /// reductions stay deterministic. Chunk ids are dense in [0, chunks_used).
  /// `max_threads` caps the threads as in ParallelFor.
  void ParallelForWeighted(int64_t begin, int64_t end, int64_t num_chunks,
                           const std::function<int64_t(int64_t)>& weight,
                           const std::function<void(int64_t, int64_t, int64_t)>& fn,
                           obs::Histogram* imbalance = nullptr,
                           int max_threads = 0);

  /// Pops or steals one pending task and runs it on the calling thread.
  /// Returns false when nothing was runnable. Blocking helpers use this to
  /// make progress instead of sleeping while the pool has work.
  bool TryRunPendingTask();

  size_t num_threads() const;

  /// True on a pool worker thread (any pool). Blocking helpers consult this
  /// to decide to help drain the pool instead of sleeping on a condition
  /// variable while holding a worker slot.
  static bool InCurrentWorker();

  /// Process-wide pool sized to DefaultParallelism() - 1 workers, so
  /// ParallelFor (caller participates) uses exactly DefaultParallelism()
  /// threads. Intentionally leaked to avoid shutdown ordering issues.
  static ThreadPool& Global();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Number of threads the runtime should use for data-parallel kernels,
/// honoring the SYSDS_NUM_THREADS environment variable.
int DefaultParallelism();

/// Minimum rows per chunk (tiny matrices stay serial) and the chunk-count
/// ceiling for the shared chunking policy below.
constexpr int64_t kMinChunkRows = 8;
constexpr int64_t kMaxLoopChunks = 64;

/// Shared static chunking policy for row-partitioned kernels. The chunk
/// count is a pure function of the row count, so per-chunk-indexed
/// reductions produce bit-identical results at any parallelism; the
/// thread budget is applied separately, as ParallelFor's `max_threads`.
/// Loops are oversubscribed (up to kMaxLoopChunks chunks regardless of
/// thread count); the work-stealing scheduler load-balances the extra chunks
/// dynamically. Deterministic reductions depend on every caller (fused and
/// unfused paths alike) using this single policy, so do not fork per-kernel
/// variants.
inline int64_t PickChunks(int64_t rows) {
  if (rows < kMinChunkRows * 2) return 1;
  return std::min<int64_t>(kMaxLoopChunks, rows / kMinChunkRows);
}

/// Chunking policy for kernels whose per-chunk scratch state is expensive
/// (e.g. tsmm holds an n*n accumulator per chunk): same deterministic
/// rows-only policy, additionally capped so total scratch stays within a
/// fixed budget. `bytes_per_chunk` is the scratch cost of one chunk.
inline int64_t PickChunksBounded(int64_t rows, int64_t bytes_per_chunk) {
  constexpr int64_t kScratchBudgetBytes = int64_t{64} << 20;  // 64 MB
  int64_t chunks = PickChunks(rows);
  if (bytes_per_chunk > 0) {
    int64_t cap = std::max<int64_t>(1, kScratchBudgetBytes / bytes_per_chunk);
    chunks = std::min(chunks, cap);
  }
  return chunks;
}

/// The `scheduler.imbalance.<loop>` histograms of the library's parallel
/// loops, resolved once; a loop passes its own as ParallelFor's
/// `imbalance`.
struct LoopImbalance {
  obs::Histogram* agg;
  obs::Histogram* compress;
  obs::Histogram* datagen;
  obs::Histogram* elementwise;
  obs::Histogram* fused;
  obs::Histogram* io_read;
  obs::Histogram* matmult;
  obs::Histogram* matmult_reduce;
  obs::Histogram* parfor;
  obs::Histogram* reorg;
  obs::Histogram* tlmm;
  obs::Histogram* transform;
  obs::Histogram* tsmm;
};
const LoopImbalance& Imbalance();

}  // namespace sysds

#endif  // SYSDS_COMMON_THREAD_POOL_H_
