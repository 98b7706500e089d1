#ifndef SYSDS_RUNTIME_BUFFERPOOL_BUFFER_POOL_H_
#define SYSDS_RUNTIME_BUFFERPOOL_BUFFER_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <list>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "common/status.h"

namespace sysds {

class MatrixObject;

/// Asynchronous, pressure-aware multi-level buffer pool (paper §2.3(3)).
///
/// Tracks the in-memory matrix working set against a byte limit and evicts
/// unpinned variables to local temp files when the limit is exceeded. Three
/// properties distinguish it from a synchronous LRU cache; none of them can
/// be switched off (prefetch aside), so there is one eviction path:
///
///  1. Write-behind eviction. Blocks are immutable once constructed, so an
///     object whose spill file has been written ("clean") can be evicted by
///     simply dropping the in-memory payload — no I/O on the caller path.
///     A background writer thread spills dirty unpinned blocks ahead of
///     need (via the crash-safe io::WriteAtomic path), turning most future
///     evictions into free page drops. Synchronous spilling only happens
///     as a backstop when memory exceeds the hard limit (1.25 times the
///     limit) faster than the writer can drain.
///
///  2. Scan-resistant victim selection. A 2Q-style policy keeps a
///     probationary FIFO (A1in) for objects seen once and a protected LRU
///     (Am) for objects re-referenced after admission. One large scan
///     (decompress, transformencode, data load) cycles through A1in without
///     displacing the protected working set.
///
///  3. Pressure export and hint-driven prefetch. Headroom() reports
///     limit - pinned - inflight-restore bytes, the real admission signal
///     consumed by the scoring service's kOom fast-reject and the
///     compression rewrite. Prefetch(obj) schedules an asynchronous restore
///     of a spilled object on the background thread; the compiler's loop
///     liveness pass drives it with each loop's invariant reads so cold
///     operands stream back in while the current iteration computes.
///
/// Object state machine (one MatrixObject, as seen by the pool):
///
///   resident-dirty --(write-behind / sync spill write)--> resident-clean
///   resident-clean --(evict: free drop)-----------------> spilled
///   resident-dirty --(sync evict above the hard limit)--> spilled
///   spilled --(AcquireRead miss / Prefetch)-------------> restoring
///   restoring --(read + checksum verify ok)-------------> resident-clean
///   restoring --(kCorrupt / kIoError)-------------------> spilled (file
///                                            kept, error retryable)
///
/// Restores are single-flight: concurrent acquires of one spilled object
/// coalesce onto one disk read (waiters block on the object's condition
/// variable, not on a second read). A restored object keeps its spill file
/// and stays clean, so re-evicting it is again a free drop.
///
/// One pool per SystemDSContext. A MatrixObject joins a pool through
/// MatrixObject::BindPool, which the ExecutionContext calls the first time
/// it stores the object; the object stays in that pool for life and holds
/// a shared reference to it, so the pool outlives every registered object.
/// The bound object calls Register/Touch/Unregister/NotePinned on its own
/// pool; eviction and write-behind call back into
/// MatrixObject::EvictTo/WriteBack/DropIfClean. Lock order is strictly
/// pool -> object; the object never calls the pool while holding its own
/// mutex.
class BufferPool {
 public:
  struct Options {
    int64_t limit_bytes = 0;
    /// Accept Prefetch() hints (loop-invariant reads restore ahead of
    /// need). When off, Prefetch() is a no-op: the demand-paging run that
    /// prefetch is measured against.
    bool prefetch = true;
  };

  explicit BufferPool(int64_t limit_bytes);
  explicit BufferPool(const Options& options);
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Registers (or re-registers after restore) a cached object of the given
  /// size and evicts others if over the limit.
  void Register(MatrixObject* obj, int64_t size_bytes);

  /// Marks the object referenced: promotes a re-referenced probationary
  /// entry to the protected queue, or moves a protected entry
  /// most-recently-used.
  void Touch(MatrixObject* obj);

  /// Removes the object from tracking (destruction or eviction). Blocks
  /// until any in-flight background writeback/prefetch touching the object
  /// has completed, so the caller may safely destroy it afterwards.
  void Unregister(MatrixObject* obj);

  /// Pin accounting from MatrixObject::AcquireRead/Release: `pinned` flips
  /// on the 0->1 and 1->0 pin-count transitions. Pinned bytes feed
  /// Headroom().
  void NotePinned(MatrixObject* obj, bool pinned);

  /// Hint-driven prefetch: schedules an asynchronous restore when `obj` is
  /// spilled, no restore is in flight, and Headroom() covers its size. No-op
  /// for resident objects, when prefetching is disabled, or while the pool
  /// is shutting down. The restored block is not evicted (below the hard
  /// limit) until it has been read.
  void Prefetch(MatrixObject* obj);

  /// Real admission headroom: limit - pinned - inflight-restore bytes.
  /// May be negative when pinned data alone exceeds the limit (the
  /// pinned-storm case a caller should fast-reject on).
  int64_t Headroom() const;

  /// True when admitting `upcoming_bytes` more live data would exceed the
  /// current headroom — the pressure signal for admission control and the
  /// compression rewrite.
  bool UnderPressure(int64_t upcoming_bytes) const;

  /// Blocks until the background queue is empty and no task is in flight
  /// (then re-runs one eviction pass so freshly-cleaned blocks can drop).
  /// Tests and benchmarks use this to observe the steady state.
  void Drain();

  int64_t CachedBytes() const;
  int64_t PinnedBytes() const;
  int64_t EvictionCount() const;
  int64_t limit_bytes() const;
  void SetLimit(int64_t limit_bytes);
  const Options& options() const { return options_; }

  /// Directory for spill files (created on demand).
  const std::string& SpillDir() const { return spill_dir_; }

  /// Stable per-object spill path: the spill file is written once and
  /// stays valid for the object's lifetime (blocks are immutable), so
  /// repeated evictions reuse it without rewriting.
  std::string SpillPathFor(const MatrixObject* obj) const;

 private:
  enum class TaskKind { kWriteback, kPrefetch };
  struct Task {
    TaskKind kind;
    MatrixObject* obj;
  };

  struct Entry {
    int64_t size = 0;
    // In a recency queue with a valid `pos`. False for ghost entries
    // created by Prefetch for spilled (untracked) objects.
    bool resident = false;
    std::list<MatrixObject*>::iterator pos;
    int queue = 0;        // 0 = A1in (probation), 1 = Am (protected)
    int64_t touches = 0;  // promotions happen on the second touch
    bool pinned = false;
    bool queued_writeback = false;
    // Background tasks currently holding a raw pointer to the object;
    // Unregister waits for this to reach zero.
    int inflight = 0;
    // Restore scheduled or running for this object (prefetch headroom).
    bool restoring = false;
    // Made resident by a prefetch and not read since: a victim of last
    // resort (only above the hard limit, after every other candidate), so
    // the background pass cannot drop it before the demand read it was
    // restored for.
    bool prefetched = false;
  };

  // All *Locked methods require mutex_ held. `caller_blocking` is true when
  // a foreground thread is waiting on the pass (feeds the stall histogram).
  void EvictIfNeededLocked(bool caller_blocking);
  // `protect_am` guards the protected queue against scan pressure: when the
  // probation queue is over its reservation but has no actionable victim
  // (everything queued behind the writer), return null and let the pass
  // wait for write-behind instead of flushing Am. Passed false above the
  // hard limit, where bounding memory beats preserving the working set.
  MatrixObject* PickVictimLocked(
      const std::unordered_set<MatrixObject*>& skip, bool protect_am);
  void RemoveEntryLocked(Entry* e);
  // Adds the change of cached/pinned bytes since the last call to the
  // process-wide gauges, which sum over every live pool.
  void PublishGaugesLocked();
  // Drops queued (not yet started) tasks referencing `obj` and resets the
  // matching entry flags. `e` may be null when the object has no entry.
  void PurgeTasksLocked(MatrixObject* obj, Entry* e);
  void EnqueueLocked(Task task, Entry* e);
  void BackgroundLoop();
  void RunWriteback(MatrixObject* obj, std::unique_lock<std::mutex>& lock);
  void RunPrefetch(MatrixObject* obj, std::unique_lock<std::mutex>& lock);

  const Options options_;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;      // background thread wakeup
  std::condition_variable inflight_cv_;  // Unregister / Drain wait
  int64_t limit_bytes_;
  int64_t cached_bytes_ = 0;
  int64_t pinned_bytes_ = 0;
  // This pool's share of the bufferpool.{cached,pinned}_bytes gauges.
  int64_t published_cached_ = 0;
  int64_t published_pinned_ = 0;
  int64_t inflight_restore_bytes_ = 0;
  int64_t evictions_ = 0;
  bool stopping_ = false;
  int inflight_tasks_ = 0;
  std::string spill_dir_;
  std::deque<Task> task_queue_;
  // queues_[0] = A1in probationary FIFO, queues_[1] = Am protected LRU.
  // Front = next eviction candidate.
  std::list<MatrixObject*> queues_[2];
  int64_t queue_bytes_[2] = {0, 0};
  std::unordered_map<MatrixObject*, Entry> entries_;
  std::thread background_;
};

}  // namespace sysds

#endif  // SYSDS_RUNTIME_BUFFERPOOL_BUFFER_POOL_H_
