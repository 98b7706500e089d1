#include "runtime/bufferpool/buffer_pool.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <unordered_set>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/controlprog/data.h"

namespace sysds {

namespace {
struct PoolMetrics {
  // Summed over every live pool: each adds the change of its own bytes.
  obs::Gauge* cached_bytes;
  obs::Gauge* pinned_bytes;
  obs::Counter* evictions;
  obs::Counter* free_drops;
  obs::Counter* sync_spills;
  obs::Counter* spilled_bytes;
  obs::Counter* writebacks;
  obs::Counter* writeback_bytes;
  obs::Counter* writeback_failures;
  obs::Counter* prefetch_issued;
  obs::Counter* prefetch_declined;
  obs::Counter* spill_retries;
  obs::Counter* spill_repins;
  obs::Histogram* evict_stall_ns;
  obs::Histogram* spill_ns;
};

PoolMetrics& Metrics() {
  auto& r = obs::MetricsRegistry::Get();
  static PoolMetrics m = {
      r.GetGauge("bufferpool.cached_bytes"),
      r.GetGauge("bufferpool.pinned_bytes"),
      r.GetCounter("bufferpool.evictions"),
      r.GetCounter("bufferpool.free_drops"),
      r.GetCounter("bufferpool.sync_spills"),
      r.GetCounter("bufferpool.spilled_bytes"),
      r.GetCounter("bufferpool.writebacks"),
      r.GetCounter("bufferpool.writeback_bytes"),
      r.GetCounter("fault.bufferpool.writeback_failures"),
      r.GetCounter("bufferpool.prefetch_issued"),
      r.GetCounter("bufferpool.prefetch_declined"),
      r.GetCounter("fault.bufferpool.spill_retries"),
      r.GetCounter("fault.bufferpool.spill_repins"),
      r.GetHistogram("bufferpool.evict_stall_ns"),
      r.GetHistogram("bufferpool.spill_ns"),
  };
  return m;
}

// Callers block on synchronous eviction only above limit * kHardLimitFactor;
// between the soft and the hard limit the background writer catches up.
constexpr double kHardLimitFactor = 1.25;
// Share of the limit reserved for the probationary A1in queue before its
// head is evicted in preference to the protected queue.
constexpr double kProbationFraction = 0.25;

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

BufferPool::BufferPool(int64_t limit_bytes)
    : BufferPool(Options{.limit_bytes = limit_bytes}) {}

BufferPool::BufferPool(const Options& options)
    : options_(options), limit_bytes_(options.limit_bytes) {
  spill_dir_ = (std::filesystem::temp_directory_path() /
                ("sysds_bufferpool_" + std::to_string(::getpid()) + "_" +
                 std::to_string(reinterpret_cast<uintptr_t>(this))))
                   .string();
  std::error_code ec;
  std::filesystem::create_directories(spill_dir_, ec);
  background_ = std::thread([this] { BackgroundLoop(); });
}

BufferPool::~BufferPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
    // Abandon queued tasks; the in-flight one (if any) finishes first.
    for (const Task& t : task_queue_) {
      auto it = entries_.find(t.obj);
      if (it == entries_.end()) continue;
      if (t.kind == TaskKind::kWriteback) it->second.queued_writeback = false;
      if (t.kind == TaskKind::kPrefetch && it->second.restoring) {
        it->second.restoring = false;
        inflight_restore_bytes_ -= it->second.size;
      }
    }
    task_queue_.clear();
  }
  work_cv_.notify_all();
  background_.join();
  Metrics().cached_bytes->Add(-published_cached_);
  Metrics().pinned_bytes->Add(-published_pinned_);
  std::error_code ec;
  std::filesystem::remove_all(spill_dir_, ec);
}

std::string BufferPool::SpillPathFor(const MatrixObject* obj) const {
  return spill_dir_ + "/m" + std::to_string(obj->ObjectId()) + ".bin";
}

void BufferPool::Register(MatrixObject* obj, int64_t size_bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(obj);
  bool pinned = false;
  if (it == entries_.end()) {
    it = entries_.emplace(obj, Entry{}).first;
    // A pin taken before the object had an entry (an AcquireRead racing
    // its MatrixObject::BindPool) was not recorded; take it from the object.
    pinned = obj->PinCount() > 0;
  }
  Entry& e = it->second;
  if (e.resident) {
    cached_bytes_ -= e.size;
    queue_bytes_[e.queue] -= e.size;
    queues_[e.queue].erase(e.pos);
    e.resident = false;
  }
  if (e.restoring) {
    // A demand restore raced with (and completed before) a scheduled
    // prefetch of the same object; release the prefetch's headroom claim —
    // the task itself will find the object resident and bail.
    inflight_restore_bytes_ -= e.size;
    e.restoring = false;
  }
  e.size = size_bytes;
  if (pinned) {
    e.pinned = true;
    pinned_bytes_ += size_bytes;
  }
  // Probationary A1in until the object proves re-reference.
  const int target = e.touches < 2 ? 0 : 1;
  e.queue = target;
  queues_[target].push_back(obj);
  e.pos = std::prev(queues_[target].end());
  e.resident = true;
  cached_bytes_ += size_bytes;
  queue_bytes_[target] += size_bytes;
  EvictIfNeededLocked(/*caller_blocking=*/true);
  PublishGaugesLocked();
}

void BufferPool::Touch(MatrixObject* obj) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(obj);
  if (it == entries_.end()) return;
  Entry& e = it->second;
  ++e.touches;
  e.prefetched = false;  // the demand read the prefetch was for
  if (!e.resident) return;  // ghost touch: remembered for re-admission
  if (e.queue == 0 && e.touches >= 2) {
    // Promote probation -> protected on re-reference.
    queues_[0].erase(e.pos);
    queue_bytes_[0] -= e.size;
    queues_[1].push_back(obj);
    e.pos = std::prev(queues_[1].end());
    e.queue = 1;
    queue_bytes_[1] += e.size;
  } else if (e.queue == 1) {
    // Move most-recently-used within the protected queue (FIFO order is
    // preserved for probationary entries: one touch does not reorder A1in).
    queues_[1].splice(queues_[1].end(), queues_[1], e.pos);
    e.pos = std::prev(queues_[1].end());
  }
}

void BufferPool::PurgeTasksLocked(MatrixObject* obj, Entry* e) {
  for (auto qit = task_queue_.begin(); qit != task_queue_.end();) {
    if (qit->obj == obj) {
      if (e != nullptr) {
        if (qit->kind == TaskKind::kPrefetch && e->restoring) {
          e->restoring = false;
          inflight_restore_bytes_ -= e->size;
        }
        if (qit->kind == TaskKind::kWriteback) e->queued_writeback = false;
      }
      qit = task_queue_.erase(qit);
    } else {
      ++qit;
    }
  }
}

void BufferPool::Unregister(MatrixObject* obj) {
  std::unique_lock<std::mutex> lock(mutex_);
  auto it = entries_.find(obj);
  Entry* e = it == entries_.end() ? nullptr : &it->second;
  // Drop queued background work referencing the object. Done even without
  // an entry: a queued task must never outlive its object (the queue holds
  // raw pointers).
  PurgeTasksLocked(obj, e);
  if (e == nullptr) return;
  // Wait out an in-flight writeback/prefetch: the background thread holds a
  // raw pointer to the object and the caller is about to destroy it. The
  // entry must be re-looked-up on every wake — while we wait, the writer's
  // own re-evict pass may free-drop the object and erase the entry.
  inflight_cv_.wait(lock, [&] {
    auto wit = entries_.find(obj);
    return wit == entries_.end() || wit->second.inflight == 0;
  });
  it = entries_.find(obj);
  if (it == entries_.end()) return;
  e = &it->second;
  if (e->restoring) {
    e->restoring = false;
    inflight_restore_bytes_ -= e->size;
  }
  RemoveEntryLocked(e);
  entries_.erase(it);
  PublishGaugesLocked();
}

void BufferPool::PublishGaugesLocked() {
  if (cached_bytes_ != published_cached_) {
    Metrics().cached_bytes->Add(cached_bytes_ - published_cached_);
    published_cached_ = cached_bytes_;
  }
  if (pinned_bytes_ != published_pinned_) {
    Metrics().pinned_bytes->Add(pinned_bytes_ - published_pinned_);
    published_pinned_ = pinned_bytes_;
  }
}

void BufferPool::RemoveEntryLocked(Entry* e) {
  if (e->resident) {
    cached_bytes_ -= e->size;
    queue_bytes_[e->queue] -= e->size;
    queues_[e->queue].erase(e->pos);
    e->resident = false;
  }
  if (e->pinned) {
    pinned_bytes_ -= e->size;
    e->pinned = false;
  }
}

void BufferPool::NotePinned(MatrixObject* obj, bool pinned) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(obj);
  if (it == entries_.end()) return;
  Entry& e = it->second;
  if (e.pinned == pinned) return;
  e.pinned = pinned;
  pinned_bytes_ += pinned ? e.size : -e.size;
  PublishGaugesLocked();
}

void BufferPool::Prefetch(MatrixObject* obj) {
  if (!options_.prefetch) return;
  // Sizing the object takes its lock: pool -> object nesting is the
  // sanctioned order.
  const bool resident = obj->HasPayload();
  const int64_t size = obj->EstimateSizeInBytes();
  std::lock_guard<std::mutex> lock(mutex_);
  if (stopping_ || resident) return;
  auto it = entries_.find(obj);
  if (it != entries_.end()) {
    const Entry& known = it->second;
    if (known.resident || known.restoring || known.inflight > 0 ||
        known.queued_writeback) {
      return;
    }
  }
  // Admit only what the headroom covers: a restore that does not fit would
  // only evict other blocks, or itself, before the demand read comes.
  const int64_t need = it == entries_.end() ? size : it->second.size;
  if (limit_bytes_ - pinned_bytes_ - inflight_restore_bytes_ < need) {
    Metrics().prefetch_declined->Add(1);
    return;
  }
  if (it == entries_.end()) {
    // Evicted objects are not tracked; re-admit a ghost entry so the
    // restore's headroom claim and single-flight state have a home.
    it = entries_.emplace(obj, Entry{}).first;
    it->second.size = size;
  }
  Entry& e = it->second;
  e.restoring = true;
  inflight_restore_bytes_ += e.size;
  task_queue_.push_back({TaskKind::kPrefetch, obj});
  Metrics().prefetch_issued->Add(1);
  work_cv_.notify_one();
}

int64_t BufferPool::Headroom() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return limit_bytes_ - pinned_bytes_ - inflight_restore_bytes_;
}

bool BufferPool::UnderPressure(int64_t upcoming_bytes) const {
  return Headroom() < upcoming_bytes;
}

void BufferPool::Drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  inflight_cv_.wait(lock, [&] {
    return task_queue_.empty() && inflight_tasks_ == 0;
  });
  EvictIfNeededLocked(/*caller_blocking=*/false);
  PublishGaugesLocked();
}

int64_t BufferPool::CachedBytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return cached_bytes_;
}

int64_t BufferPool::PinnedBytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return pinned_bytes_;
}

int64_t BufferPool::EvictionCount() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return evictions_;
}

int64_t BufferPool::limit_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return limit_bytes_;
}

void BufferPool::SetLimit(int64_t limit_bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  limit_bytes_ = limit_bytes;
  EvictIfNeededLocked(/*caller_blocking=*/true);
  PublishGaugesLocked();
}

MatrixObject* BufferPool::PickVictimLocked(
    const std::unordered_set<MatrixObject*>& skip, bool protect_am) {
  auto first_unskipped = [&](std::list<MatrixObject*>& q) -> MatrixObject* {
    for (MatrixObject* o : q) {
      if (skip.count(o) == 0) return o;
    }
    return nullptr;
  };
  // Evict probation first while it holds more than its reservation (or the
  // protected queue is empty), else the protected LRU head.
  const int64_t a1_target = static_cast<int64_t>(
      static_cast<double>(limit_bytes_) * kProbationFraction);
  MatrixObject* victim = nullptr;
  if (queue_bytes_[0] > a1_target || queues_[1].empty()) {
    victim = first_unskipped(queues_[0]);
    // Probation holds the overflow but every candidate is waiting on the
    // background writer: don't let a one-touch scan displace the protected
    // working set. The writer's own re-evict pass drains probation soon.
    if (victim == nullptr && protect_am && !queues_[1].empty()) {
      return nullptr;
    }
  }
  if (victim == nullptr) victim = first_unskipped(queues_[1]);
  if (victim == nullptr) victim = first_unskipped(queues_[0]);
  return victim;
}

void BufferPool::EvictIfNeededLocked(bool caller_blocking) {
  if (cached_bytes_ <= limit_bytes_) return;
  const int64_t t0 = caller_blocking ? NowNanos() : 0;
  const int64_t hard_limit = static_cast<int64_t>(
      static_cast<double>(limit_bytes_) * kHardLimitFactor);
  // Victims that cannot make progress this pass: pinned, mid-writeback,
  // scheduled for write-behind, or re-pinned after a failed spill.
  std::unordered_set<MatrixObject*> skip;
  // Prefetched blocks still waiting for their demand read are victims of
  // last resort: spared until nothing else can go and memory is above the
  // hard limit.
  std::vector<MatrixObject*> spared;
  bool spare_prefetched = true;
  // An evicted object leaves the pool's tracking until it is restored.
  auto forget = [&](MatrixObject* victim, Entry& e) {
    Metrics().evictions->Add(1);
    Metrics().spilled_bytes->Add(e.size);
    PurgeTasksLocked(victim, &e);
    RemoveEntryLocked(&e);
    entries_.erase(victim);
    ++evictions_;
  };
  while (cached_bytes_ > limit_bytes_) {
    MatrixObject* victim =
        PickVictimLocked(skip, /*protect_am=*/cached_bytes_ <= hard_limit);
    if (victim == nullptr) {
      if (!spare_prefetched || spared.empty() || cached_bytes_ <= hard_limit) {
        break;
      }
      spare_prefetched = false;
      for (MatrixObject* o : spared) skip.erase(o);
      continue;
    }
    if (!spare_prefetched && cached_bytes_ <= hard_limit) break;
    Entry& e = entries_[victim];
    if (e.prefetched && spare_prefetched) {
      skip.insert(victim);
      spared.push_back(victim);
      continue;
    }
    if (victim->PinCount() > 0 || !victim->HasPayload() || e.inflight > 0) {
      skip.insert(victim);
      continue;
    }
    // Clean blocks drop for free: the spill file already holds the bytes.
    if (victim->DropIfClean()) {
      forget(victim, e);
      Metrics().free_drops->Add(1);
      obs::Tracer::Instant("bufferpool", "evict_free");
      continue;
    }
    // Dirty victim. Under the hard limit, hand it to the background writer
    // and keep scanning for clean blocks; above it, spill synchronously —
    // the caller eats the write so memory stays bounded.
    if (cached_bytes_ <= hard_limit) {
      EnqueueLocked({TaskKind::kWriteback, victim}, &e);
      skip.insert(victim);
      continue;
    }
    StatusOr<bool> evicted = false;
    for (int attempt = 0; attempt < 2; ++attempt) {
      if (attempt > 0) Metrics().spill_retries->Add(1);
      SYSDS_SPAN("bufferpool", "spill");
      int64_t w0 = NowNanos();
      evicted = victim->EvictTo(SpillPathFor(victim));
      Metrics().spill_ns->Observe(NowNanos() - w0);
      if (evicted.ok()) break;
    }
    if (!evicted.ok()) {
      // Degrade: keep the block resident and move on. The pool may stay
      // over its limit until the spill device recovers.
      Metrics().spill_repins->Add(1);
      obs::Tracer::Instant("bufferpool", "spill_repin");
      skip.insert(victim);
      continue;
    }
    if (!*evicted) {  // raced with a concurrent pin or an in-flight write
      skip.insert(victim);
      continue;
    }
    forget(victim, e);
    Metrics().sync_spills->Add(1);
    obs::Tracer::Instant("bufferpool", "evict");
  }
  if (caller_blocking) {
    Metrics().evict_stall_ns->Observe(NowNanos() - t0);
  }
  PublishGaugesLocked();
}

void BufferPool::EnqueueLocked(Task task, Entry* e) {
  if (stopping_) return;
  if (task.kind == TaskKind::kWriteback) {
    if (e->queued_writeback || e->inflight > 0) return;
    e->queued_writeback = true;
  }
  task_queue_.push_back(task);
  work_cv_.notify_one();
}

void BufferPool::BackgroundLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    work_cv_.wait(lock, [&] { return stopping_ || !task_queue_.empty(); });
    if (stopping_) break;
    Task task = task_queue_.front();
    task_queue_.pop_front();
    auto it = entries_.find(task.obj);
    if (it == entries_.end()) continue;  // unregistered while queued
    Entry& e = it->second;
    ++e.inflight;
    ++inflight_tasks_;
    if (task.kind == TaskKind::kWriteback) {
      e.queued_writeback = false;
      RunWriteback(task.obj, lock);
    } else {
      RunPrefetch(task.obj, lock);
    }
    // `e` stays valid: Unregister cannot erase the entry while
    // e.inflight > 0 (it waits on inflight_cv_).
    --e.inflight;
    --inflight_tasks_;
    inflight_cv_.notify_all();
    if (cached_bytes_ > limit_bytes_) {
      EvictIfNeededLocked(/*caller_blocking=*/false);
    }
    PublishGaugesLocked();
  }
}

void BufferPool::RunWriteback(MatrixObject* obj,
                              std::unique_lock<std::mutex>& lock) {
  const std::string path = SpillPathFor(obj);
  lock.unlock();
  std::error_code ec;
  std::filesystem::create_directories(spill_dir_, ec);
  SYSDS_SPAN("bufferpool", "writeback");
  StatusOr<bool> wrote = false;
  for (int attempt = 0; attempt < 2; ++attempt) {
    if (attempt > 0) Metrics().spill_retries->Add(1);
    int64_t w0 = NowNanos();
    wrote = obj->WriteBack(path);
    Metrics().spill_ns->Observe(NowNanos() - w0);
    if (wrote.ok()) break;
  }
  lock.lock();
  auto it = entries_.find(obj);
  if (!wrote.ok()) {
    Metrics().writeback_failures->Add(1);
    obs::Tracer::Instant("bufferpool", "writeback_failed");
    return;
  }
  if (*wrote && it != entries_.end()) {
    Metrics().writebacks->Add(1);
    Metrics().writeback_bytes->Add(it->second.size);
  }
}

void BufferPool::RunPrefetch(MatrixObject* obj,
                             std::unique_lock<std::mutex>& lock) {
  // Claimed size is released here (restore either made the object resident
  // and accountable as cached bytes, or failed and freed the claim).
  lock.unlock();
  SYSDS_SPAN("bufferpool", "prefetch");
  obj->PrefetchRestore();
  int64_t size = obj->EstimateSizeInBytes();
  bool resident = obj->HasPayload();
  lock.lock();
  auto it = entries_.find(obj);
  if (it == entries_.end()) return;
  Entry& e = it->second;
  if (e.restoring) {
    e.restoring = false;
    inflight_restore_bytes_ -= e.size;
  }
  if (!resident || e.resident) {
    // Restore failed (silently: the next demand acquire surfaces the
    // error) or a demand restore re-registered the object concurrently.
    return;
  }
  // A demand acquire that waited on this restore may have pinned the
  // entry at its pre-restore size estimate.
  if (e.pinned) pinned_bytes_ += size - e.size;
  e.size = size;
  const int target = e.touches < 2 ? 0 : 1;
  e.queue = target;
  queues_[target].push_back(obj);
  e.pos = std::prev(queues_[target].end());
  e.resident = true;
  // Unless a demand acquire already consumed the prefetch.
  e.prefetched = obj->PrefetchPending();
  cached_bytes_ += size;
  queue_bytes_[target] += size;
}

}  // namespace sysds
