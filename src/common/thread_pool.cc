#include "common/thread_pool.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace sysds {

namespace {

// Identity of the current thread within the scheduler. t_worker_impl /
// t_worker_id tie a worker thread to the pool whose deque it owns;
// t_on_worker_thread backs InCurrentWorker() and stays set for the worker
// thread's whole lifetime (a worker is always "in" the pool, whether it is
// running a task or claiming chunks of a join it helps with).
thread_local void* t_worker_impl = nullptr;
thread_local int t_worker_id = -1;
thread_local bool t_on_worker_thread = false;

// Per-thread xorshift state for the randomized-but-seeded steal order.
// Workers seed deterministically from their worker index; external helper
// threads draw a seed from a global counter on first use.
thread_local uint64_t t_steal_rng = 0;
std::atomic<uint64_t> g_helper_seed{0x9e3779b97f4a7c15ull};

inline uint64_t NextRand() {
  if (t_steal_rng == 0) {
    t_steal_rng = g_helper_seed.fetch_add(0xbf58476d1ce4e5b9ull,
                                          std::memory_order_relaxed) |
                  1;
  }
  uint64_t x = t_steal_rng;
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  t_steal_rng = x;
  return x;
}

struct SchedulerMetrics {
  // Injection-queue entries, summed over every live pool.
  obs::Gauge* queue_depth;
  obs::Gauge* active_workers;
  obs::Counter* tasks;
  obs::Counter* steals;
  obs::Counter* chunks;
  obs::Counter* helped;
};

SchedulerMetrics& Metrics() {
  auto& r = obs::MetricsRegistry::Get();
  static SchedulerMetrics m = {
      r.GetGauge("threadpool.queue_depth"),
      r.GetGauge("threadpool.active_workers"),
      r.GetCounter("scheduler.tasks"),
      r.GetCounter("scheduler.steals"),
      r.GetCounter("scheduler.chunks"),
      r.GetCounter("scheduler.helped"),
  };
  return m;
}

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline void UpdateMax(std::atomic<int64_t>* target, int64_t value) {
  int64_t prev = target->load(std::memory_order_relaxed);
  while (value > prev &&
         !target->compare_exchange_weak(prev, value,
                                        std::memory_order_relaxed)) {
  }
}

// Records the per-loop chunk imbalance — percent excess of the slowest chunk
// over the mean chunk time — in the loop's imbalance histogram.
void ObserveImbalance(obs::Histogram* imbalance, int64_t executed,
                      int64_t sum_ns, int64_t max_ns) {
  if (imbalance == nullptr || executed < 2) return;
  int64_t mean = sum_ns / executed;
  if (mean <= 0) return;
  imbalance->Observe((max_ns - mean) * 100 / mean);
}

}  // namespace

struct ThreadPool::Impl {
  // A unit of queued work. Run() consumes one queued reference: SubmitJobs
  // delete themselves, JoinJob entries drop one of their counted refs.
  class Job {
   public:
    virtual ~Job() = default;
    virtual void Run() = 0;
  };

  class SubmitJob : public Job {
   public:
    explicit SubmitJob(std::function<void()> fn) : fn_(std::move(fn)) {}
    void Run() override {
      fn_();
      delete this;
    }

   private:
    std::function<void()> fn_;
  };

  // Chase–Lev work-stealing deque. The owning worker pushes and pops at the
  // bottom; thieves CAS the top. All cross-thread orderings use seq_cst on
  // the top/bottom atomics directly (no standalone fences — ThreadSanitizer
  // does not model atomic_thread_fence, and the classic correctness proof
  // needs sequential consistency for the pop-side bottom-store / top-load
  // pair anyway). Slots are atomics so concurrent slot reads by thieves are
  // well-defined; a thief whose top CAS fails discards the value it read.
  class Deque {
   public:
    Deque() : array_(new Array(kInitialCap)) {}
    ~Deque() {
      delete array_.load(std::memory_order_relaxed);
      for (Array* a : retired_) delete a;
    }

    // Owner only.
    void Push(Job* job) {
      int64_t b = bottom_.load(std::memory_order_relaxed);
      int64_t t = top_.load(std::memory_order_acquire);
      Array* a = array_.load(std::memory_order_relaxed);
      if (b - t >= a->cap) a = Grow(a, t, b);
      a->slot(b).store(job, std::memory_order_relaxed);
      bottom_.store(b + 1, std::memory_order_seq_cst);
    }

    // Owner only.
    Job* Pop() {
      int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
      Array* a = array_.load(std::memory_order_relaxed);
      bottom_.store(b, std::memory_order_seq_cst);
      int64_t t = top_.load(std::memory_order_seq_cst);
      if (t > b) {
        bottom_.store(b + 1, std::memory_order_relaxed);
        return nullptr;
      }
      Job* job = a->slot(b).load(std::memory_order_relaxed);
      if (t == b) {
        // Last element: race the thieves for it.
        if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                          std::memory_order_seq_cst)) {
          job = nullptr;
        }
        bottom_.store(b + 1, std::memory_order_relaxed);
      }
      return job;
    }

    // Any thread. May return nullptr spuriously under contention (the CAS
    // lost to another thief or the owner); callers just try elsewhere.
    Job* Steal() {
      int64_t t = top_.load(std::memory_order_seq_cst);
      int64_t b = bottom_.load(std::memory_order_seq_cst);
      if (t >= b) return nullptr;
      Array* a = array_.load(std::memory_order_acquire);
      Job* job = a->slot(t).load(std::memory_order_relaxed);
      if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                        std::memory_order_relaxed)) {
        return nullptr;
      }
      return job;
    }

    bool Empty() const {
      return top_.load(std::memory_order_acquire) >=
             bottom_.load(std::memory_order_acquire);
    }

   private:
    static constexpr int64_t kInitialCap = 256;

    struct Array {
      explicit Array(int64_t c)
          : cap(c), mask(c - 1), slots(new std::atomic<Job*>[c]) {}
      ~Array() { delete[] slots; }
      std::atomic<Job*>& slot(int64_t i) { return slots[i & mask]; }
      const int64_t cap;
      const int64_t mask;
      std::atomic<Job*>* const slots;
    };

    Array* Grow(Array* old, int64_t t, int64_t b) {
      Array* bigger = new Array(old->cap * 2);
      for (int64_t i = t; i < b; ++i) {
        bigger->slot(i).store(old->slot(i).load(std::memory_order_relaxed),
                              std::memory_order_relaxed);
      }
      array_.store(bigger, std::memory_order_release);
      // Thieves may still hold a pointer to the old array mid-steal; retire
      // it until the deque itself dies instead of freeing it now.
      retired_.push_back(old);
      return bigger;
    }

    std::atomic<int64_t> top_{0};
    std::atomic<int64_t> bottom_{0};
    std::atomic<Array*> array_;
    std::vector<Array*> retired_;  // owner-only
  };

  // A blocking ParallelFor join. Chunks are claimed via the `next` ticket
  // counter, so the chunk -> range mapping is fixed by the geometry while the
  // chunk -> thread mapping is free. Heap-allocated and reference-counted:
  // one ref for the caller plus one per queued entry, so stale entries that
  // surface after the join completed claim nothing and merely drop their ref.
  class JoinJob : public Job {
   public:
    Impl* impl = nullptr;
    int64_t begin = 0;
    int64_t end = 0;
    int64_t chunk_size = 0;             // uniform mode (bounds == nullptr)
    const int64_t* bounds = nullptr;    // weighted mode: bounds[c], bounds[c+1]
    int64_t num_chunks = 0;
    const std::function<void(int64_t, int64_t)>* fn = nullptr;
    const std::function<void(int64_t, int64_t, int64_t)>* wfn = nullptr;
    bool timed = false;

    std::atomic<int64_t> next{0};
    std::atomic<int64_t> done{0};
    std::atomic<int64_t> refs{1};
    std::atomic<int64_t> executed{0};
    std::atomic<int64_t> sum_ns{0};
    std::atomic<int64_t> max_ns{0};

    std::mutex m;
    std::condition_variable cv;
    bool complete = false;

    void ChunkBounds(int64_t c, int64_t* b, int64_t* e) const {
      if (bounds != nullptr) {
        *b = bounds[c];
        *e = bounds[c + 1];
      } else {
        *b = begin + c * chunk_size;
        *e = std::min(end, *b + chunk_size);
      }
    }

    // Claims and executes chunks until every chunk is claimed. Never blocks.
    void RunChunks() {
      for (;;) {
        int64_t c = next.fetch_add(1, std::memory_order_relaxed);
        if (c >= num_chunks) return;
        int64_t b, e;
        ChunkBounds(c, &b, &e);
        if (b < e) {
          if (timed) {
            int64_t t0 = NowNs();
            Call(b, e, c);
            int64_t dt = NowNs() - t0;
            sum_ns.fetch_add(dt, std::memory_order_relaxed);
            UpdateMax(&max_ns, dt);
          } else {
            Call(b, e, c);
          }
          executed.fetch_add(1, std::memory_order_relaxed);
          Metrics().chunks->Add(1);
        }
        // acq_rel chain: the thread that observes done == num_chunks (here
        // or in the caller's acquire load) sees every chunk's writes.
        if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == num_chunks) {
          std::lock_guard<std::mutex> lock(m);
          complete = true;
          // Notify while holding the lock: the caller may destroy the job
          // the instant it observes `complete` with its own ref.
          cv.notify_all();
        }
      }
    }

    void Run() override {
      RunChunks();
      DecRef();
    }

    void DecRef() {
      if (refs.fetch_sub(1, std::memory_order_acq_rel) == 1) delete this;
    }

   private:
    void Call(int64_t b, int64_t e, int64_t c) {
      if (wfn != nullptr) {
        (*wfn)(b, e, c);
      } else {
        (*fn)(b, e);
      }
    }
  };

  struct Worker {
    Deque deque;
    std::mutex m;
    std::condition_variable cv;
    bool notified = false;
  };

  explicit Impl(size_t num_threads) {
    workers_.reserve(num_threads);
    for (size_t i = 0; i < num_threads; ++i) {
      workers_.emplace_back(new Worker());
    }
    threads_.reserve(num_threads);
    for (size_t i = 0; i < num_threads; ++i) {
      threads_.emplace_back([this, i] { WorkerLoop(static_cast<int>(i)); });
    }
  }

  bool OnThisPoolsWorker() const {
    return t_worker_impl == this && t_worker_id >= 0;
  }

  // Enqueues `n` references to `job`: onto the calling worker's own deque
  // when called from a worker of this pool, else onto the injection queue.
  // Wakes up to `n` parked workers. Push-then-wake plus the park_mu_ mutex
  // ordering in WorkerLoop rules out missed wakeups.
  void PushJob(Job* job, int64_t n) {
    if (OnThisPoolsWorker()) {
      Deque& d = workers_[t_worker_id]->deque;
      for (int64_t i = 0; i < n; ++i) d.Push(job);
    } else {
      std::lock_guard<std::mutex> lock(inject_mu_);
      for (int64_t i = 0; i < n; ++i) inject_.push_back(job);
      inject_size_.store(static_cast<int64_t>(inject_.size()),
                         std::memory_order_release);
      Metrics().queue_depth->Add(n);
    }
    Wake(n);
  }

  void Wake(int64_t n) {
    for (; n > 0; --n) {
      int id;
      {
        std::lock_guard<std::mutex> lock(park_mu_);
        if (parked_.empty()) return;
        id = parked_.back();
        parked_.pop_back();
      }
      Worker& w = *workers_[id];
      {
        std::lock_guard<std::mutex> lock(w.m);
        w.notified = true;
      }
      w.cv.notify_one();
    }
  }

  bool HasWork() const {
    if (inject_size_.load(std::memory_order_acquire) > 0) return true;
    for (const auto& w : workers_) {
      if (!w->deque.Empty()) return true;
    }
    return false;
  }

  // One dequeue attempt: own deque first (workers), then the injection
  // queue, then one randomized sweep over the other workers' deques.
  Job* FindJob(int self) {
    if (self >= 0) {
      if (Job* job = workers_[self]->deque.Pop()) return job;
    }
    if (inject_size_.load(std::memory_order_acquire) > 0) {
      std::lock_guard<std::mutex> lock(inject_mu_);
      if (!inject_.empty()) {
        Job* job = inject_.front();
        inject_.pop_front();
        inject_size_.store(static_cast<int64_t>(inject_.size()),
                           std::memory_order_relaxed);
        Metrics().queue_depth->Add(-1);
        return job;
      }
    }
    size_t w = workers_.size();
    if (w == 0) return nullptr;
    size_t start = static_cast<size_t>(NextRand() % w);
    for (size_t k = 0; k < w; ++k) {
      size_t victim = start + k;
      if (victim >= w) victim -= w;
      if (static_cast<int>(victim) == self) continue;
      if (Job* job = workers_[victim]->deque.Steal()) {
        Metrics().steals->Add(1);
        return job;
      }
    }
    return nullptr;
  }

  bool TryRunOne() {
    Job* job = FindJob(OnThisPoolsWorker() ? t_worker_id : -1);
    if (job == nullptr) return false;
    Metrics().tasks->Add(1);
    job->Run();
    return true;
  }

  void WorkerLoop(int id) {
    obs::Tracer::SetCurrentThreadName("pool-worker-" + std::to_string(id));
    t_worker_impl = this;
    t_worker_id = id;
    t_on_worker_thread = true;
    t_steal_rng = ((static_cast<uint64_t>(id) + 2) * 0x9e3779b97f4a7c15ull) | 1;
    Worker& me = *workers_[id];
    for (;;) {
      if (Job* job = FindJob(id)) {
        Metrics().tasks->Add(1);
        Metrics().active_workers->Add(1);
        job->Run();
        Metrics().active_workers->Add(-1);
        continue;
      }
      if (stop_.load(std::memory_order_acquire)) return;
      // Park: register, then re-check for work under the worker's own
      // mutex. A producer either saw us in parked_ (it will set notified)
      // or pushed before we registered (the predicate's HasWork sees it —
      // the producer's park_mu_ critical section happened before ours).
      {
        std::lock_guard<std::mutex> lock(park_mu_);
        parked_.push_back(id);
      }
      {
        std::unique_lock<std::mutex> lk(me.m);
        me.cv.wait(lk, [&] {
          return me.notified || stop_.load(std::memory_order_acquire) ||
                 HasWork();
        });
        me.notified = false;
      }
      // Deregister if a producer did not already pop us (waking via stop_ or
      // HasWork leaves the entry behind; a leftover pop by a producer later
      // just costs one spurious wakeup).
      {
        std::lock_guard<std::mutex> lock(park_mu_);
        for (size_t i = parked_.size(); i-- > 0;) {
          if (parked_[i] == id) {
            parked_.erase(parked_.begin() + static_cast<ptrdiff_t>(i));
            break;
          }
        }
      }
    }
  }

  // Runs a chunked loop to completion on the calling thread plus any workers
  // that pick up queued entries. The caller claims chunks immediately; once
  // all chunks are claimed it *helps* — runs other pending tasks — and only
  // parks on the join condition variable when the pool is drained. Each
  // queued entry admits at most one more thread, so publishing at most
  // max_threads - 1 entries caps the threads on this loop.
  void RunJoin(JoinJob* job, obs::Histogram* imbalance, int max_threads) {
    int64_t entries = std::min<int64_t>(
        job->num_chunks - 1, static_cast<int64_t>(workers_.size()));
    if (max_threads > 0) entries = std::min<int64_t>(entries, max_threads - 1);
    if (entries > 0) {
      job->refs.fetch_add(entries, std::memory_order_relaxed);
      PushJob(job, entries);
    }
    job->RunChunks();
    for (;;) {
      {
        std::lock_guard<std::mutex> lock(job->m);
        if (job->complete) break;
      }
      if (TryRunOne()) {
        Metrics().helped->Add(1);
        continue;
      }
      std::unique_lock<std::mutex> lk(job->m);
      job->cv.wait(lk, [&] { return job->complete; });
      break;
    }
    ObserveImbalance(imbalance, job->executed.load(std::memory_order_relaxed),
                     job->sum_ns.load(std::memory_order_relaxed),
                     job->max_ns.load(std::memory_order_relaxed));
    job->DecRef();
  }

  // Zero-worker (or max_threads == 1) fast path: execute the identical chunk
  // decomposition serially, in chunk order, on the calling thread.
  template <typename CallFn>
  void RunSerialChunks(const JoinJob& geom, obs::Histogram* imbalance,
                       CallFn call) {
    int64_t executed = 0, sum_ns = 0, max_ns = 0;
    for (int64_t c = 0; c < geom.num_chunks; ++c) {
      int64_t b, e;
      geom.ChunkBounds(c, &b, &e);
      if (b >= e) continue;
      if (imbalance != nullptr) {
        int64_t t0 = NowNs();
        call(b, e, c);
        int64_t dt = NowNs() - t0;
        sum_ns += dt;
        max_ns = std::max(max_ns, dt);
      } else {
        call(b, e, c);
      }
      ++executed;
      Metrics().chunks->Add(1);
    }
    ObserveImbalance(imbalance, executed, sum_ns, max_ns);
  }

  void DrainForShutdown() {
    for (;;) {
      Job* job = nullptr;
      {
        std::lock_guard<std::mutex> lock(inject_mu_);
        if (!inject_.empty()) {
          job = inject_.front();
          inject_.pop_front();
          inject_size_.store(static_cast<int64_t>(inject_.size()),
                             std::memory_order_relaxed);
          Metrics().queue_depth->Add(-1);
        }
      }
      if (job == nullptr) {
        for (auto& w : workers_) {
          if ((job = w->deque.Steal()) != nullptr) break;
        }
      }
      if (job == nullptr) return;
      job->Run();
    }
  }

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;

  std::mutex inject_mu_;
  std::deque<Job*> inject_;
  std::atomic<int64_t> inject_size_{0};

  std::mutex park_mu_;
  std::vector<int> parked_;

  std::atomic<bool> stop_{false};
};

ThreadPool::ThreadPool(size_t num_threads) : impl_(new Impl(num_threads)) {}

ThreadPool::~ThreadPool() {
  impl_->stop_.store(true, std::memory_order_release);
  for (auto& w : impl_->workers_) {
    std::lock_guard<std::mutex> lock(w->m);
    w->notified = true;
  }
  for (auto& w : impl_->workers_) w->cv.notify_all();
  for (auto& t : impl_->threads_) t.join();
  // Matches the old pool's drain-before-exit semantics: anything still
  // queued (possible with zero workers) runs inline here.
  impl_->DrainForShutdown();
}

bool ThreadPool::InCurrentWorker() { return t_on_worker_thread; }

size_t ThreadPool::num_threads() const { return impl_->workers_.size(); }

void ThreadPool::Submit(std::function<void()> task) {
  impl_->PushJob(new Impl::SubmitJob(std::move(task)), 1);
}

bool ThreadPool::TryRunPendingTask() { return impl_->TryRunOne(); }

void ThreadPool::ParallelFor(int64_t begin, int64_t end, int64_t num_chunks,
                             const std::function<void(int64_t, int64_t)>& fn,
                             obs::Histogram* imbalance, int max_threads) {
  int64_t n = end - begin;
  if (n <= 0) return;
  num_chunks = std::max<int64_t>(1, std::min(num_chunks, n));
  if (num_chunks == 1) {
    fn(begin, end);
    return;
  }
  Impl::JoinJob* job = new Impl::JoinJob();
  job->impl = impl_.get();
  job->begin = begin;
  job->end = end;
  job->chunk_size = (n + num_chunks - 1) / num_chunks;
  job->num_chunks = num_chunks;
  job->fn = &fn;
  job->timed = imbalance != nullptr;
  if (impl_->workers_.empty() || max_threads == 1) {
    impl_->RunSerialChunks(*job, imbalance,
                           [&fn](int64_t b, int64_t e, int64_t) { fn(b, e); });
    delete job;
    return;
  }
  impl_->RunJoin(job, imbalance, max_threads);
}

void ThreadPool::ParallelForWeighted(
    int64_t begin, int64_t end, int64_t num_chunks,
    const std::function<int64_t(int64_t)>& weight,
    const std::function<void(int64_t, int64_t, int64_t)>& fn,
    obs::Histogram* imbalance, int max_threads) {
  int64_t n = end - begin;
  if (n <= 0) return;
  num_chunks = std::max<int64_t>(1, std::min(num_chunks, n));
  if (num_chunks == 1) {
    fn(begin, end, 0);
    return;
  }
  // Chunk boundaries from cumulative weight: close chunk c once the running
  // total crosses (c+1)/num_chunks of the grand total. Integer arithmetic
  // only, so boundaries are a pure deterministic function of the weights.
  std::vector<int64_t> bounds;
  bounds.reserve(static_cast<size_t>(num_chunks) + 1);
  int64_t total = 0;
  for (int64_t i = begin; i < end; ++i) {
    total += std::max<int64_t>(0, weight(i));
  }
  bounds.push_back(begin);
  if (total <= 0) {
    int64_t chunk = (n + num_chunks - 1) / num_chunks;
    for (int64_t b = begin + chunk; b < end; b += chunk) bounds.push_back(b);
  } else {
    int64_t cum = 0, c = 0;
    for (int64_t i = begin; i < end; ++i) {
      cum += std::max<int64_t>(0, weight(i));
      if (c + 1 < num_chunks && cum * num_chunks >= total * (c + 1)) {
        while (c + 1 < num_chunks && cum * num_chunks >= total * (c + 1)) ++c;
        if (i + 1 < end) bounds.push_back(i + 1);
      }
    }
  }
  bounds.push_back(end);
  int64_t used = static_cast<int64_t>(bounds.size()) - 1;
  if (used == 1) {
    fn(begin, end, 0);
    return;
  }
  Impl::JoinJob* job = new Impl::JoinJob();
  job->impl = impl_.get();
  job->begin = begin;
  job->end = end;
  job->bounds = bounds.data();
  job->num_chunks = used;
  job->wfn = &fn;
  job->timed = imbalance != nullptr;
  if (impl_->workers_.empty() || max_threads == 1) {
    impl_->RunSerialChunks(*job, imbalance,
                           [&fn](int64_t b, int64_t e, int64_t c) {
                             fn(b, e, c);
                           });
    delete job;
    return;
  }
  // `bounds` lives on this stack frame; safe because RunJoin returns only
  // after every chunk is done, and stale queued entries never dereference
  // the geometry (their ticket fetch_add lands past num_chunks).
  impl_->RunJoin(job, imbalance, max_threads);
}

const LoopImbalance& Imbalance() {
  auto h = [](const char* loop) {
    return obs::MetricsRegistry::Get().GetHistogram(
        std::string("scheduler.imbalance.") + loop);
  };
  static const LoopImbalance m = {
      h("agg"),
      h("compress"),
      h("datagen"),
      h("elementwise"),
      h("fused"),
      h("io.read"),
      h("matmult"),
      h("matmult.reduce"),
      h("parfor"),
      h("reorg"),
      h("tlmm"),
      h("transform"),
      h("tsmm"),
  };
  return m;
}

int DefaultParallelism() {
  static int k = [] {
    if (const char* env = std::getenv("SYSDS_NUM_THREADS")) {
      int v = std::atoi(env);
      if (v > 0) return v;
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
  }();
  return k;
}

ThreadPool& ThreadPool::Global() {
  // DefaultParallelism() - 1 workers: the ParallelFor caller participates,
  // so loops use exactly DefaultParallelism() threads (no oversubscription).
  static ThreadPool* pool = new ThreadPool(
      static_cast<size_t>(std::max(0, DefaultParallelism() - 1)));
  return *pool;
}

}  // namespace sysds
