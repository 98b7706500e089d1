// Scheduler benchmark: work-stealing pool vs the old global mutex+CV queue.
// Covers (1) flat kernel scaling and the dispatch-overhead delta against an
// in-bench reimplementation of the old pool, (2) nested parfor-over-matmult
// vs the old inline-serial nesting behaviour, and (3) per-chunk imbalance on
// skewed sparse rows with uniform vs cost-weighted chunking. Results land in
// BENCH_scheduler.json; the speedup/overhead assertions only arm on machines
// with >= 4 usable cores (single-core CI can't measure wall-clock scaling).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "common/thread_pool.h"
#include "common/util.h"
#include "obs/metrics.h"
#include "runtime/matrix/lib_datagen.h"
#include "runtime/matrix/lib_matmult.h"

using namespace sysds;

namespace {

// Faithful reimplementation of the pre-work-stealing pool: one global queue
// under a mutex, a broadcast CV, and ParallelFor chunks submitted as queue
// tasks joined via a counter+CV. Nested ParallelFor runs inline on the
// caller (the old deadlock-avoidance rule). Used as the dispatch-overhead
// and nesting baseline.
class OldMutexPool {
 public:
  explicit OldMutexPool(size_t n) {
    for (size_t i = 0; i < n; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }
  ~OldMutexPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (std::thread& t : workers_) t.join();
  }

  void ParallelFor(int64_t begin, int64_t end, int64_t num_chunks,
                   const std::function<void(int64_t, int64_t)>& fn) {
    int64_t n = end - begin;
    if (n <= 0) return;
    if (num_chunks <= 1 || workers_.empty() || InWorker()) {
      fn(begin, end);  // old rule: nested/parallel-less loops run inline
      return;
    }
    int64_t chunk = (n + num_chunks - 1) / num_chunks;
    std::mutex jmu;
    std::condition_variable jcv;
    // Every non-empty chunk is counted before the first Submit: workers
    // decrement under jmu, so the counter is never written unlocked.
    const int64_t tasks = (n + chunk - 1) / chunk;
    int64_t outstanding = tasks;
    for (int64_t c = 0; c < tasks; ++c) {
      int64_t b = begin + c * chunk;
      int64_t e = std::min(end, b + chunk);
      Submit([&, b, e] {
        fn(b, e);
        std::lock_guard<std::mutex> lock(jmu);
        if (--outstanding == 0) jcv.notify_one();
      });
    }
    std::unique_lock<std::mutex> lock(jmu);
    jcv.wait(lock, [&] { return outstanding == 0; });
  }

 private:
  static bool& InWorkerFlag() {
    thread_local bool in_worker = false;
    return in_worker;
  }
  static bool InWorker() { return InWorkerFlag(); }

  void Submit(std::function<void()> task) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push(std::move(task));
    }
    cv_.notify_all();
  }

  void WorkerLoop() {
    InWorkerFlag() = true;
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
        if (stop_ && queue_.empty()) return;
        task = std::move(queue_.front());
        queue_.pop();
      }
      task();
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::queue<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

double MinSeconds(int reps, const std::function<void()>& body) {
  double best = 1e30;
  for (int r = 0; r < reps; ++r) {
    Timer t;
    body();
    best = std::min(best, t.ElapsedSeconds());
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sysds_bench;
  ApplySmokeFlag(argc, argv);
  Scale scale = GetScale();
  JsonResultWriter out("BENCH_scheduler.json");
  const int hw = DefaultParallelism();
  const bool assert_scaling =
      hw >= 4 && std::thread::hardware_concurrency() >= 4;
  bool failed = false;
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Get();
  obs::Histogram* flat_imbalance =
      reg.GetHistogram("scheduler.imbalance.bench.flat");
  obs::Histogram* nested_imbalance =
      reg.GetHistogram("scheduler.imbalance.bench.nested");

  // ------------------------------------------------------------------
  // (1) Flat kernel scaling + overhead vs the old pool. Same row-chunked
  // dense GEMM body driven through both pools.
  const int64_t m = std::min<int64_t>(scale.rows / 8, 768);
  const int64_t k = 256, n = 256;
  auto a = *RandMatrix(m, k, -1.0, 1.0, 1.0, 1, RandPdf::kUniform, 1);
  auto b = *RandMatrix(k, n, -1.0, 1.0, 1.0, 2, RandPdf::kUniform, 1);
  MatrixBlock c = MatrixBlock::Dense(m, n);
  auto gemm_rows = [&](int64_t rb, int64_t re) {
    internal::GemmDense(a.DenseRow(rb), b.DenseData(), c.DenseRow(rb),
                        re - rb, n, k);
  };
  const int64_t chunks = PickChunks(m);
  const int reps = std::max(3, scale.repetitions * 3);

  std::printf("# scheduler: flat dense gemm %lldx%lldx%lld, %lld chunks\n",
              (long long)m, (long long)k, (long long)n, (long long)chunks);
  std::printf("%-24s%14s\n", "pool", "seconds");
  double flat_new = MinSeconds(reps, [&] {
    ThreadPool::Global().ParallelFor(0, m, chunks, gemm_rows, flat_imbalance);
  });
  std::printf("%-24s%14.5f\n", "work-stealing", flat_new);
  double flat_old;
  {
    OldMutexPool old_pool(static_cast<size_t>(hw));
    flat_old = MinSeconds(reps, [&] {
      old_pool.ParallelFor(0, m, chunks, gemm_rows);
    });
  }
  std::printf("%-24s%14.5f\n", "old mutex queue", flat_old);
  double overhead_pct = (flat_new - flat_old) / flat_old * 100.0;
  std::printf("flat overhead vs old: %+.2f%%\n", overhead_pct);
  out.Add("flat_gemm", {{"new_s", flat_new},
                        {"old_s", flat_old},
                        {"overhead_pct", overhead_pct}});
  if (assert_scaling && overhead_pct > 1.0) {
    std::fprintf(stderr, "FAIL: flat kernel overhead %.2f%% > 1%%\n",
                 overhead_pct);
    failed = true;
  }

  // ------------------------------------------------------------------
  // (2) Nested parfor-over-matmult. The old pool ran the inner loop inline
  // (serial); the helping join fans the inner chunks across all workers.
  {
    const int64_t outer = 8;
    const int64_t im = std::min<int64_t>(scale.rows / 16, 384);
    auto ia = *RandMatrix(im, k, -1.0, 1.0, 1.0, 3, RandPdf::kUniform, 1);
    std::vector<MatrixBlock> results(static_cast<size_t>(outer));
    auto body = [&](int64_t w) {
      results[static_cast<size_t>(w)] = *MatMult(ia, b, hw);
    };

    double nested_new = MinSeconds(scale.repetitions, [&] {
      ThreadPool::Global().ParallelFor(
          0, outer, outer,
          [&](int64_t wb, int64_t we) {
            for (int64_t w = wb; w < we; ++w) body(w);
          },
          nested_imbalance);
    });
    // Old behaviour: the outer parfor got the workers, the inner matmult
    // collapsed to inline-serial on each of them.
    double nested_old;
    {
      OldMutexPool old_pool(static_cast<size_t>(hw));
      auto serial_body = [&](int64_t w) {
        MatrixBlock& r = results[static_cast<size_t>(w)];
        r = MatrixBlock::Dense(im, n);
        internal::GemmDense(ia.DenseData(), b.DenseData(), r.DenseData(), im,
                            n, k);
      };
      nested_old = MinSeconds(scale.repetitions, [&] {
        old_pool.ParallelFor(0, outer, outer, [&](int64_t wb, int64_t we) {
          for (int64_t w = wb; w < we; ++w) serial_body(w);
        });
      });
    }
    double speedup = nested_old / nested_new;
    std::printf("\n# scheduler: nested parfor(%lld) x matmult %lldx%lldx%lld\n",
                (long long)outer, (long long)im, (long long)k, (long long)n);
    std::printf("%-24s%14.5f\n%-24s%14.5f\nnested speedup: %.2fx\n",
                "helping join", nested_new, "inline-serial (old)", nested_old,
                speedup);
    out.Add("nested_parfor_matmult", {{"new_s", nested_new},
                                      {"old_s", nested_old},
                                      {"speedup", speedup}});
    // The outer loop already saturates >= 8-way, so the old pool is only
    // beaten by better load balance; require 2x only when the outer width
    // exceeds the machine (paper setting). On >=4 cores require progress.
    if (assert_scaling && speedup < (outer > hw ? 2.0 : 0.9)) {
      std::fprintf(stderr, "FAIL: nested speedup %.2fx too low\n", speedup);
      failed = true;
    }
  }

  // ------------------------------------------------------------------
  // (3) Skewed sparse rows: per-chunk wall-time imbalance under uniform vs
  // cost-weighted chunking. Work per row is proportional to its nnz; 5% of
  // rows carry ~95% of the mass.
  {
    const int64_t rows = 4096;
    std::vector<int64_t> nnz(static_cast<size_t>(rows), 4);
    for (int64_t i = 0; i < rows / 20; ++i) nnz[static_cast<size_t>(i)] = 400;
    auto weight = [&](int64_t i) { return nnz[static_cast<size_t>(i)] + 1; };
    std::atomic<double> sink{0.0};
    auto row_work = [&](int64_t i) {
      double acc = 0;
      for (int64_t it = 0; it < nnz[static_cast<size_t>(i)] * 40; ++it) {
        acc += static_cast<double>((it * 2654435761u + i) & 0xff);
      }
      sink.store(acc, std::memory_order_relaxed);
    };
    const int64_t nchunks = PickChunks(rows);
    auto imbalance = [](const std::vector<double>& chunk_s) {
      double sum = 0, mx = 0;
      int64_t cnt = 0;
      for (double v : chunk_s) {
        if (v == 0) continue;
        sum += v;
        mx = std::max(mx, v);
        ++cnt;
      }
      double mean = cnt ? sum / cnt : 0;
      return mean > 0 ? (mx - mean) / mean * 100.0 : 0.0;
    };

    std::vector<double> uni(static_cast<size_t>(nchunks), 0.0);
    int64_t chunk_rows = (rows + nchunks - 1) / nchunks;
    ThreadPool::Global().ParallelFor(0, rows, nchunks,
                                     [&](int64_t rb, int64_t re) {
                                       Timer t;
                                       for (int64_t i = rb; i < re; ++i)
                                         row_work(i);
                                       uni[static_cast<size_t>(
                                           rb / chunk_rows)] =
                                           t.ElapsedSeconds();
                                     });
    std::vector<double> wei(static_cast<size_t>(nchunks), 0.0);
    ThreadPool::Global().ParallelForWeighted(
        0, rows, nchunks, weight, [&](int64_t rb, int64_t re, int64_t ci) {
          Timer t;
          for (int64_t i = rb; i < re; ++i) row_work(i);
          wei[static_cast<size_t>(ci)] = t.ElapsedSeconds();
        });
    double imb_uni = imbalance(uni), imb_wei = imbalance(wei);
    std::printf("\n# scheduler: skewed rows, per-chunk (max-mean)/mean %%\n");
    std::printf("%-24s%14.1f\n%-24s%14.1f\n", "uniform chunks", imb_uni,
                "cost-weighted chunks", imb_wei);
    out.Add("skew_imbalance",
            {{"uniform_pct", imb_uni}, {"weighted_pct", imb_wei}});
    if (imb_wei > imb_uni * 1.1 + 5.0) {
      std::fprintf(stderr,
                   "FAIL: weighted chunking more imbalanced than uniform\n");
      failed = true;
    }
  }

  // ------------------------------------------------------------------
  // (4) Dispatch overhead: many tiny loops, pure scheduling cost.
  {
    const int64_t loops = 2000;
    std::atomic<int64_t> acc{0};
    auto tiny = [&](int64_t b, int64_t e) { acc += e - b; };
    double disp_new = MinSeconds(3, [&] {
      for (int64_t i = 0; i < loops; ++i) {
        ThreadPool::Global().ParallelFor(0, 64, 8, tiny);
      }
    });
    double disp_old;
    {
      OldMutexPool old_pool(static_cast<size_t>(hw));
      disp_old = MinSeconds(3, [&] {
        for (int64_t i = 0; i < loops; ++i) {
          old_pool.ParallelFor(0, 64, 8, tiny);
        }
      });
    }
    std::printf("\n# scheduler: dispatch cost, %lld tiny loops\n",
                (long long)loops);
    std::printf("%-24s%14.5f\n%-24s%14.5f\n", "work-stealing", disp_new,
                "old mutex queue", disp_old);
    out.Add("dispatch", {{"new_s", disp_new}, {"old_s", disp_old}});
  }

  if (!out.Write()) {
    std::fprintf(stderr, "failed to write BENCH_scheduler.json\n");
    return 1;
  }
  return failed ? 1 : 0;
}
