#include "runtime/ps/param_server.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/faults.h"
#include "io/atomic_file.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sysds {

namespace {

// Gradient of the objective on rows [rb, re) given dense weights; returns
// the per-example-averaged gradient.
std::vector<double> ComputeGradient(const MatrixBlock& x,
                                    const MatrixBlock& y, int64_t rb,
                                    int64_t re,
                                    const std::vector<double>& w,
                                    PsObjective objective, double reg) {
  int64_t m = x.Cols();
  std::vector<double> grad(static_cast<size_t>(m), 0.0);
  for (int64_t r = rb; r < re; ++r) {
    double pred = 0.0;
    for (int64_t c = 0; c < m; ++c) pred += x.Get(r, c) * w[c];
    double err;
    if (objective == PsObjective::kLogisticRegression) {
      double p = 1.0 / (1.0 + std::exp(-pred));
      err = p - y.Get(r, 0);
    } else {
      err = pred - y.Get(r, 0);
    }
    for (int64_t c = 0; c < m; ++c) grad[c] += err * x.Get(r, c);
  }
  double inv = 1.0 / static_cast<double>(re - rb);
  for (int64_t c = 0; c < m; ++c) grad[c] = grad[c] * inv + reg * w[c];
  return grad;
}

double ComputeLoss(const MatrixBlock& x, const MatrixBlock& y,
                   const std::vector<double>& w, PsObjective objective) {
  double loss = 0.0;
  int64_t m = x.Cols();
  for (int64_t r = 0; r < x.Rows(); ++r) {
    double pred = 0.0;
    for (int64_t c = 0; c < m; ++c) pred += x.Get(r, c) * w[c];
    if (objective == PsObjective::kLogisticRegression) {
      double p = 1.0 / (1.0 + std::exp(-pred));
      double yv = y.Get(r, 0);
      p = std::min(1.0 - 1e-12, std::max(1e-12, p));
      loss += -(yv * std::log(p) + (1.0 - yv) * std::log(1.0 - p));
    } else {
      double d = pred - y.Get(r, 0);
      loss += 0.5 * d * d;
    }
  }
  return loss / static_cast<double>(std::max<int64_t>(1, x.Rows()));
}

// Push/pull retry budget. Training runs make thousands of server calls, so
// the budget must drive the per-call permanent-failure probability low
// enough that a 10% drop rate (the chaos-suite default) rarely costs a
// worker: 0.1^5 = 1e-5 per call.
constexpr int kPsMaxAttempts = 5;

struct PsFaultMetrics {
  obs::Counter* retries;
  obs::Counter* excluded;
};

PsFaultMetrics& FaultMetrics() {
  static PsFaultMetrics m = {
      obs::MetricsRegistry::Get().GetCounter("fault.ps.retries"),
      obs::MetricsRegistry::Get().GetCounter("fault.ps.excluded_workers"),
  };
  return m;
}

/// One worker->server call (pull or push) under fault injection: a dropped
/// message is retried with a short pause; the budget bounds how long a
/// sick worker can hold up its round.
template <typename Op>
Status PsCall(int wid, const char* what, Op&& op) {
  FaultInjector& inj = FaultInjector::Get();
  for (int attempt = 0; attempt < kPsMaxAttempts; ++attempt) {
    if (attempt > 0) {
      FaultMetrics().retries->Add(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (inj.enabled() &&
        inj.ShouldInject(FaultLayer::kPs, wid, FaultKind::kMessageDrop)) {
      continue;
    }
    op();
    return Status::Ok();
  }
  return UnavailableError("ps worker " + std::to_string(wid) + ": " + what +
                          " failed after " + std::to_string(kPsMaxAttempts) +
                          " attempts");
}

// Model-version checkpoint file: magic, round, model width, weights.
constexpr uint64_t kPsCheckpointMagic = 0x3153504453445953ULL;  // "SYSDSPS1"

struct PsRecoveryMetrics {
  obs::Counter* checkpoints;
  obs::Counter* rollbacks;
  obs::Counter* resumes;
};

PsRecoveryMetrics& RecoveryMetrics() {
  static PsRecoveryMetrics m = {
      obs::MetricsRegistry::Get().GetCounter("recovery.ps_checkpoints"),
      obs::MetricsRegistry::Get().GetCounter("recovery.ps_rollbacks"),
      obs::MetricsRegistry::Get().GetCounter("recovery.ps_resumes"),
  };
  return m;
}

std::string PsCheckpointPath(const std::string& dir) {
  return (std::filesystem::path(dir) / "ps_model.ckpt").string();
}

Status WritePsCheckpoint(const std::string& dir, int64_t round,
                         const std::vector<double>& w) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  return io::WriteAtomic(PsCheckpointPath(dir), [&](std::ostream& out) {
    auto put = [&out](const void* p, size_t n) {
      out.write(static_cast<const char*>(p), static_cast<std::streamsize>(n));
    };
    put(&kPsCheckpointMagic, sizeof(kPsCheckpointMagic));
    put(&round, sizeof(round));
    int64_t m = static_cast<int64_t>(w.size());
    put(&m, sizeof(m));
    put(w.data(), w.size() * sizeof(double));
    if (!out.good()) return IoError("ps checkpoint: stream write failed");
    return Status::Ok();
  });
}

struct PsCheckpoint {
  int64_t round = 0;
  std::vector<double> weights;
};

StatusOr<PsCheckpoint> ReadPsCheckpoint(const std::string& dir) {
  PsCheckpoint ckpt;
  Status read = io::ReadVerified(
      PsCheckpointPath(dir), [&ckpt](std::istream& in, int64_t size) {
        io::PayloadReader reader(in, size);
        uint64_t magic = 0;
        int64_t m = 0;
        if (!reader.ReadPod(&magic) || !reader.ReadPod(&ckpt.round) ||
            !reader.ReadPod(&m)) {
          return CorruptError("ps checkpoint: truncated header");
        }
        if (magic != kPsCheckpointMagic) {
          return CorruptError("ps checkpoint: bad magic");
        }
        if (!reader.Fits(m, sizeof(double)) ||
            reader.remaining() != m * static_cast<int64_t>(sizeof(double))) {
          return CorruptError("ps checkpoint: payload size mismatch");
        }
        ckpt.weights.resize(static_cast<size_t>(m));
        return reader.Read(ckpt.weights.data(), reader.remaining())
                   ? Status::Ok()
                   : CorruptError("ps checkpoint: truncated weights");
      });
  if (!read.ok()) return read;
  return ckpt;
}

}  // namespace

StatusOr<PsResult> PsTrain(const MatrixBlock& x, const MatrixBlock& y,
                           const PsConfig& config) {
  if (x.Rows() != y.Rows() || y.Cols() != 1) {
    return InvalidArgument("PsTrain: X and y must be row-aligned, y n x 1");
  }
  if (config.num_workers < 1 || config.epochs < 1 ||
      config.batch_size < 1) {
    return InvalidArgument("PsTrain: invalid configuration");
  }
  if (!config.checkpoint_dir.empty() && config.mode != PsUpdateMode::kBSP) {
    return InvalidArgument(
        "PsTrain: model checkpoints require BSP (deterministic rounds)");
  }
  int64_t n = x.Rows(), m = x.Cols();
  int workers = static_cast<int>(
      std::min<int64_t>(config.num_workers, std::max<int64_t>(1, n)));
  bool bsp = config.mode == PsUpdateMode::kBSP;
  bool checkpointing = bsp && !config.checkpoint_dir.empty();

  // Server state.
  std::vector<double> weights(static_cast<size_t>(m), 0.0);
  std::mutex model_mutex;
  std::atomic<int64_t> pushes{0};

  // BSP barrier, adaptive to worker exclusion: `active_workers` is the
  // barrier width; excluding a worker shrinks it and releases the round if
  // the remaining waiters now fill it (no wedged barrier).
  //
  // Deterministic aggregation: in BSP mode gradients are buffered into
  // per-worker slots and applied in worker-id order by whichever thread
  // fills the barrier. The model therefore only mutates at round
  // boundaries, every pull within a round sees the same weights, and the
  // final model is independent of thread scheduling — which is what makes
  // a crash+resume run bit-identical to an uninterrupted one.
  std::mutex barrier_mutex;
  std::condition_variable barrier_cv;
  int barrier_count = 0;
  int64_t barrier_round = 0;
  int active_workers = workers;
  int excluded_count = 0;
  std::vector<std::vector<double>> round_grads(static_cast<size_t>(workers));
  std::vector<char> grad_present(static_cast<size_t>(workers), 0);
  int64_t completed_rounds = 0;  // applied rounds (includes resumed prefix)
  int rollbacks = 0;
  int exclusions_since_ckpt = 0;
  // Rollback baseline: the last committed model version — the initial (or
  // resumed) model until the first checkpoint commits.
  std::vector<double> ckpt_weights;

  // Crash unwind (injected kill points at checkpoint boundaries).
  std::atomic<bool> aborted{false};
  Status abort_status;  // guarded by barrier_mutex

  int64_t rows_per = (n + workers - 1) / workers;
  int64_t max_batches = 0;
  for (int w = 0; w < workers; ++w) {
    int64_t rb = w * rows_per;
    int64_t re = std::min(n, rb + rows_per);
    if (re > rb) {
      max_batches = std::max(
          max_batches, (re - rb + config.batch_size - 1) / config.batch_size);
    }
  }
  int64_t total_rounds = static_cast<int64_t>(config.epochs) * max_batches;

  // Resume: restart from the last committed model version.
  int64_t start_round = 0;
  if (checkpointing && config.resume) {
    auto ckpt = ReadPsCheckpoint(config.checkpoint_dir);
    if (ckpt.ok()) {
      if (static_cast<int64_t>(ckpt.value().weights.size()) != m) {
        return CorruptError("ps checkpoint: model width mismatch");
      }
      weights = ckpt.value().weights;
      start_round = std::min(ckpt.value().round, total_rounds);
      completed_rounds = start_round;
      RecoveryMetrics().resumes->Add(1);
    } else if (ckpt.status().code() != StatusCode::kNotFound &&
               ckpt.status().code() != StatusCode::kIoError) {
      return ckpt.status();  // corrupt checkpoint: refuse to train on it
    }
  }
  ckpt_weights = weights;

  static obs::Counter* push_counter =
      obs::MetricsRegistry::Get().GetCounter("ps.pushes");

  // Applies the buffered round in worker-id order, commits a model
  // checkpoint when due, and releases the barrier. Caller holds
  // barrier_mutex (lock order: barrier_mutex -> model_mutex).
  auto apply_round_locked = [&]() {
    {
      std::lock_guard<std::mutex> ml(model_mutex);
      for (int w = 0; w < workers; ++w) {
        if (!grad_present[w]) continue;
        for (int64_t c = 0; c < m; ++c) {
          weights[c] -= config.learning_rate * round_grads[w][c];
        }
        grad_present[w] = 0;
      }
    }
    ++completed_rounds;
    if (checkpointing && config.checkpoint_every_rounds > 0 &&
        completed_rounds % config.checkpoint_every_rounds == 0) {
      Status written =
          WritePsCheckpoint(config.checkpoint_dir, completed_rounds, weights);
      if (written.ok()) {
        RecoveryMetrics().checkpoints->Add(1);
        ckpt_weights = weights;
        exclusions_since_ckpt = 0;
        // Deterministic kill point: the Nth checkpoint boundary of this
        // run aborts training, simulating a crash just after commit.
        if (FaultInjector::Get().enabled() &&
            FaultInjector::Get().ShouldInject(FaultLayer::kRecovery,
                                              kPsRecoveryId,
                                              FaultKind::kCrash)) {
          abort_status = AbortedError(
              "simulated crash at ps checkpoint boundary (round " +
              std::to_string(completed_rounds) + ")");
          aborted.store(true, std::memory_order_release);
        }
      } else {
        std::cerr << "[sysds.ps] checkpoint write failed (continuing): "
                  << written.ToString() << "\n";
      }
    }
    barrier_count = 0;
    ++barrier_round;
    barrier_cv.notify_all();
  };

  // Drops a worker from the aggregation: shrink the barrier and release the
  // current round if everyone still active is already waiting on it. An
  // exclusion cascade (rollback_after_exclusions reached) rolls the model
  // back to the last committed checkpoint and discards the tainted round's
  // buffered gradients.
  auto exclude_worker = [&](int wid, const Status& why) {
    FaultMetrics().excluded->Add(1);
    obs::Tracer::Instant("ps", "worker_excluded");
    std::lock_guard<std::mutex> lock(barrier_mutex);
    --active_workers;
    ++excluded_count;
    ++exclusions_since_ckpt;
    std::cerr << "[sysds.ps] excluding worker " << wid
              << " from aggregation: " << why.ToString() << "\n";
    if (config.rollback_after_exclusions > 0 &&
        exclusions_since_ckpt >= config.rollback_after_exclusions) {
      {
        std::lock_guard<std::mutex> ml(model_mutex);
        weights = ckpt_weights;
      }
      std::fill(grad_present.begin(), grad_present.end(), 0);
      ++rollbacks;
      exclusions_since_ckpt = 0;
      RecoveryMetrics().rollbacks->Add(1);
      obs::Tracer::Instant("ps", "model_rollback");
    }
    if (active_workers > 0 && barrier_count >= active_workers) {
      apply_round_locked();
    }
    barrier_cv.notify_all();
  };

  auto worker_fn = [&](int wid) {
    obs::Tracer::SetCurrentThreadName("ps-worker-" + std::to_string(wid));
    SYSDS_SPAN("ps", "worker#" + std::to_string(wid));
    FaultInjector& inj = FaultInjector::Get();
    int64_t rb = wid * rows_per;
    int64_t re = std::min(n, rb + rows_per);
    for (int64_t round = start_round; round < total_rounds; ++round) {
      if (aborted.load(std::memory_order_acquire)) return;
      int64_t batch = round % max_batches;
      if (inj.enabled() &&
          inj.ShouldInject(FaultLayer::kPs, wid, FaultKind::kCrash)) {
        exclude_worker(wid, UnavailableError("worker crashed"));
        return;
      }
      int64_t bb = rb + batch * config.batch_size;
      int64_t be = std::min(re, bb + config.batch_size);
      if (bb < be) {
        // Pull.
        std::vector<double> local;
        Status pulled = PsCall(wid, "pull", [&] {
          std::lock_guard<std::mutex> lock(model_mutex);
          local = weights;
        });
        if (!pulled.ok()) {
          exclude_worker(wid, pulled);
          return;
        }
        std::vector<double> grad = ComputeGradient(
            x, y, bb, be, local, config.objective, config.reg);
        // Push: BSP buffers into this worker's slot (applied in wid order
        // at the barrier); ASP applies immediately.
        Status pushed = PsCall(wid, "push", [&] {
          if (bsp) {
            std::lock_guard<std::mutex> lock(barrier_mutex);
            round_grads[wid] = std::move(grad);
            grad_present[wid] = 1;
          } else {
            std::lock_guard<std::mutex> lock(model_mutex);
            for (int64_t c = 0; c < m; ++c) {
              weights[c] -= config.learning_rate * grad[c];
            }
          }
        });
        if (!pushed.ok()) {
          exclude_worker(wid, pushed);
          return;
        }
        pushes.fetch_add(1);
        push_counter->Add(1);
      }
      if (bsp) {
        std::unique_lock<std::mutex> lock(barrier_mutex);
        int64_t my_round = barrier_round;
        if (++barrier_count >= active_workers) {
          apply_round_locked();
        } else {
          barrier_cv.wait(lock, [&] {
            return barrier_round != my_round ||
                   aborted.load(std::memory_order_acquire);
          });
        }
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(workers));
  for (int w = 0; w < workers; ++w) threads.emplace_back(worker_fn, w);
  for (std::thread& t : threads) t.join();

  if (aborted.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(barrier_mutex);
    return abort_status;
  }
  if (excluded_count == workers) {
    return UnavailableError(
        "PsTrain: every worker was lost; no surviving aggregation");
  }
  PsResult result;
  result.weights = MatrixBlock::Dense(m, 1);
  for (int64_t c = 0; c < m; ++c) result.weights.DenseData()[c] = weights[c];
  result.weights.MarkNnzDirty();
  result.final_loss = ComputeLoss(x, y, weights, config.objective);
  result.pushes = pushes.load();
  result.excluded_workers = excluded_count;
  result.rollbacks = rollbacks;
  result.resumed_round = start_round;
  return result;
}

}  // namespace sysds
