#ifndef SYSDS_SERVE_SCORING_SERVICE_H_
#define SYSDS_SERVE_SCORING_SERVICE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/systemds_context.h"
#include "common/status.h"

namespace sysds {
namespace serve {

/// Service-wide knobs, fixed at construction.
struct ServiceOptions {
  /// Worker threads draining the admission queue. Each worker executes one
  /// request (or micro-batch) at a time on its own ExecutionContext.
  int num_workers = 2;
  /// Bound on queued (admitted, not yet executing) requests. Submissions
  /// beyond this fail fast with StatusCode::kOom — a retryable signal that
  /// the service is saturated, instead of unbounded queue growth.
  size_t max_queue_depth = 64;
  /// Deadline applied to requests that do not carry their own; zero means
  /// unlimited.
  std::chrono::nanoseconds default_deadline{0};
  /// Memory-pressure admission (paper §2.3(3)): reject a model's request
  /// with kOom when the real headroom (limit − pinned − in-flight restores)
  /// of that model's buffer pool — the pool of the context that prepared
  /// it — drops below this many bytes. Backpressure kicks in before
  /// executions start thrashing the spill device, and kOom is retryable —
  /// clients back off exactly as for a full queue. Zero disables the check
  /// (default).
  int64_t admission_headroom_bytes = 0;
};

/// Per-model execution knobs.
struct ModelOptions {
  /// Opt-in micro-batching: the service may stack several queued
  /// single-row requests of this model into one execution. Only valid for
  /// row-wise scoring functions (each output row depends only on the
  /// corresponding input row); the service cannot verify this property.
  bool micro_batching = false;
  /// Name of the row-vector input that varies per request (the feature
  /// row). All other inputs must be shared (pointer-identical DataPtrs)
  /// for requests to be batched together.
  std::string batch_input;
  /// Largest number of requests stacked into one execution.
  size_t max_batch_size = 8;
};

/// Per-request controls.
struct RequestOptions {
  /// Absolute deadline; overrides ServiceOptions::default_deadline.
  std::optional<std::chrono::steady_clock::time_point> deadline;
  /// Cooperative cancellation; fires StatusCode::kCancelled.
  std::shared_ptr<CancellationToken> cancel;
};

/// Point-in-time service counters (service-local, in addition to the
/// process-wide src/obs/ metrics under the "serve." prefix).
struct ServiceStats {
  int64_t accepted = 0;          // admitted to the queue
  int64_t rejected = 0;          // refused with kOom (queue full)
  int64_t completed = 0;         // futures resolved with a value
  int64_t failed = 0;            // futures resolved with an error
  int64_t deadline_misses = 0;   // kTimeout before or during execution
  int64_t batches = 0;           // micro-batched executions
  int64_t batched_requests = 0;  // requests served through a batch
  /// Failures with a retryable status (kOom/kTimeout/kCancelled/
  /// kUnavailable/kCorrupt — see IsRetryable): a degraded backend surfaces
  /// to clients as a retryable serve error, not kInternal.
  int64_t retryable_failures = 0;
};

/// A model-scoring service over prepared scripts (the paper's §2.2(1)
/// low-latency deployment path, JMLC-style): each registered model is one
/// compiled PreparedScript shared by all workers; requests enter a bounded
/// admission queue and resolve through futures.
///
///   ScoringService svc({.num_workers = 4, .max_queue_depth = 128});
///   svc.RegisterModel("lm", std::move(prepared), {"yhat"});
///   auto fut = svc.Submit("lm", Inputs().Matrix("X", row));
///   StatusOr<ScriptResult> r = fut.get();
///
/// Thread-safe: Submit/Score may be called from any thread. Shutdown()
/// (also run by the destructor) stops admission, drains already-admitted
/// requests, and joins the workers.
class ScoringService {
 public:
  explicit ScoringService(ServiceOptions options = {});
  ~ScoringService();

  ScoringService(const ScoringService&) = delete;
  ScoringService& operator=(const ScoringService&) = delete;

  /// Registers `script` under `name`; `outputs` are the variables returned
  /// to callers on every request. Fails with kInvalidArgument on duplicate
  /// names, missing script, or inconsistent micro-batching options.
  Status RegisterModel(const std::string& name,
                       std::shared_ptr<const PreparedScript> script,
                       std::vector<std::string> outputs,
                       ModelOptions options = {});

  /// Asynchronous scoring: admits the request (kOom when the queue is
  /// full, kNotFound for unknown models, kCancelled after Shutdown) and
  /// returns a future that resolves with the execution result.
  std::future<StatusOr<ScriptResult>> Submit(const std::string& model,
                                             Inputs inputs,
                                             const RequestOptions& options = {});

  /// Synchronous convenience wrapper over Submit().get().
  StatusOr<ScriptResult> Score(const std::string& model, Inputs inputs,
                               const RequestOptions& options = {});

  /// Stops admission, drains every already-admitted request, and joins the
  /// worker threads. Idempotent; called by the destructor.
  void Shutdown();

  ServiceStats Stats() const;
  int64_t QueueDepth() const;

 private:
  struct Model {
    std::shared_ptr<const PreparedScript> script;
    Outputs outputs = Outputs::None();
    ModelOptions options;
  };

  struct Request {
    const Model* model = nullptr;
    Inputs inputs;
    RequestOptions options;
    std::chrono::steady_clock::time_point enqueue_time;
    std::promise<StatusOr<ScriptResult>> promise;
  };

  void WorkerLoop();
  /// Pops the next request plus (if its model opted in) compatible queued
  /// requests to micro-batch. Returns false when shutting down and drained.
  bool NextWork(std::vector<Request>& work);
  /// True if `req` can join a micro-batch: its batch input is a single-row
  /// matrix and all other inputs match `head`'s bindings.
  static bool CompatibleForBatch(const Request& head, const Request& req);
  static bool IsSingleRowBatchInput(const Request& req);
  void ExecuteSingle(Request& req);
  /// Stacks the batch rows, executes once, slices per-request outputs.
  /// Falls back to per-request execution when outputs are not sliceable or
  /// the batched run fails.
  void ExecuteBatch(std::vector<Request>& batch);
  void Resolve(Request& req, StatusOr<ScriptResult> result);

  const ServiceOptions options_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::map<std::string, std::unique_ptr<Model>> models_;  // stable addresses
  std::deque<Request> queue_;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;

  std::atomic<int64_t> accepted_{0};
  std::atomic<int64_t> rejected_{0};
  std::atomic<int64_t> completed_{0};
  std::atomic<int64_t> failed_{0};
  std::atomic<int64_t> deadline_misses_{0};
  std::atomic<int64_t> batches_{0};
  std::atomic<int64_t> batched_requests_{0};
  std::atomic<int64_t> retryable_failures_{0};
};

}  // namespace serve
}  // namespace sysds

#endif  // SYSDS_SERVE_SCORING_SERVICE_H_
