#include "serve/scoring_service.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/bufferpool/buffer_pool.h"
#include "runtime/matrix/lib_reorg.h"

namespace sysds {
namespace serve {

namespace {

struct ServeMetrics {
  obs::Counter* requests;
  obs::Counter* rejected;
  obs::Counter* deadline_misses;
  obs::Counter* retryable_failures;
  obs::Counter* batches;
  // Requests queued, summed over every live service.
  obs::Gauge* queue_depth;
  obs::Histogram* latency_ns;
};

ServeMetrics& Metrics() {
  auto& r = obs::MetricsRegistry::Get();
  static ServeMetrics m = {
      r.GetCounter("serve.requests"),
      r.GetCounter("serve.rejected"),
      r.GetCounter("serve.deadline_misses"),
      r.GetCounter("serve.retryable_failures"),
      r.GetCounter("serve.batches"),
      r.GetGauge("serve.queue_depth"),
      r.GetHistogram("serve.latency_ns"),
  };
  return m;
}

std::future<StatusOr<ScriptResult>> ReadyFuture(Status status) {
  std::promise<StatusOr<ScriptResult>> p;
  p.set_value(StatusOr<ScriptResult>(std::move(status)));
  return p.get_future();
}

}  // namespace

ScoringService::ScoringService(ServiceOptions options) : options_(options) {
  int workers = std::max(1, options_.num_workers);
  workers_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ScoringService::~ScoringService() { Shutdown(); }

Status ScoringService::RegisterModel(
    const std::string& name, std::shared_ptr<const PreparedScript> script,
    std::vector<std::string> outputs, ModelOptions options) {
  if (script == nullptr) {
    return InvalidArgument("model '" + name + "': script is null");
  }
  if (options.micro_batching && options.batch_input.empty()) {
    return InvalidArgument("model '" + name +
                           "': micro_batching requires batch_input");
  }
  if (options.micro_batching && options.max_batch_size < 2) {
    return InvalidArgument("model '" + name +
                           "': micro_batching requires max_batch_size >= 2");
  }
  auto model = std::make_unique<Model>();
  model->script = std::move(script);
  model->outputs = Outputs::FromVector(std::move(outputs));
  model->options = std::move(options);
  std::lock_guard<std::mutex> lock(mutex_);
  if (shutdown_) {
    return CancelledError("scoring service is shut down");
  }
  if (!models_.emplace(name, std::move(model)).second) {
    return InvalidArgument("model '" + name + "' is already registered");
  }
  return Status::Ok();
}

std::future<StatusOr<ScriptResult>> ScoringService::Submit(
    const std::string& model, Inputs inputs, const RequestOptions& options) {
  Metrics().requests->Add(1);
  Request req;
  req.inputs = std::move(inputs);
  req.options = options;
  req.enqueue_time = std::chrono::steady_clock::now();
  if (!req.options.deadline.has_value() &&
      options_.default_deadline.count() > 0) {
    req.options.deadline = req.enqueue_time + options_.default_deadline;
  }
  std::future<StatusOr<ScriptResult>> future = req.promise.get_future();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutdown_) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      Metrics().rejected->Add(1);
      return ReadyFuture(CancelledError("scoring service is shut down"));
    }
    auto it = models_.find(model);
    if (it == models_.end()) {
      return ReadyFuture(NotFound("model '" + model + "' is not registered"));
    }
    if (queue_.size() >= options_.max_queue_depth) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      Metrics().rejected->Add(1);
      return ReadyFuture(
          OomError("admission queue full (" +
                   std::to_string(options_.max_queue_depth) +
                   " requests); retry with backoff"));
    }
    if (options_.admission_headroom_bytes > 0) {
      if (BufferPool* pool = it->second->script->Pool()) {
        int64_t headroom = pool->Headroom();
        if (headroom < options_.admission_headroom_bytes) {
          rejected_.fetch_add(1, std::memory_order_relaxed);
          Metrics().rejected->Add(1);
          return ReadyFuture(OomError(
              "memory headroom low (" + std::to_string(headroom) + " < " +
              std::to_string(options_.admission_headroom_bytes) +
              " bytes); retry with backoff"));
        }
      }
    }
    req.model = it->second.get();
    queue_.push_back(std::move(req));
    accepted_.fetch_add(1, std::memory_order_relaxed);
    Metrics().queue_depth->Add(1);
  }
  cv_.notify_one();
  return future;
}

StatusOr<ScriptResult> ScoringService::Score(const std::string& model,
                                             Inputs inputs,
                                             const RequestOptions& options) {
  return Submit(model, std::move(inputs), options).get();
}

void ScoringService::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutdown_ && workers_.empty()) return;
    shutdown_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
}

ServiceStats ScoringService::Stats() const {
  ServiceStats s;
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.failed = failed_.load(std::memory_order_relaxed);
  s.deadline_misses = deadline_misses_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.batched_requests = batched_requests_.load(std::memory_order_relaxed);
  s.retryable_failures = retryable_failures_.load(std::memory_order_relaxed);
  return s;
}

int64_t ScoringService::QueueDepth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<int64_t>(queue_.size());
}

bool ScoringService::IsSingleRowBatchInput(const Request& req) {
  const auto& bindings = req.inputs.Bindings();
  auto it = bindings.find(req.model->options.batch_input);
  if (it == bindings.end()) return false;
  auto* m = dynamic_cast<MatrixObject*>(it->second.get());
  return m != nullptr && m->Rows() == 1;
}

bool ScoringService::CompatibleForBatch(const Request& head,
                                        const Request& req) {
  if (req.model != head.model) return false;
  if (req.options.cancel != nullptr && req.options.cancel->Cancelled()) {
    return false;
  }
  if (!IsSingleRowBatchInput(req)) return false;
  // All non-batch inputs must be the same objects (shared weights etc.);
  // value comparison would cost more than the batching saves.
  const std::string& batch_input = head.model->options.batch_input;
  const auto& a = head.inputs.Bindings();
  const auto& b = req.inputs.Bindings();
  if (a.size() != b.size()) return false;
  for (auto ita = a.begin(), itb = b.begin(); ita != a.end(); ++ita, ++itb) {
    if (ita->first != itb->first) return false;
    if (ita->first == batch_input) continue;
    if (ita->second.get() != itb->second.get()) return false;
  }
  return true;
}

bool ScoringService::NextWork(std::vector<Request>& work) {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
  if (queue_.empty()) return false;  // shutdown and drained
  work.push_back(std::move(queue_.front()));
  queue_.pop_front();
  const Model& model = *work.front().model;
  if (model.options.micro_batching && IsSingleRowBatchInput(work.front())) {
    for (auto it = queue_.begin();
         it != queue_.end() && work.size() < model.options.max_batch_size;) {
      if (CompatibleForBatch(work.front(), *it)) {
        work.push_back(std::move(*it));
        it = queue_.erase(it);
      } else {
        ++it;
      }
    }
  }
  Metrics().queue_depth->Add(-static_cast<int64_t>(work.size()));
  return true;
}

void ScoringService::WorkerLoop() {
  std::vector<Request> work;
  while (NextWork(work)) {
    if (work.size() == 1) {
      ExecuteSingle(work.front());
    } else {
      ExecuteBatch(work);
    }
    work.clear();
  }
}

void ScoringService::Resolve(Request& req, StatusOr<ScriptResult> result) {
  if (result.ok()) {
    completed_.fetch_add(1, std::memory_order_relaxed);
  } else {
    failed_.fetch_add(1, std::memory_order_relaxed);
    if (result.status().code() == StatusCode::kTimeout) {
      deadline_misses_.fetch_add(1, std::memory_order_relaxed);
      Metrics().deadline_misses->Add(1);
    }
    if (IsRetryable(result.status())) {
      // Chaos-degraded backends (kUnavailable/kCorrupt) and saturation
      // (kOom/kTimeout/kCancelled) are transient from the client's view.
      retryable_failures_.fetch_add(1, std::memory_order_relaxed);
      Metrics().retryable_failures->Add(1);
    }
  }
  Metrics().latency_ns->Observe(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - req.enqueue_time)
          .count());
  req.promise.set_value(std::move(result));
}

void ScoringService::ExecuteSingle(Request& req) {
  SYSDS_SPAN("serve", "execute");
  ExecuteOptions exec;
  exec.deadline = req.options.deadline;
  exec.cancel = req.options.cancel;
  const Model& model = *req.model;
  Resolve(req, model.script->Execute(req.inputs, model.outputs, exec));
}

void ScoringService::ExecuteBatch(std::vector<Request>& batch) {
  SYSDS_SPAN("serve", "execute_batch");
  const Model& model = *batch.front().model;
  const std::string& batch_input = model.options.batch_input;

  // Weed out requests that are already dead; they must not consume compute.
  std::vector<Request> live;
  live.reserve(batch.size());
  auto now = std::chrono::steady_clock::now();
  for (Request& req : batch) {
    if (req.options.cancel != nullptr && req.options.cancel->Cancelled()) {
      Resolve(req, CancelledError("request cancelled before execution"));
    } else if (req.options.deadline.has_value() &&
               now >= *req.options.deadline) {
      Resolve(req, TimeoutError("request deadline expired in queue"));
    } else {
      live.push_back(std::move(req));
    }
  }
  batch.clear();
  if (live.empty()) return;
  if (live.size() == 1) {
    ExecuteSingle(live.front());
    return;
  }

  // Stack the feature rows into one input matrix.
  std::vector<MatrixObject*> pinned;
  std::vector<const MatrixBlock*> rows;
  pinned.reserve(live.size());
  rows.reserve(live.size());
  for (Request& req : live) {
    auto* m = dynamic_cast<MatrixObject*>(
        req.inputs.Bindings().at(batch_input).get());
    auto acquired = m->AcquireRead();
    if (!acquired.ok()) {
      // A request whose input can't be pinned poisons the whole batch;
      // fall back to per-request execution so each surfaces its own error.
      for (MatrixObject* p : pinned) p->Release();
      for (Request& req2 : live) ExecuteSingle(req2);
      return;
    }
    pinned.push_back(m);
    rows.push_back(*acquired);
  }
  StatusOr<MatrixBlock> stacked = RBind(rows);
  for (MatrixObject* m : pinned) m->Release();
  if (!stacked.ok()) {
    for (Request& req : live) ExecuteSingle(req);
    return;
  }

  Inputs combined = live.front().inputs;
  combined.Matrix(batch_input, std::move(stacked).value());
  ExecuteOptions exec;
  // The batched run races the earliest member deadline; cancellation stays
  // per-request and is re-checked when results are handed out.
  for (const Request& req : live) {
    if (!req.options.deadline.has_value()) continue;
    if (!exec.deadline.has_value() || *req.options.deadline < *exec.deadline) {
      exec.deadline = req.options.deadline;
    }
  }
  StatusOr<ScriptResult> batched =
      model.script->Execute(combined, model.outputs, exec);

  // Any batch-level failure (including the earliest deadline firing) falls
  // back to per-request execution with each request's own deadline.
  bool sliceable = batched.ok();
  std::vector<std::pair<std::string, MatrixBlock>> full_outputs;
  if (sliceable) {
    for (const std::string& name : model.outputs.Names()) {
      StatusOr<MatrixBlock> m = batched.value().GetMatrix(name);
      if (!m.ok() || m.value().Rows() != static_cast<int64_t>(live.size())) {
        sliceable = false;  // scalar/frame or non-row-aligned output
        break;
      }
      full_outputs.emplace_back(name, std::move(m).value());
    }
  }
  if (!sliceable) {
    for (Request& req : live) ExecuteSingle(req);
    return;
  }

  batches_.fetch_add(1, std::memory_order_relaxed);
  batched_requests_.fetch_add(static_cast<int64_t>(live.size()),
                              std::memory_order_relaxed);
  Metrics().batches->Add(1);
  for (size_t i = 0; i < live.size(); ++i) {
    Request& req = live[i];
    if (req.options.cancel != nullptr && req.options.cancel->Cancelled()) {
      Resolve(req, CancelledError("request cancelled during execution"));
      continue;
    }
    ScriptResult result;
    Status slice_status = Status::Ok();
    for (const auto& [name, full] : full_outputs) {
      StatusOr<MatrixBlock> row = SliceMatrix(
          full, static_cast<int64_t>(i), static_cast<int64_t>(i), 0,
          full.Cols() - 1);
      if (!row.ok()) {
        slice_status = row.status();
        break;
      }
      result.SetValue(name,
                      std::make_shared<MatrixObject>(std::move(row).value()));
    }
    // print() output of the batched run is shared; per-row attribution is
    // not possible.
    result.SetOutputText(batched.value().Output());
    if (slice_status.ok()) {
      Resolve(req, std::move(result));
    } else {
      Resolve(req, slice_status);
    }
  }
}

}  // namespace serve
}  // namespace sysds
