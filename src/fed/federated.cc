#include "fed/federated.h"

#include <cstring>
#include <iostream>
#include <limits>

#include "common/faults.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/matrix/lib_agg.h"
#include "runtime/matrix/lib_elementwise.h"
#include "runtime/matrix/lib_matmult.h"
#include "runtime/matrix/lib_reorg.h"
#include "runtime/matrix/lib_solve.h"
#include "runtime/matrix/op_codes.h"

namespace sysds {

namespace {

// Wire header: rows (8) + cols (8) + FNV-1a checksum of the cell bytes (8).
constexpr size_t kWireHeaderBytes = 24;

uint64_t Fnv1a(const uint8_t* data, size_t n) {
  uint64_t h = 1469598103934665603ULL;
  for (size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 1099511628211ULL;
  }
  return h;
}

/// Shared framing checks of ValidateMatrixPayload / DeserializeMatrix.
Status ParseWireHeader(const std::vector<uint8_t>& buf, int64_t* rows,
                       int64_t* cols) {
  if (buf.size() < kWireHeaderBytes) {
    return CorruptError("federated: truncated matrix payload (" +
                        std::to_string(buf.size()) + " bytes)");
  }
  std::memcpy(rows, buf.data(), 8);
  std::memcpy(cols, buf.data() + 8, 8);
  if (*rows < 0 || *cols < 0) {
    return CorruptError("federated: negative matrix dimensions in payload");
  }
  // Overflow-safe size check: rows*cols*8 must equal the remaining bytes.
  uint64_t cells_avail = (buf.size() - kWireHeaderBytes) / 8;
  if ((buf.size() - kWireHeaderBytes) % 8 != 0 ||
      (*cols != 0 &&
       static_cast<uint64_t>(*rows) >
           std::numeric_limits<uint64_t>::max() /
               static_cast<uint64_t>(*cols)) ||
      static_cast<uint64_t>(*rows) * static_cast<uint64_t>(*cols) !=
          cells_avail) {
    return CorruptError("federated: malformed matrix payload (header " +
                        std::to_string(*rows) + "x" + std::to_string(*cols) +
                        " vs " + std::to_string(buf.size()) + " bytes)");
  }
  uint64_t checksum = 0;
  std::memcpy(&checksum, buf.data() + 16, 8);
  if (checksum != Fnv1a(buf.data() + kWireHeaderBytes,
                        buf.size() - kWireHeaderBytes)) {
    return CorruptError("federated: matrix payload checksum mismatch");
  }
  return Status::Ok();
}

}  // namespace

std::vector<uint8_t> SerializeMatrix(const MatrixBlock& m) {
  // Dense little-endian framing: rows, cols, checksum, then cells.
  int64_t rows = m.Rows(), cols = m.Cols();
  std::vector<uint8_t> buf(kWireHeaderBytes +
                           static_cast<size_t>(rows * cols) * 8);
  std::memcpy(buf.data(), &rows, 8);
  std::memcpy(buf.data() + 8, &cols, 8);
  double* cells = reinterpret_cast<double*>(buf.data() + kWireHeaderBytes);
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < cols; ++c) cells[r * cols + c] = m.Get(r, c);
  }
  uint64_t checksum =
      Fnv1a(buf.data() + kWireHeaderBytes, buf.size() - kWireHeaderBytes);
  std::memcpy(buf.data() + 16, &checksum, 8);
  return buf;
}

Status ValidateMatrixPayload(const std::vector<uint8_t>& buf) {
  int64_t rows = 0, cols = 0;
  return ParseWireHeader(buf, &rows, &cols);
}

StatusOr<MatrixBlock> DeserializeMatrix(const std::vector<uint8_t>& buf) {
  int64_t rows = 0, cols = 0;
  SYSDS_RETURN_IF_ERROR(ParseWireHeader(buf, &rows, &cols));
  MatrixBlock m = MatrixBlock::Dense(rows, cols);
  std::memcpy(m.DenseData(), buf.data() + kWireHeaderBytes,
              static_cast<size_t>(rows * cols) * 8);
  m.MarkNnzDirty();
  m.ExamSparsity();
  return m;
}

bool IsFederatedDataLossError(const std::string& error) {
  return error.find("crashed:") != std::string::npos ||
         error.find("unknown input") != std::string::npos ||
         error.find("unknown variable") != std::string::npos;
}

FederatedWorker::FederatedWorker(int id) : id_(id) {
  thread_ = std::thread([this] { Loop(); });
}

FederatedWorker::~FederatedWorker() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

namespace {
struct FedMetrics {
  obs::Counter* requests;
  obs::Counter* bytes_to_site;
  obs::Counter* bytes_from_site;
};

FedMetrics& Metrics() {
  static FedMetrics m = {
      obs::MetricsRegistry::Get().GetCounter("fed.requests"),
      obs::MetricsRegistry::Get().GetCounter("fed.bytes_to_site"),
      obs::MetricsRegistry::Get().GetCounter("fed.bytes_from_site"),
  };
  return m;
}

struct FedFaultMetrics {
  obs::Counter* retries;
  obs::Counter* timeouts;
  obs::Counter* corrupt_rejected;
  obs::Counter* circuit_rejections;
  obs::Counter* circuit_opens;
  obs::Counter* local_fallbacks;
  obs::Counter* reputs;
  obs::Histogram* retry_latency_ns;
};

FedFaultMetrics& FaultMetrics() {
  static FedFaultMetrics m = {
      obs::MetricsRegistry::Get().GetCounter("fault.fed.retries"),
      obs::MetricsRegistry::Get().GetCounter("fault.fed.timeouts"),
      obs::MetricsRegistry::Get().GetCounter("fault.fed.corrupt_rejected"),
      obs::MetricsRegistry::Get().GetCounter("fault.fed.circuit_rejections"),
      obs::MetricsRegistry::Get().GetCounter("fault.fed.circuit_opens"),
      obs::MetricsRegistry::Get().GetCounter("fault.fed.local_fallbacks"),
      obs::MetricsRegistry::Get().GetCounter("fault.fed.reputs"),
      obs::MetricsRegistry::Get().GetHistogram("fault.fed.retry_latency_ns"),
  };
  return m;
}

const char* RequestSpanName(const FederatedMessage& msg) {
  switch (msg.type) {
    case FederatedMessage::Type::kPutMatrix: return "put_matrix";
    case FederatedMessage::Type::kGetMatrix: return "get_matrix";
    case FederatedMessage::Type::kExec: return "exec";
    default: return "request";
  }
}
}  // namespace

FederatedMessage FederatedWorker::Request(FederatedMessage msg) {
  // Master-side view of the round trip: queueing for the site's single
  // request slot, remote processing, and response shipping.
  SYSDS_SPAN("fed", RequestSpanName(msg));
  Metrics().requests->Add(1);
  Metrics().bytes_to_site->Add(static_cast<int64_t>(msg.payload.size()) + 64);
  std::unique_lock<std::mutex> lock(mutex_);
  // Wait for the slot (serializes concurrent masters).
  cv_.wait(lock, [this] { return !has_request_; });
  bytes_in_ += static_cast<int64_t>(msg.payload.size()) + 64;
  request_ = &msg;
  has_request_ = true;
  has_response_ = false;
  cv_.notify_all();
  response_cv_.wait(lock, [this] { return has_response_; });
  FederatedMessage resp = std::move(response_);
  bytes_out_ += static_cast<int64_t>(resp.payload.size()) + 64;
  Metrics().bytes_from_site->Add(static_cast<int64_t>(resp.payload.size()) +
                                 64);
  has_request_ = false;
  request_ = nullptr;
  cv_.notify_all();
  return resp;
}

void FederatedWorker::Loop() {
  obs::Tracer::SetCurrentThreadName("fed-site-" + std::to_string(id_));
  for (;;) {
    FederatedMessage* req = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || (has_request_ && !has_response_); });
      if (stop_) return;
      req = request_;
    }
    FederatedMessage resp;
    if (FaultInjector::Get().ShouldInject(FaultLayer::kFederated, id_,
                                          FaultKind::kCrash)) {
      // Simulated site crash: the process restarts with its in-memory
      // variables gone; the in-flight request is answered with a data-loss
      // error so the master re-ships partitions from source.
      data_.clear();
      resp.type = FederatedMessage::Type::kError;
      resp.error = "crashed: site restarted, in-memory state lost";
      obs::Tracer::Instant("fed", "site_crash");
    } else {
      // Site-side processing span (its own named thread track).
      SYSDS_SPAN("fed", req->opcode.empty() ? "handle" : req->opcode.c_str());
      resp = Handle(*req);
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      response_ = std::move(resp);
      has_response_ = true;
    }
    response_cv_.notify_all();
  }
}

FederatedMessage FederatedWorker::Handle(const FederatedMessage& msg) {
  FederatedMessage resp;
  resp.type = FederatedMessage::Type::kResponse;
  auto fail = [&](const std::string& err) {
    resp.type = FederatedMessage::Type::kError;
    resp.error = err;
    return resp;
  };
  switch (msg.type) {
    case FederatedMessage::Type::kPutMatrix: {
      auto m = DeserializeMatrix(msg.payload);
      if (!m.ok()) return fail(m.status().ToString());
      data_[msg.output_name] = std::move(*m);
      return resp;
    }
    case FederatedMessage::Type::kGetMatrix: {
      auto it = data_.find(msg.names.empty() ? "" : msg.names[0]);
      if (it == data_.end()) return fail("federated: unknown variable");
      resp.payload = SerializeMatrix(it->second);
      return resp;
    }
    case FederatedMessage::Type::kExec: {
      // Resolve inputs.
      std::vector<const MatrixBlock*> ins;
      for (const std::string& name : msg.names) {
        auto it = data_.find(name);
        if (it == data_.end()) return fail("federated: unknown input " + name);
        ins.push_back(&it->second);
      }
      StatusOr<MatrixBlock> out = InvalidArgument("");
      if (msg.opcode == "tsmm" && ins.size() == 1) {
        out = TransposeSelfMatMult(*ins[0], true, 0);
      } else if (msg.opcode == "tmm" && ins.size() == 2) {
        out = TransposeLeftMatMult(*ins[0], *ins[1], 0);
      } else if (msg.opcode == "matvec" && ins.size() == 1 &&
                 !msg.payload.empty()) {
        auto v = DeserializeMatrix(msg.payload);
        if (!v.ok()) return fail(v.status().ToString());
        out = MatMult(*ins[0], *v, 0);
      } else if (msg.opcode == "colsums" && ins.size() == 1) {
        out = AggregateRowCol(AggOpCode::kSum, AggDirection::kCol, *ins[0], 0);
      } else if (msg.opcode == "scale" && ins.size() == 1) {
        out = StatusOr<MatrixBlock>(BinaryMatrixScalar(
            BinaryOpCode::kMul, *ins[0], msg.scalar, false, 0));
      } else {
        return fail("federated: unsupported opcode " + msg.opcode);
      }
      if (!out.ok()) return fail(out.status().ToString());
      if (!msg.output_name.empty()) {
        data_[msg.output_name] = *out;
      }
      resp.payload = SerializeMatrix(*out);
      return resp;
    }
    default:
      return fail("federated: bad request");
  }
}

FederatedRegistry::FederatedRegistry(int n) {
  for (int i = 0; i < n; ++i) {
    workers_.push_back(std::make_unique<FederatedWorker>(i));
  }
  health_.resize(static_cast<size_t>(n));
}

int64_t FederatedRegistry::TotalBytesTransferred() const {
  int64_t total = 0;
  for (const auto& w : workers_) {
    total += w->BytesReceived() + w->BytesSent();
  }
  return total;
}

bool FederatedRegistry::SiteHealthy(int site) const {
  std::lock_guard<std::mutex> lock(health_mutex_);
  return health_[static_cast<size_t>(site)].consecutive_call_failures <
         kCircuitBreakerThreshold;
}

bool FederatedRegistry::AdmitCall(int site, bool* probe) {
  *probe = false;
  std::lock_guard<std::mutex> lock(health_mutex_);
  SiteHealth& h = health_[static_cast<size_t>(site)];
  if (h.consecutive_call_failures < kCircuitBreakerThreshold) return true;
  if (++h.rejections_since_probe >= kHalfOpenInterval) {
    h.rejections_since_probe = 0;
    *probe = true;
    obs::Tracer::Instant("fed", "circuit_half_open");
    return true;
  }
  return false;
}

void FederatedRegistry::ReportCallResult(int site, bool ok) {
  std::lock_guard<std::mutex> lock(health_mutex_);
  SiteHealth& h = health_[static_cast<size_t>(site)];
  if (ok) {
    if (h.consecutive_call_failures >= kCircuitBreakerThreshold) {
      obs::Tracer::Instant("fed", "circuit_close");
      h.fallback_logged = false;  // a re-degradation is worth logging again
    }
    h.consecutive_call_failures = 0;
    h.rejections_since_probe = 0;
    return;
  }
  ++h.consecutive_call_failures;
  if (h.consecutive_call_failures == kCircuitBreakerThreshold) {
    FaultMetrics().circuit_opens->Add(1);
    obs::Tracer::Instant("fed", "circuit_open");
  }
}

StatusOr<FederatedMessage> FederatedRegistry::Call(
    int site, const FederatedMessage& msg, const FedCallOptions& options) {
  if (site < 0 || site >= NumWorkers()) {
    return InvalidArgument("fed call: no such site " + std::to_string(site));
  }
  bool probe = false;
  if (!AdmitCall(site, &probe)) {
    FaultMetrics().circuit_rejections->Add(1);
    return UnavailableError("fed site " + std::to_string(site) +
                            ": circuit breaker open");
  }
  // A half-open probe gets exactly one attempt: if the site is still dead
  // it fails fast, if it recovered the success closes the breaker.
  const int max_attempts = probe ? 1 : options.max_attempts;
  FaultInjector& inj = FaultInjector::Get();
  const auto start = std::chrono::steady_clock::now();
  const auto deadline = start + options.overall_deadline;
  bool retried = false;
  Status last = UnavailableError("fed site " + std::to_string(site) +
                                 ": no attempts made");
  auto finish = [&](bool ok) {
    ReportCallResult(site, ok);
    if (retried) {
      FaultMetrics().retry_latency_ns->Observe(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - start)
              .count());
    }
  };
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    if (attempt > 0) {
      retried = true;
      FaultMetrics().retries->Add(1);
      // Exponential backoff with deterministic jitter, capped by both the
      // per-step cap and the overall deadline.
      int64_t backoff_ms =
          std::min<int64_t>(options.backoff_cap.count(),
                            options.backoff_base.count() << (attempt - 1));
      backoff_ms += inj.JitterMs(FaultLayer::kFederated, site, attempt,
                                 static_cast<int>(backoff_ms));
      auto wake =
          std::chrono::steady_clock::now() +
          std::chrono::milliseconds(backoff_ms);
      if (wake >= deadline) {
        last = UnavailableError("fed site " + std::to_string(site) +
                                ": retry deadline exhausted after " +
                                std::to_string(attempt) + " attempts");
        break;
      }
      std::this_thread::sleep_until(wake);
    }
    if (inj.IsDead(FaultLayer::kFederated, site)) {
      FaultMetrics().timeouts->Add(1);
      last = UnavailableError("fed site " + std::to_string(site) +
                              ": request timed out (site dead)");
      continue;
    }
    if (inj.ShouldInject(FaultLayer::kFederated, site,
                         FaultKind::kMessageDrop)) {
      FaultMetrics().timeouts->Add(1);
      last = UnavailableError("fed site " + std::to_string(site) +
                              ": request timed out (message dropped)");
      continue;
    }
    if (inj.ShouldInject(FaultLayer::kFederated, site, FaultKind::kDelay)) {
      int delay_ms = inj.DelayMs();
      if (std::chrono::milliseconds(delay_ms) > options.request_timeout) {
        FaultMetrics().timeouts->Add(1);
        last = UnavailableError("fed site " + std::to_string(site) +
                                ": response exceeded request timeout");
        continue;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
    }
    FederatedMessage resp = workers_[static_cast<size_t>(site)]->Request(msg);
    if (resp.type == FederatedMessage::Type::kError) {
      // Application-level error: the transport is healthy (keeps the
      // circuit closed). Data loss surfaces retryable so callers run the
      // re-put recovery; anything else is a deterministic failure.
      finish(true);
      if (IsFederatedDataLossError(resp.error)) {
        return UnavailableError(resp.error);
      }
      return RuntimeError(resp.error);
    }
    if (!resp.payload.empty()) {
      if (inj.enabled() && inj.ShouldInject(FaultLayer::kFederated, site,
                                            FaultKind::kCorruptPayload)) {
        inj.CorruptPayload(FaultLayer::kFederated, site, &resp.payload);
      }
      Status integrity = ValidateMatrixPayload(resp.payload);
      if (!integrity.ok()) {
        FaultMetrics().corrupt_rejected->Add(1);
        last = integrity;
        continue;  // retransmit
      }
    }
    finish(true);
    return resp;
  }
  finish(false);
  return last;
}

StatusOr<FederatedMatrix> FederatedMatrix::Distribute(
    FederatedRegistry* registry, const MatrixBlock& m,
    const std::string& name) {
  FederatedMatrix fm(registry, m.Rows(), m.Cols());
  // Retain the source: it models the durable input (HDFS block / lineage
  // recompute) that failover pulls from when a site dies.
  fm.source_ = std::make_shared<const MatrixBlock>(m);
  int n = registry->NumWorkers();
  int64_t rows_per = (m.Rows() + n - 1) / n;
  for (int w = 0; w < n; ++w) {
    int64_t rb = w * rows_per;
    int64_t re = std::min<int64_t>(m.Rows(), rb + rows_per);
    if (rb >= re) break;
    SYSDS_ASSIGN_OR_RETURN(MatrixBlock part,
                           SliceMatrix(m, rb, re - 1, 0, m.Cols() - 1));
    FederatedMessage put;
    put.type = FederatedMessage::Type::kPutMatrix;
    put.output_name = name;
    put.payload = SerializeMatrix(part);
    StatusOr<FederatedMessage> resp = registry->Call(w, put);
    if (!resp.ok()) {
      if (!IsRetryable(resp.status())) return resp.status();
      // Site unreachable: record the partition anyway; every operation on
      // it will degrade to local execution from source.
      obs::Tracer::Instant("fed", "distribute_degraded");
    }
    fm.partitions_.push_back({w, rb, re, name});
  }
  return fm;
}

StatusOr<MatrixBlock> FederatedMatrix::SourceSlice(const Partition& p) const {
  if (source_ == nullptr) {
    return UnavailableError("federated: no source retained for partition of " +
                            p.var_name);
  }
  return SliceMatrix(*source_, p.row_begin, p.row_end - 1, 0, cols_ - 1);
}

Status FederatedMatrix::RePut(const Partition& p) const {
  SYSDS_ASSIGN_OR_RETURN(MatrixBlock part, SourceSlice(p));
  FederatedMessage put;
  put.type = FederatedMessage::Type::kPutMatrix;
  put.output_name = p.var_name;
  put.payload = SerializeMatrix(part);
  SYSDS_ASSIGN_OR_RETURN(FederatedMessage resp,
                         registry_->Call(p.worker_id, put));
  (void)resp;
  FaultMetrics().reputs->Add(1);
  return Status::Ok();
}

StatusOr<MatrixBlock> FederatedMatrix::CallPartition(
    const Partition& p, const FederatedMessage& req,
    const std::function<Status()>& reput,
    const std::function<StatusOr<MatrixBlock>()>& local) const {
  // Route through Call unconditionally: its admission logic rejects on an
  // open circuit (cheaply) but also grants the periodic half-open probes
  // that rediscover a recovered site.
  StatusOr<FederatedMessage> resp = registry_->Call(p.worker_id, req);
  if (!resp.ok() && resp.status().code() == StatusCode::kUnavailable &&
      IsFederatedDataLossError(resp.status().message()) &&
      source_ != nullptr && reput != nullptr) {
    // The site is alive but lost its state (crash): re-ship the inputs
    // from source and retry the operation once.
    Status restored = reput();
    if (restored.ok()) resp = registry_->Call(p.worker_id, req);
  }
  if (resp.ok()) return DeserializeMatrix(resp->payload);
  Status last = resp.status();
  if (!IsRetryable(last)) return last;  // deterministic site error
  // Degradation ladder bottom: pull the partition local and execute in CP.
  // One-time cost per call; bit-identical because the same single-threaded
  // kernels run on the same slice the site held.
  if (source_ == nullptr) return last;
  {
    std::lock_guard<std::mutex> lock(registry_->health_mutex_);
    auto& h = registry_->health_[static_cast<size_t>(p.worker_id)];
    if (!h.fallback_logged) {
      h.fallback_logged = true;
      std::cerr << "[sysds.fed] site " << p.worker_id
                << " unavailable; executing its partitions locally in CP ("
                << last.ToString() << ")\n";
    }
  }
  FaultMetrics().local_fallbacks->Add(1);
  obs::Tracer::Instant("fed", "local_fallback");
  return local();
}

StatusOr<MatrixBlock> FederatedMatrix::TsmmLeft() const {
  MatrixBlock acc = MatrixBlock::Dense(cols_, cols_);
  for (const Partition& p : partitions_) {
    FederatedMessage req;
    req.type = FederatedMessage::Type::kExec;
    req.opcode = "tsmm";
    req.names = {p.var_name};
    SYSDS_ASSIGN_OR_RETURN(
        MatrixBlock part,
        CallPartition(
            p, req, [&] { return RePut(p); },
            [&]() -> StatusOr<MatrixBlock> {
              SYSDS_ASSIGN_OR_RETURN(MatrixBlock slice, SourceSlice(p));
              return TransposeSelfMatMult(slice, true, 0);
            }));
    SYSDS_ASSIGN_OR_RETURN(
        acc, BinaryMatrixMatrix(BinaryOpCode::kAdd, acc, part, 0));
  }
  return acc;
}

StatusOr<MatrixBlock> FederatedMatrix::Tmm(const FederatedMatrix& y) const {
  if (y.rows_ != rows_ || partitions_.size() != y.partitions_.size()) {
    return InvalidArgument("federated tmm: misaligned partitions");
  }
  MatrixBlock acc = MatrixBlock::Dense(cols_, y.cols_);
  for (size_t i = 0; i < partitions_.size(); ++i) {
    const Partition& px = partitions_[i];
    const Partition& py = y.partitions_[i];
    if (px.worker_id != py.worker_id || px.row_begin != py.row_begin) {
      return InvalidArgument("federated tmm: misaligned partitions");
    }
    FederatedMessage req;
    req.type = FederatedMessage::Type::kExec;
    req.opcode = "tmm";
    req.names = {px.var_name, py.var_name};
    SYSDS_ASSIGN_OR_RETURN(
        MatrixBlock part,
        CallPartition(
            px, req,
            [&]() -> Status {
              // A crash wipes every variable at the site: restore both.
              SYSDS_RETURN_IF_ERROR(RePut(px));
              return y.RePut(py);
            },
            [&]() -> StatusOr<MatrixBlock> {
              SYSDS_ASSIGN_OR_RETURN(MatrixBlock xs, SourceSlice(px));
              SYSDS_ASSIGN_OR_RETURN(MatrixBlock ys, y.SourceSlice(py));
              return TransposeLeftMatMult(xs, ys, 0);
            }));
    SYSDS_ASSIGN_OR_RETURN(
        acc, BinaryMatrixMatrix(BinaryOpCode::kAdd, acc, part, 0));
  }
  return acc;
}

StatusOr<MatrixBlock> FederatedMatrix::MatVec(const MatrixBlock& v) const {
  if (v.Rows() != cols_ || v.Cols() != 1) {
    return InvalidArgument("federated matvec: vector shape mismatch");
  }
  MatrixBlock out = MatrixBlock::Dense(rows_, 1);
  for (const Partition& p : partitions_) {
    FederatedMessage req;
    req.type = FederatedMessage::Type::kExec;
    req.opcode = "matvec";
    req.names = {p.var_name};
    req.payload = SerializeMatrix(v);
    SYSDS_ASSIGN_OR_RETURN(
        MatrixBlock part,
        CallPartition(
            p, req, [&] { return RePut(p); },
            [&]() -> StatusOr<MatrixBlock> {
              SYSDS_ASSIGN_OR_RETURN(MatrixBlock slice, SourceSlice(p));
              return MatMult(slice, v, 0);
            }));
    for (int64_t r = 0; r < part.Rows(); ++r) {
      out.DenseData()[p.row_begin + r] = part.Get(r, 0);
    }
  }
  out.MarkNnzDirty();
  return out;
}

StatusOr<MatrixBlock> FederatedMatrix::ColSums() const {
  MatrixBlock acc = MatrixBlock::Dense(1, cols_);
  for (const Partition& p : partitions_) {
    FederatedMessage req;
    req.type = FederatedMessage::Type::kExec;
    req.opcode = "colsums";
    req.names = {p.var_name};
    SYSDS_ASSIGN_OR_RETURN(
        MatrixBlock part,
        CallPartition(
            p, req, [&] { return RePut(p); },
            [&]() -> StatusOr<MatrixBlock> {
              SYSDS_ASSIGN_OR_RETURN(MatrixBlock slice, SourceSlice(p));
              return AggregateRowCol(AggOpCode::kSum, AggDirection::kCol,
                                     slice, 0);
            }));
    SYSDS_ASSIGN_OR_RETURN(
        acc, BinaryMatrixMatrix(BinaryOpCode::kAdd, acc, part, 0));
  }
  return acc;
}

StatusOr<MatrixBlock> FederatedMatrix::Collect() const {
  MatrixBlock out = MatrixBlock::Dense(rows_, cols_);
  for (const Partition& p : partitions_) {
    FederatedMessage req;
    req.type = FederatedMessage::Type::kGetMatrix;
    req.names = {p.var_name};
    SYSDS_ASSIGN_OR_RETURN(
        MatrixBlock part,
        CallPartition(
            p, req, [&] { return RePut(p); },
            [&]() -> StatusOr<MatrixBlock> { return SourceSlice(p); }));
    for (int64_t r = 0; r < part.Rows(); ++r) {
      for (int64_t c = 0; c < cols_; ++c) {
        out.DenseRow(p.row_begin + r)[c] = part.Get(r, c);
      }
    }
  }
  out.MarkNnzDirty();
  out.ExamSparsity();
  return out;
}

StatusOr<MatrixBlock> FederatedLmDS(const FederatedMatrix& x,
                                    const FederatedMatrix& y, double reg) {
  SYSDS_ASSIGN_OR_RETURN(MatrixBlock a, x.TsmmLeft());
  SYSDS_ASSIGN_OR_RETURN(MatrixBlock b, x.Tmm(y));
  a.ToDense();
  for (int64_t i = 0; i < a.Rows(); ++i) {
    a.DenseRow(i)[i] += reg;
  }
  a.MarkNnzDirty();
  return Solve(a, b);
}

}  // namespace sysds
