#include "api/systemds_context.h"

#include <fstream>
#include <sstream>

#include "common/util.h"
#include "compiler/compiler.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/recovery/checkpoint_manager.h"

namespace sysds {

StatusOr<MatrixBlock> ScriptResult::GetMatrix(const std::string& name) const {
  auto it = values_.find(name);
  if (it == values_.end()) return NotFound("output '" + name + "' not found");
  SYSDS_ASSIGN_OR_RETURN(MatrixObject * m, AsMatrix(it->second, name));
  SYSDS_ASSIGN_OR_RETURN(const MatrixBlock* blk, m->AcquireRead());
  MatrixBlock copy = *blk;
  m->Release();
  return copy;
}

StatusOr<double> ScriptResult::GetDouble(const std::string& name) const {
  auto it = values_.find(name);
  if (it == values_.end()) return NotFound("output '" + name + "' not found");
  SYSDS_ASSIGN_OR_RETURN(ScalarObject * s, AsScalar(it->second, name));
  return s->AsDouble();
}

StatusOr<std::string> ScriptResult::GetString(const std::string& name) const {
  auto it = values_.find(name);
  if (it == values_.end()) return NotFound("output '" + name + "' not found");
  SYSDS_ASSIGN_OR_RETURN(ScalarObject * s, AsScalar(it->second, name));
  return s->AsString();
}

StatusOr<std::string> ScriptResult::GetLineage(const std::string& name) const {
  auto it = lineage_.find(name);
  if (it == lineage_.end()) {
    return NotFound("no lineage for '" + name +
                    "' (enable lineage_tracing or reuse)");
  }
  return it->second;
}

StatusOr<FrameBlock> ScriptResult::GetFrame(const std::string& name) const {
  auto it = values_.find(name);
  if (it == values_.end()) return NotFound("output '" + name + "' not found");
  SYSDS_ASSIGN_OR_RETURN(FrameObject * f, AsFrame(it->second, name));
  return f->Frame();
}

Inputs& Inputs::Matrix(const std::string& name, MatrixBlock value) {
  bindings_[name] = std::make_shared<MatrixObject>(std::move(value));
  return *this;
}
Inputs& Inputs::Frame(const std::string& name, FrameBlock value) {
  bindings_[name] = std::make_shared<FrameObject>(std::move(value));
  return *this;
}
Inputs& Inputs::Scalar(const std::string& name, double value) {
  bindings_[name] = ScalarObject::MakeDouble(value);
  return *this;
}
Inputs& Inputs::Integer(const std::string& name, int64_t value) {
  bindings_[name] = ScalarObject::MakeInt(value);
  return *this;
}
Inputs& Inputs::Boolean(const std::string& name, bool value) {
  bindings_[name] = ScalarObject::MakeBool(value);
  return *this;
}
Inputs& Inputs::String(const std::string& name, std::string value) {
  bindings_[name] = ScalarObject::MakeString(std::move(value));
  return *this;
}
Inputs& Inputs::Bind(const std::string& name, DataPtr value) {
  bindings_[name] = std::move(value);
  return *this;
}

namespace {

SymbolInfo InfoOf(const DataPtr& d) {
  SymbolInfo info;
  if (auto* m = dynamic_cast<MatrixObject*>(d.get())) {
    info.dt = DataType::kMatrix;
    info.vt = ValueType::kFP64;
    info.dim1 = m->Rows();
    info.dim2 = m->Cols();
    info.nnz = m->NonZeros();
  } else if (auto* f = dynamic_cast<FrameObject*>(d.get())) {
    info.dt = DataType::kFrame;
    info.vt = ValueType::kString;
    info.dim1 = f->Frame().Rows();
    info.dim2 = f->Frame().Cols();
  } else if (auto* s = dynamic_cast<ScalarObject*>(d.get())) {
    info.dt = DataType::kScalar;
    info.vt = s->GetValueType();
    info.dim1 = 0;
    info.dim2 = 0;
  }
  return info;
}

struct RunOptions {
  bool allow_recompile = true;
  std::optional<std::chrono::steady_clock::time_point> deadline;
  std::shared_ptr<CancellationToken> cancel;
};

StatusOr<ScriptResult> RunProgram(Program* program, const DMLConfig* config,
                                  LineageCache* cache,
                                  std::shared_ptr<BufferPool> pool,
                                  const std::map<std::string, DataPtr>& inputs,
                                  const std::vector<std::string>& outputs,
                                  const RunOptions& run = {}) {
  ExecutionContext ec(program, config);
  ec.SetCache(cache);
  ec.SetPool(std::move(pool));
  ec.SetRecompileAllowed(run.allow_recompile);
  if (run.deadline.has_value()) {
    // Fail fast if the deadline already passed before any work.
    if (std::chrono::steady_clock::now() >= *run.deadline) {
      return TimeoutError("request deadline expired before execution");
    }
    ec.SetDeadline(*run.deadline);
  }
  if (run.cancel != nullptr) {
    if (run.cancel->Cancelled()) {
      return CancelledError("request cancelled before execution");
    }
    ec.SetCancelToken(run.cancel);
  }
  std::ostringstream out;
  ec.SetOut(&out);
  // Checkpoint/restart: one manager per run, bound to the root context only
  // (children never checkpoint). The program identity hash versions the
  // checkpoint state: a manifest from a different program is rejected.
  std::unique_ptr<CheckpointManager> checkpoints;
  if (!config->checkpoint_dir.empty()) {
    CheckpointManager::Options opts;
    opts.dir = config->checkpoint_dir;
    opts.interval = config->checkpoint_interval;
    opts.resume = config->checkpoint_resume;
    checkpoints = std::make_unique<CheckpointManager>(
        std::move(opts), ProgramIdentityHash(program->Explain()));
    SYSDS_RETURN_IF_ERROR(checkpoints->PrepareResume());
    ec.SetCheckpoints(checkpoints.get());
  }
  for (const auto& [name, value] : inputs) {
    ec.SetVar(name, value);
  }
  if (ec.TracingEnabled()) {
    // Trace bound inputs by value identity, not variable name: with a
    // reuse cache shared across executions (PreparedScript, serving), a
    // name-only leaf would alias different inputs bound to the same name
    // and serve one request's cached intermediates for another's data.
    // Scalars trace their value (equal scalars legitimately reuse);
    // matrices and frames trace the process-unique object id, so reuse
    // happens exactly when callers share the same in-memory object.
    for (const auto& [name, value] : inputs) {
      if (auto* s = dynamic_cast<ScalarObject*>(value.get())) {
        ec.Lineage()->Set(
            name, LineageItem::Leaf("in", ValueTypeName(s->GetValueType()) +
                                              (":" + s->AsString())));
      } else {
        ec.Lineage()->Set(name, LineageItem::Leaf(
                                    "in", "obj" + std::to_string(
                                                      value->ObjectId())));
      }
    }
  }
  SYSDS_RETURN_IF_ERROR(program->Execute(&ec));
  ScriptResult result;
  for (const std::string& name : outputs) {
    SYSDS_ASSIGN_OR_RETURN(DataPtr d, ec.Vars().Get(name));
    result.SetValue(name, std::move(d));
    if (ec.TracingEnabled()) {
      LineageItemPtr item = ec.Lineage()->GetOrNull(name);
      if (item != nullptr) result.SetLineageText(name, item->Serialize());
    }
  }
  result.SetOutputText(out.str());
  return result;
}

}  // namespace

SystemDSContext::Builder& SystemDSContext::Builder::WithConfig(
    DMLConfig config) {
  config_ = config;
  return *this;
}
SystemDSContext::Builder& SystemDSContext::Builder::NumThreads(int n) {
  config_.num_threads = n;
  return *this;
}
SystemDSContext::Builder& SystemDSContext::Builder::CpMemoryBudget(
    int64_t bytes) {
  config_.cp_memory_budget = bytes;
  return *this;
}
SystemDSContext::Builder& SystemDSContext::Builder::BufferPoolLimit(
    int64_t bytes) {
  config_.buffer_pool_limit = bytes;
  return *this;
}
SystemDSContext::Builder& SystemDSContext::Builder::BufferPoolPrefetch(
    bool on) {
  config_.buffer_pool_prefetch = on;
  return *this;
}
SystemDSContext::Builder& SystemDSContext::Builder::BlockSize(int64_t rows) {
  config_.block_size = rows;
  return *this;
}
SystemDSContext::Builder& SystemDSContext::Builder::LineageTracing(bool on) {
  config_.lineage_tracing = on;
  return *this;
}
SystemDSContext::Builder& SystemDSContext::Builder::Reuse(ReusePolicy policy) {
  config_.reuse_policy = policy;
  return *this;
}
SystemDSContext::Builder& SystemDSContext::Builder::LineageCacheLimit(
    int64_t bytes) {
  config_.lineage_cache_limit = bytes;
  return *this;
}
SystemDSContext::Builder& SystemDSContext::Builder::LineageDedup(bool on) {
  config_.lineage_dedup = on;
  return *this;
}
SystemDSContext::Builder& SystemDSContext::Builder::DynamicRecompilation(
    bool on) {
  config_.dynamic_recompilation = on;
  return *this;
}
SystemDSContext::Builder& SystemDSContext::Builder::Fusion(bool on) {
  config_.fusion_enabled = on;
  return *this;
}
SystemDSContext::Builder& SystemDSContext::Builder::FusionThreshold(
    int64_t bytes) {
  config_.fusion_min_intermediate_bytes = bytes;
  return *this;
}
SystemDSContext::Builder& SystemDSContext::Builder::Compression(bool on) {
  config_.compression_enabled = on;
  return *this;
}
SystemDSContext::Builder& SystemDSContext::Builder::CompressionMinSize(
    int64_t bytes) {
  config_.compression_min_size_bytes = bytes;
  return *this;
}
SystemDSContext::Builder& SystemDSContext::Builder::TransformOutput(
    TransformOutputFormat format) {
  config_.transform_output = format;
  return *this;
}
SystemDSContext::Builder& SystemDSContext::Builder::Statistics(bool on) {
  config_.statistics = on;
  return *this;
}
SystemDSContext::Builder& SystemDSContext::Builder::EnableTracing(
    std::string path) {
  trace_path_ = std::move(path);
  return *this;
}
SystemDSContext::Builder& SystemDSContext::Builder::EnableMetricsExport(
    std::string path) {
  metrics_path_ = std::move(path);
  return *this;
}
SystemDSContext::Builder& SystemDSContext::Builder::Chaos(FaultConfig faults) {
  config_.faults = std::move(faults);
  return *this;
}
SystemDSContext::Builder& SystemDSContext::Builder::ChaosSeed(uint64_t seed) {
  config_.faults.enabled = true;
  config_.faults.seed = seed;
  config_.faults.profile = FaultProfile::Standard();
  return *this;
}
SystemDSContext::Builder& SystemDSContext::Builder::Checkpointing(
    std::string dir, int64_t interval) {
  config_.checkpoint_dir = std::move(dir);
  config_.checkpoint_interval = interval;
  return *this;
}
SystemDSContext::Builder& SystemDSContext::Builder::Resume(bool on) {
  config_.checkpoint_resume = on;
  return *this;
}

std::unique_ptr<SystemDSContext> SystemDSContext::Builder::Build() const {
  auto ctx = std::make_unique<SystemDSContext>(config_);
  ctx->trace_path_ = trace_path_;
  ctx->metrics_path_ = metrics_path_;
  if (!trace_path_.empty()) obs::Tracer::Get().Enable();
  return ctx;
}

SystemDSContext::SystemDSContext() : SystemDSContext(DMLConfig()) {}

SystemDSContext::SystemDSContext(DMLConfig config)
    : config_(std::make_shared<DMLConfig>(config)) {
  BufferPool::Options pool_options;
  pool_options.limit_bytes = config_->buffer_pool_limit;
  pool_options.prefetch = config_->buffer_pool_prefetch;
  pool_ = std::make_shared<BufferPool>(pool_options);
  cache_ = std::make_shared<LineageCache>(config_->lineage_cache_limit,
                                          config_->reuse_policy);
  if (config_->faults.enabled) {
    FaultInjector::Get().Configure(config_->faults);
    owns_fault_injection_ = true;
  }
}

SystemDSContext::~SystemDSContext() {
  FlushObservability();  // best-effort; failures only matter on explicit calls
  if (owns_fault_injection_) FaultInjector::Get().Disable();
}

Status SystemDSContext::FlushObservability() {
  if (!trace_path_.empty()) {
    obs::Tracer::Get().Disable();
    std::string path;
    std::swap(path, trace_path_);
    SYSDS_RETURN_IF_ERROR(obs::Tracer::Get().WriteChromeTrace(path));
  }
  if (!metrics_path_.empty()) {
    std::string path;
    std::swap(path, metrics_path_);
    std::ofstream out(path);
    if (!out) return IoError("cannot open metrics output file: " + path);
    out << obs::MetricsRegistry::Get().ExportJson() << "\n";
    if (!out) return IoError("failed writing metrics output file: " + path);
  }
  return Status::Ok();
}

StatusOr<ScriptResult> SystemDSContext::Execute(const std::string& script,
                                                const Inputs& inputs,
                                                const Outputs& outputs,
                                                const ExecuteOptions& options) {
  SymbolInfoMap infos;
  for (const auto& [name, value] : inputs.Bindings()) {
    infos[name] = InfoOf(value);
  }
  SYSDS_ASSIGN_OR_RETURN(std::unique_ptr<Program> program,
                         CompileDML(script, *config_, infos));
  RunOptions run;
  run.deadline = options.deadline;
  run.cancel = options.cancel;
  return RunProgram(program.get(), config_.get(), cache_.get(), pool_,
                    inputs.Bindings(), outputs.Names(), run);
}

StatusOr<std::unique_ptr<PreparedScript>> SystemDSContext::Prepare(
    const std::string& script,
    const std::map<std::string, SymbolInfo>& input_infos) {
  SYSDS_ASSIGN_OR_RETURN(std::unique_ptr<Program> program,
                         CompileDML(script, *config_, input_infos));
  auto prepared = std::make_unique<PreparedScript>();
  prepared->program_ = std::move(program);
  prepared->config_ = config_;
  prepared->cache_ = cache_;
  prepared->pool_ = pool_;
  return prepared;
}

StatusOr<std::string> SystemDSContext::Explain(
    const std::string& script,
    const std::map<std::string, SymbolInfo>& input_infos) {
  SYSDS_ASSIGN_OR_RETURN(std::unique_ptr<Program> program,
                         CompileDML(script, *config_, input_infos));
  return program->Explain();
}

StatusOr<ScriptResult> PreparedScript::Execute(
    const Inputs& inputs, const Outputs& outputs,
    const ExecuteOptions& options) const {
  RunOptions run;
  // The Program is shared by concurrent executors; in-place block
  // recompilation would race (same reasoning as parfor workers).
  run.allow_recompile = false;
  run.deadline = options.deadline;
  run.cancel = options.cancel;
  return RunProgram(program_.get(), config_.get(), cache_.get(), pool_,
                    inputs.Bindings(), outputs.Names(), run);
}

}  // namespace sysds
