#include "runtime/controlprog/execution_context.h"

#include "common/thread_pool.h"
#include "lineage/lineage.h"

namespace sysds {

StatusOr<DataPtr> SymbolTable::Get(const std::string& name) const {
  auto it = vars_.find(name);
  if (it == vars_.end()) {
    return RuntimeError("variable '" + name + "' is not defined");
  }
  return it->second;
}

DataPtr SymbolTable::GetOrNull(const std::string& name) const {
  auto it = vars_.find(name);
  return it == vars_.end() ? nullptr : it->second;
}

void SymbolTable::Set(const std::string& name, DataPtr value) {
  vars_[name] = std::move(value);
}

void SymbolTable::Remove(const std::string& name) { vars_.erase(name); }

bool SymbolTable::Contains(const std::string& name) const {
  return vars_.count(name) > 0;
}

ExecutionContext::ExecutionContext(Program* program, const DMLConfig* config)
    : program_(program),
      config_(config),
      lineage_(std::make_unique<LineageMap>()) {}

ExecutionContext::~ExecutionContext() = default;

bool ExecutionContext::TracingEnabled() const {
  return config_->lineage_tracing ||
         config_->reuse_policy != ReusePolicy::kNone;
}

int ExecutionContext::NumThreads() const {
  return config_->num_threads > 0 ? config_->num_threads
                                  : DefaultParallelism();
}

StatusOr<DataPtr> ExecutionContext::Resolve(const Operand& op) const {
  if (op.is_literal) {
    switch (op.lit.vt) {
      case ValueType::kFP64: return ScalarObject::MakeDouble(op.lit.d);
      case ValueType::kInt64: return ScalarObject::MakeInt(op.lit.i);
      case ValueType::kBoolean: return ScalarObject::MakeBool(op.lit.b);
      default: return ScalarObject::MakeString(op.lit.s);
    }
  }
  return vars_.Get(op.name);
}

StatusOr<double> ExecutionContext::GetDouble(const Operand& op) const {
  if (op.is_literal) return op.lit.AsDouble();
  SYSDS_ASSIGN_OR_RETURN(DataPtr d, vars_.Get(op.name));
  SYSDS_ASSIGN_OR_RETURN(ScalarObject * s, AsScalar(d, op.name));
  return s->AsDouble();
}

StatusOr<int64_t> ExecutionContext::GetInt(const Operand& op) const {
  if (op.is_literal) return op.lit.AsInt();
  SYSDS_ASSIGN_OR_RETURN(DataPtr d, vars_.Get(op.name));
  SYSDS_ASSIGN_OR_RETURN(ScalarObject * s, AsScalar(d, op.name));
  return s->AsInt();
}

StatusOr<bool> ExecutionContext::GetBool(const Operand& op) const {
  if (op.is_literal) return op.lit.AsBool();
  SYSDS_ASSIGN_OR_RETURN(DataPtr d, vars_.Get(op.name));
  SYSDS_ASSIGN_OR_RETURN(ScalarObject * s, AsScalar(d, op.name));
  return s->AsBool();
}

StatusOr<std::string> ExecutionContext::GetString(const Operand& op) const {
  if (op.is_literal) return op.lit.AsString();
  SYSDS_ASSIGN_OR_RETURN(DataPtr d, vars_.Get(op.name));
  SYSDS_ASSIGN_OR_RETURN(ScalarObject * s, AsScalar(d, op.name));
  return s->AsString();
}

StatusOr<MatrixObject*> ExecutionContext::GetMatrix(const Operand& op) const {
  SYSDS_ASSIGN_OR_RETURN(DataPtr d, vars_.Get(op.name));
  return AsMatrix(d, op.name);
}

StatusOr<FrameObject*> ExecutionContext::GetFrame(const Operand& op) const {
  SYSDS_ASSIGN_OR_RETURN(DataPtr d, vars_.Get(op.name));
  return AsFrame(d, op.name);
}

void ExecutionContext::SetOutput(const Operand& op, DataPtr value) {
  SetVar(op.name, std::move(value));
}

void ExecutionContext::SetVar(const std::string& name, DataPtr value) {
  if (pool_ != nullptr && value != nullptr &&
      value->GetDataType() == DataType::kMatrix) {
    static_cast<MatrixObject*>(value.get())->BindPool(pool_);
  }
  vars_.Set(name, std::move(value));
}

Status ExecutionContext::CheckInterrupt() const {
  if (cancel_ != nullptr && cancel_->Cancelled()) {
    return CancelledError("execution cancelled");
  }
  if (has_deadline_ && std::chrono::steady_clock::now() >= deadline_) {
    return TimeoutError("request deadline exceeded during execution");
  }
  return Status::Ok();
}

std::unique_ptr<ExecutionContext> ExecutionContext::CreateChild() const {
  auto child = std::make_unique<ExecutionContext>(program_, config_);
  child->cache_ = cache_;
  child->pool_ = pool_;
  child->federated_ = federated_;
  child->out_ = out_;
  child->recompile_allowed_ = recompile_allowed_;
  child->has_deadline_ = has_deadline_;
  child->deadline_ = deadline_;
  child->cancel_ = cancel_;
  return child;
}

}  // namespace sysds
