#ifndef SYSDS_RUNTIME_CONTROLPROG_EXECUTION_CONTEXT_H_
#define SYSDS_RUNTIME_CONTROLPROG_EXECUTION_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <iostream>
#include <map>
#include <memory>
#include <string>

#include "common/config.h"
#include "common/status.h"
#include "runtime/controlprog/data.h"
#include "runtime/controlprog/instruction.h"

namespace sysds {

class Program;
class BufferPool;
class LineageMap;
class LineageCache;
class FederatedRegistry;
class CheckpointManager;

/// Cooperative cancellation signal shared between a request submitter and
/// the executing context tree (root, function scopes, parfor workers). The
/// interpreter polls it between instructions, so cancellation takes effect
/// at the next instruction boundary.
class CancellationToken {
 public:
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool Cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

/// The variable environment of a (control) program scope.
class SymbolTable {
 public:
  StatusOr<DataPtr> Get(const std::string& name) const;
  DataPtr GetOrNull(const std::string& name) const;
  void Set(const std::string& name, DataPtr value);
  void Remove(const std::string& name);
  bool Contains(const std::string& name) const;
  const std::map<std::string, DataPtr>& All() const { return vars_; }

 private:
  std::map<std::string, DataPtr> vars_;
};

/// Execution state threaded through the interpreter: symbol table, config,
/// lineage, buffer pool, and the program (for function lookup). Child
/// contexts (function calls, parfor workers) share program/config/cache/
/// pool but get their own symbol table and lineage map.
class ExecutionContext {
 public:
  ExecutionContext(Program* program, const DMLConfig* config);
  ~ExecutionContext();

  SymbolTable& Vars() { return vars_; }
  const DMLConfig& Config() const { return *config_; }
  Program* GetProgram() const { return program_; }

  int NumThreads() const;

  // Operand resolution.
  StatusOr<DataPtr> Resolve(const Operand& op) const;
  StatusOr<double> GetDouble(const Operand& op) const;
  StatusOr<int64_t> GetInt(const Operand& op) const;
  StatusOr<bool> GetBool(const Operand& op) const;
  StatusOr<std::string> GetString(const Operand& op) const;
  StatusOr<MatrixObject*> GetMatrix(const Operand& op) const;
  StatusOr<FrameObject*> GetFrame(const Operand& op) const;

  void SetOutput(const Operand& op, DataPtr value);

  /// Stores `value` under `name`. The one way a matrix enters this
  /// context's variables: the first store binds it to this context's
  /// buffer pool (MatrixObject::BindPool); later stores, here or in any
  /// other context, leave it in that pool.
  void SetVar(const std::string& name, DataPtr value);

  /// The context's buffer pool (shared with child contexts); nullptr when
  /// matrices are not pool-managed.
  BufferPool* Pool() const { return pool_.get(); }
  void SetPool(std::shared_ptr<BufferPool> pool) { pool_ = std::move(pool); }

  // Lineage: each context (root, function scope, parfor worker) owns its
  // own map of live variables to lineage items; the reuse cache is shared.
  LineageMap* Lineage() const { return lineage_.get(); }
  LineageCache* Cache() const { return cache_; }
  void SetCache(LineageCache* cache) { cache_ = cache; }
  bool TracingEnabled() const;

  FederatedRegistry* Federated() const { return federated_; }
  void SetFederated(FederatedRegistry* fed) { federated_ = fed; }

  // Checkpoint/restart (src/runtime/recovery/): set on the root context
  // only. Deliberately NOT propagated to children — loops inside function
  // calls and parfor workers are covered by the outermost loop's checkpoint
  // (or by prefix re-execution), never checkpointed themselves.
  CheckpointManager* Checkpoints() const { return checkpoints_; }
  void SetCheckpoints(CheckpointManager* cm) { checkpoints_ = cm; }

  // Script output stream (print/toString); tests redirect it.
  std::ostream& Out() const { return *out_; }
  void SetOut(std::ostream* out) { out_ = out; }

  // Whether basic blocks may recompile for live sizes. Prepared scripts turn
  // it off (their sizes come from Prepare); function calls and parfor
  // workers inherit it. Size-keyed plans make recompiling a block that
  // other threads are running safe.
  bool RecompileAllowed() const { return recompile_allowed_; }
  void SetRecompileAllowed(bool v) { recompile_allowed_ = v; }

  // Per-request deadline and cancellation (serving): both are polled by the
  // interpreter between instructions. Propagated to child contexts so
  // function calls and parfor workers observe the same request lifetime.
  void SetDeadline(std::chrono::steady_clock::time_point deadline) {
    deadline_ = deadline;
    has_deadline_ = true;
  }
  void SetCancelToken(std::shared_ptr<CancellationToken> token) {
    cancel_ = std::move(token);
  }
  /// Cheap test whether any interrupt source is configured (hot path guard).
  bool HasInterrupt() const { return has_deadline_ || cancel_ != nullptr; }
  /// kCancelled if the token fired, kTimeout if past the deadline, Ok else.
  Status CheckInterrupt() const;

  /// Creates a child context for function calls / parfor workers.
  std::unique_ptr<ExecutionContext> CreateChild() const;

 private:
  Program* program_;
  const DMLConfig* config_;
  SymbolTable vars_;
  std::unique_ptr<LineageMap> lineage_;
  LineageCache* cache_ = nullptr;
  std::shared_ptr<BufferPool> pool_;
  FederatedRegistry* federated_ = nullptr;
  CheckpointManager* checkpoints_ = nullptr;
  std::ostream* out_ = &std::cout;
  bool recompile_allowed_ = true;
  bool has_deadline_ = false;
  std::chrono::steady_clock::time_point deadline_{};
  std::shared_ptr<CancellationToken> cancel_;
};

}  // namespace sysds

#endif  // SYSDS_RUNTIME_CONTROLPROG_EXECUTION_CONTEXT_H_
