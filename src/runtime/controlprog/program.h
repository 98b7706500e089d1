#ifndef SYSDS_RUNTIME_CONTROLPROG_PROGRAM_H_
#define SYSDS_RUNTIME_CONTROLPROG_PROGRAM_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "compiler/hop.h"
#include "runtime/controlprog/execution_context.h"
#include "runtime/controlprog/instruction.h"

namespace sysds {

/// Runtime program blocks (paper §2.3(3)): the compiled program is a tree
/// of blocks interpreted by the control program; basic blocks carry their
/// HOP DAG for dynamic recompilation.
class ProgramBlock {
 public:
  virtual ~ProgramBlock() = default;
  virtual Status Execute(ExecutionContext* ec) = 0;
  /// Renders this block for the `explain` plan output.
  virtual void Explain(std::ostream& os, int indent) const = 0;
};

using ProgramBlockPtr = std::unique_ptr<ProgramBlock>;

/// Loop annotations computed by AnnotateLoopLiveness (src/compiler/
/// liveness.cc) and consumed by the checkpoint/restart subsystem
/// (src/runtime/recovery/): a stable loop id, the loop-carried variables a
/// checkpoint must persist (everything the body writes that survives the
/// iteration), and the read-only matrix/frame inputs whose lineage is
/// validated on resume instead of being re-saved every checkpoint.
struct LoopLiveness {
  int loop_id = -1;  // -1 = not annotated (checkpointing skips the loop)
  std::vector<std::string> checkpoint_vars;
  std::vector<std::string> invariant_reads;
};

/// A straight-line sequence of instructions compiled from one HOP DAG.
///
/// A block whose DAG had unknown sizes at compile time is recompiled before
/// it runs (paper §2.3(3)). The recompiled plan is keyed by the live dims
/// and nnz of the block's matrix/frame transient reads: a run whose key
/// matches the current plan reuses it; otherwise the block recompiles under
/// its mutex and swaps the new plan in, while threads still running the old
/// plan keep it alive (they hold a shared_ptr to it). So function bodies and
/// parfor bodies, which many threads share, can recompile. The static plan
/// (`Instructions()`) is never overwritten; `Explain` and the checkpoint
/// program hash use it.
class BasicBlock final : public ProgramBlock {
 public:
  Status Execute(ExecutionContext* ec) override;

  /// The static plan: the instructions generated at compile time.
  std::vector<InstructionPtr>& Instructions() { return instructions_; }

  /// Attaches the block's HOP DAG; with `requires_recompile`, Execute
  /// compiles a size-keyed plan from it whenever recompilation is enabled.
  void SetHops(std::vector<HopPtr> roots, bool requires_recompile);

  void Explain(std::ostream& os, int indent) const override;

 private:
  struct Plan {
    std::vector<int64_t> key;
    std::vector<InstructionPtr> instructions;
  };

  /// The plan for the live sizes in `ec`, recompiled if the key changed.
  StatusOr<std::shared_ptr<const Plan>> PlanFor(ExecutionContext* ec);

  std::vector<InstructionPtr> instructions_;
  std::vector<HopPtr> hop_roots_;
  bool requires_recompile_ = false;
  // The transient reads the key is taken from (owned by hop_roots_).
  std::vector<Hop*> key_reads_;
  // Guards plan_ and, while recompiling, the sizes in hop_roots_.
  std::mutex plan_mu_;
  std::shared_ptr<const Plan> plan_;
};

/// A compiled predicate: instructions that produce a scalar in `result_var`.
struct Predicate {
  std::vector<InstructionPtr> instructions;
  std::string result_var;
  std::vector<HopPtr> hop_roots;

  StatusOr<DataPtr> Evaluate(ExecutionContext* ec) const;
};

class IfBlock final : public ProgramBlock {
 public:
  Status Execute(ExecutionContext* ec) override;

  Predicate& GetPredicate() { return predicate_; }
  std::vector<ProgramBlockPtr>& ThenBlocks() { return then_blocks_; }
  std::vector<ProgramBlockPtr>& ElseBlocks() { return else_blocks_; }

  void Explain(std::ostream& os, int indent) const override;

 private:
  Predicate predicate_;
  std::vector<ProgramBlockPtr> then_blocks_;
  std::vector<ProgramBlockPtr> else_blocks_;
};

class WhileBlock final : public ProgramBlock {
 public:
  Status Execute(ExecutionContext* ec) override;

  Predicate& GetPredicate() { return predicate_; }
  std::vector<ProgramBlockPtr>& Body() { return body_; }

  LoopLiveness& Liveness() { return liveness_; }
  const LoopLiveness& Liveness() const { return liveness_; }

  void Explain(std::ostream& os, int indent) const override;

 private:
  Predicate predicate_;
  std::vector<ProgramBlockPtr> body_;
  LoopLiveness liveness_;
};

class ForBlock : public ProgramBlock {
 public:
  Status Execute(ExecutionContext* ec) override;

  void Explain(std::ostream& os, int indent) const override;

  std::string& LoopVar() { return loop_var_; }
  Predicate& From() { return from_; }
  Predicate& To() { return to_; }
  Predicate& Increment() { return increment_; }
  std::vector<ProgramBlockPtr>& Body() { return body_; }

  LoopLiveness& Liveness() { return liveness_; }
  const LoopLiveness& Liveness() const { return liveness_; }

 protected:
  StatusOr<std::vector<double>> EvaluateRange(ExecutionContext* ec) const;

  std::string loop_var_;
  Predicate from_, to_, increment_;
  std::vector<ProgramBlockPtr> body_;
  LoopLiveness liveness_;
};

/// Parallel for (paper §2.3(4)): local multi-threaded workers over disjoint
/// iteration ranges with compare-and-merge of result variables.
class ParForBlock final : public ForBlock {
 public:
  Status Execute(ExecutionContext* ec) override;

  /// Variables assigned in the body that are live afterwards (merged back).
  std::vector<std::string>& ResultVars() { return result_vars_; }

 private:
  std::vector<std::string> result_vars_;
};

/// A user-defined or DML-bodied builtin function.
class FunctionBlock {
 public:
  struct Param {
    std::string name;
    DataType dt = DataType::kScalar;
    ValueType vt = ValueType::kFP64;
    bool has_default = false;
    LitValue default_value;
  };

  std::string name;
  std::vector<Param> params;
  std::vector<Param> returns;
  std::vector<ProgramBlockPtr> body;

  Status Execute(ExecutionContext* caller, const std::vector<Operand>& args,
                 const std::vector<std::string>& arg_names,
                 const std::vector<Operand>& outputs) const;
};

/// The compiled runtime program: top-level blocks plus the function
/// directory (user functions and loaded DML-bodied builtins).
class Program {
 public:
  std::vector<ProgramBlockPtr>& Blocks() { return blocks_; }
  std::map<std::string, std::shared_ptr<FunctionBlock>>& Functions() {
    return functions_;
  }

  StatusOr<const FunctionBlock*> GetFunction(const std::string& name) const;

  Status Execute(ExecutionContext* ec);

  /// Renders the whole runtime plan: functions then top-level blocks.
  std::string Explain() const;

 private:
  std::vector<ProgramBlockPtr> blocks_;
  std::map<std::string, std::shared_ptr<FunctionBlock>> functions_;
};

/// Executes a straight-line instruction sequence with the lineage/reuse
/// wrapper (trace -> probe -> execute -> cache) described in §3.1.
Status ExecuteInstructions(const std::vector<InstructionPtr>& instructions,
                           ExecutionContext* ec);

}  // namespace sysds

#endif  // SYSDS_RUNTIME_CONTROLPROG_PROGRAM_H_
