#ifndef SYSDS_RUNTIME_CONTROLPROG_INSTRUCTIONS_CP_H_
#define SYSDS_RUNTIME_CONTROLPROG_INSTRUCTIONS_CP_H_

#include <map>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/status.h"
#include "runtime/controlprog/instruction.h"
#include "runtime/matrix/lib_fused.h"

namespace sysds {

// The local (control-program) instruction set. Construction convention:
// operands are added via AddInput/AddOutput by the code generator; the
// constructors only fix opcode/exec-type and any static parameters.

/// Elementwise binary: scalar-scalar, matrix-scalar, matrix-matrix (with
/// broadcasting). Opcodes: + - * / ^ %% %/% min max == != < <= > >= & | xor.
class BinaryInstr final : public Instruction {
 public:
  explicit BinaryInstr(const std::string& opcode)
      : Instruction(opcode, ExecType::kCP) {}
  Status Execute(ExecutionContext* ec) override;
  bool IsReusable() const override;
};

/// Elementwise/metadata unary. Opcodes: exp log sqrt abs round floor ceil
/// sin cos tan sign sigmoid ! uminus nrow ncol length.
class UnaryInstr final : public Instruction {
 public:
  explicit UnaryInstr(const std::string& opcode)
      : Instruction(opcode, ExecType::kCP) {}
  Status Execute(ExecutionContext* ec) override;
  bool IsReusable() const override;
};

/// Full/row/column aggregates; opcode = AggOpName(op, dir), e.g. "uasum",
/// "uarmax", "uacmean".
class AggUnaryInstr final : public Instruction {
 public:
  explicit AggUnaryInstr(const std::string& opcode)
      : Instruction(opcode, ExecType::kCP) {}
  Status Execute(ExecutionContext* ec) override;
  bool IsReusable() const override;
};

/// Fused elementwise(+aggregate) pipeline over a micro-plan produced by the
/// fusion planner (compiler/fusion.h). Operand layout: plan.num_inputs
/// matrix inputs, then plan.num_scalars scalars, then the serialized plan as
/// a trailing string literal (which thereby keys the lineage entry).
class FusedInstr final : public Instruction {
 public:
  explicit FusedInstr(FusedPlan plan)
      : Instruction("fused", ExecType::kCP), plan_(std::move(plan)) {}
  Status Execute(ExecutionContext* ec) override;
  bool IsReusable() const override;

  const FusedPlan& plan() const { return plan_; }

 private:
  FusedPlan plan_;
};

class CumAggInstr final : public Instruction {
 public:
  explicit CumAggInstr(const std::string& opcode)
      : Instruction(opcode, ExecType::kCP) {}
  Status Execute(ExecutionContext* ec) override;
  bool IsReusable() const override { return true; }
};

class MatMultInstr final : public Instruction {
 public:
  MatMultInstr() : Instruction("ba+*", ExecType::kCP) {}
  Status Execute(ExecutionContext* ec) override;
  bool IsReusable() const override { return true; }
};

/// Fused transpose-self matmult t(X)%*%X (left) or X%*%t(X) (right).
class TsmmInstr final : public Instruction {
 public:
  explicit TsmmInstr(bool left)
      : Instruction("tsmm", ExecType::kCP), left_(left) {}
  Status Execute(ExecutionContext* ec) override;
  bool IsReusable() const override { return true; }
  bool left() const { return left_; }

 private:
  bool left_;
};

/// Fused t(A)%*%B.
class TmmInstr final : public Instruction {
 public:
  TmmInstr() : Instruction("tmm", ExecType::kCP) {}
  Status Execute(ExecutionContext* ec) override;
  bool IsReusable() const override { return true; }
};

/// Reorganization ops: t, rev, rdiag, reshape(X,rows,cols),
/// sort(X, by, decreasing, index.return).
class ReorgInstr final : public Instruction {
 public:
  explicit ReorgInstr(const std::string& opcode)
      : Instruction(opcode, ExecType::kCP) {}
  Status Execute(ExecutionContext* ec) override;
  bool IsReusable() const override { return true; }
};

/// Right indexing X[rl:ru, cl:cu]; bounds are 1-based scalar operands and
/// an upper bound of -1 selects "to end".
class IndexingInstr final : public Instruction {
 public:
  IndexingInstr() : Instruction("rightIndex", ExecType::kCP) {}
  Status Execute(ExecutionContext* ec) override;
  bool IsReusable() const override { return true; }
};

/// Left indexing: out = X with X[rl:ru, cl:cu] <- rhs (matrix or scalar).
class LeftIndexingInstr final : public Instruction {
 public:
  LeftIndexingInstr() : Instruction("leftIndex", ExecType::kCP) {}
  Status Execute(ExecutionContext* ec) override;
};

/// Data generation: rand(rows, cols, min, max, sparsity, seed, pdf),
/// seq(from, to, incr), sample(range, size, replace, seed).
class DataGenInstr final : public Instruction {
 public:
  explicit DataGenInstr(const std::string& opcode)
      : Instruction(opcode, ExecType::kCP) {}
  Status Execute(ExecutionContext* ec) override;
  bool IsReusable() const override { return true; }
};

/// cbind / rbind over n matrices. Outputs are traced but not cached: a
/// cached append saves one copy of its inputs yet pins a block as large as
/// all of them, and partial reuse matches on the append's lineage item,
/// not on its value.
class AppendInstr final : public Instruction {
 public:
  explicit AppendInstr(bool cbind)
      : Instruction(cbind ? "cbind" : "rbind", ExecType::kCP),
        cbind_(cbind) {}
  Status Execute(ExecutionContext* ec) override;
  bool IsReusable() const override { return false; }

 private:
  bool cbind_;
};

/// ifelse(cond, yes, no) and table(A, B[, w]).
class TernaryInstr final : public Instruction {
 public:
  explicit TernaryInstr(const std::string& opcode)
      : Instruction(opcode, ExecType::kCP) {}
  Status Execute(ExecutionContext* ec) override;
  bool IsReusable() const override { return true; }
};

/// Casts between data/value types.
class CastInstr final : public Instruction {
 public:
  explicit CastInstr(const std::string& opcode)
      : Instruction(opcode, ExecType::kCP) {}
  Status Execute(ExecutionContext* ec) override;
};

/// solve / cholesky / inv / det.
class SolveInstr final : public Instruction {
 public:
  explicit SolveInstr(const std::string& opcode)
      : Instruction(opcode, ExecType::kCP) {}
  Status Execute(ExecutionContext* ec) override;
  bool IsReusable() const override;
};

/// Parameterized builtins with keyword parameters: replace, removeEmpty,
/// order, toString, transformencode, transformapply, transformdecode.
/// Parameter operands are paired with names in `param_names`.
class ParamBuiltinInstr final : public Instruction {
 public:
  explicit ParamBuiltinInstr(const std::string& opcode)
      : Instruction(opcode, ExecType::kCP) {}
  Status Execute(ExecutionContext* ec) override;
  bool IsReusable() const override;

  std::vector<std::string>& ParamNames() { return param_names_; }

  /// Planned output representation for transformencode/transformapply,
  /// chosen by instruction generation from the config: kDense unless the
  /// config (or compression enablement) marks encode outputs
  /// compression-eligible, in which case Apply prices bytes per column and
  /// may emit a CompressedMatrixBlock directly.
  TransformOutputFormat planned_output = TransformOutputFormat::kDense;

 private:
  StatusOr<const Operand*> Param(const std::string& name) const;
  std::vector<std::string> param_names_;
};

/// read(file, format=..., data_type=...): persistent read.
class ReadInstr final : public Instruction {
 public:
  ReadInstr() : Instruction("pread", ExecType::kCP) {}
  Status Execute(ExecutionContext* ec) override;

  std::string data_type = "matrix";  // matrix | frame
  std::string format = "csv";
  bool header = false;
  char sep = ',';
};

/// write(X, file, format=...).
class WriteInstr final : public Instruction {
 public:
  WriteInstr() : Instruction("pwrite", ExecType::kCP) {}
  Status Execute(ExecutionContext* ec) override;

  std::string format = "csv";
  bool header = false;
  char sep = ',';
};

/// compress(X): plans and applies column compression (§3.4). The rewrite
/// injects it for large loop-invariant read-only inputs; it is lenient by
/// design — a missing variable, a non-matrix, an already-compressed input,
/// a too-small matrix, or a plan under the min-ratio gate all pass the
/// input through unchanged, so injected instructions can never fail a
/// previously-working script.
class CompressInstr final : public Instruction {
 public:
  CompressInstr() : Instruction("compress", ExecType::kCP) {}
  Status Execute(ExecutionContext* ec) override;
};

/// decompress(X): materializes the uncompressed block of a compressed
/// matrix (no-op pass-through for uncompressed inputs).
class DecompressInstr final : public Instruction {
 public:
  DecompressInstr() : Instruction("decompress", ExecType::kCP) {}
  Status Execute(ExecutionContext* ec) override;
};

/// Variable maintenance: rmvar (inputs), cpvar (input -> output).
class VariableInstr final : public Instruction {
 public:
  explicit VariableInstr(const std::string& opcode)
      : Instruction(opcode, ExecType::kCP) {}
  Status Execute(ExecutionContext* ec) override;
};

/// print(x) — writes to the context's output stream.
class PrintInstr final : public Instruction {
 public:
  PrintInstr() : Instruction("print", ExecType::kCP) {}
  Status Execute(ExecutionContext* ec) override;
};

/// stop(message) — aborts script execution with a runtime error.
class StopInstr final : public Instruction {
 public:
  StopInstr() : Instruction("stop", ExecType::kCP) {}
  Status Execute(ExecutionContext* ec) override;
};

/// Calls a user-defined or DML-bodied builtin function.
class FunctionCallInstr final : public Instruction {
 public:
  explicit FunctionCallInstr(std::string function_name)
      : Instruction("fcall", ExecType::kCP),
        function_name_(std::move(function_name)) {}
  Status Execute(ExecutionContext* ec) override;

  const std::string& function_name() const { return function_name_; }
  std::vector<std::string>& ArgNames() { return arg_names_; }

 private:
  std::string function_name_;
  std::vector<std::string> arg_names_;
};

}  // namespace sysds

#endif  // SYSDS_RUNTIME_CONTROLPROG_INSTRUCTIONS_CP_H_
