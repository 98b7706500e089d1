#ifndef SYSDS_COMPILER_HOP_H_
#define SYSDS_COMPILER_HOP_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/types.h"

namespace sysds {

/// High-level (logical) operator kinds (paper §2.3(2)): statement blocks
/// compile into DAGs of these; rewrites, size propagation, and memory
/// estimates run on the DAG before physical operator (LOP) selection.
enum class HopOp {
  kLiteral,
  kTransientRead,   // read of a live variable from the symbol table
  kTransientWrite,  // write of a live variable at block exit
  kPersistentRead,  // read(file, format)
  kPersistentWrite, // write(X, file, format)
  kDataGen,         // opcode: rand | seq | fill | sample
  kBinary,          // opcode: + - * / ^ %% %/% min max == != < <= > >= & |
  kUnary,           // opcode: exp log ... ! uminus nrow ncol length print...
  kAggUnary,        // opcode: uasum uarsum uacsum uamean uamax uarimax ...
  kCumAgg,          // opcode: cumsum cumprod cummin cummax
  kMatMult,         // generic A %*% B
  kTsmm,            // t(X)%*%X fused (opcode: left|right)
  kTmm,             // t(A)%*%B fused
  kReorg,           // opcode: t | rev | rdiag | reshape | sort
  kIndexing,        // inputs: X, rl, ru, cl, cu (1-based scalar hops)
  kLeftIndexing,    // inputs: X, rhs, rl, ru, cl, cu
  kNary,            // opcode: cbind | rbind | list
  kTernary,         // opcode: ifelse | ctable
  kParamBuiltin,    // opcode: transformencode|transformapply|transformdecode|
                    //         replace|removeEmpty|order|table|toString|fmt
  kCast,            // opcode: as.scalar|as.matrix|as.frame|as.double|
                    //         as.integer|as.logical
  kSolve,           // opcode: solve | cholesky | inv | det
  kFunctionCall,    // user or DML-bodied builtin function (multi-output)
  kFedInit,         // federated(addresses, ranges)
  kFusedOp,         // fused elementwise(+aggregate) region; the serialized
                    // micro-plan travels as a trailing string-literal input
};

const char* HopOpName(HopOp op);

/// Literal payload for kLiteral hops and instruction operands.
struct LitValue {
  ValueType vt = ValueType::kFP64;
  double d = 0.0;
  int64_t i = 0;
  bool b = false;
  std::string s;

  static LitValue Double(double v);
  static LitValue Int(int64_t v);
  static LitValue Bool(bool v);
  static LitValue String(std::string v);

  double AsDouble() const;
  int64_t AsInt() const;
  bool AsBool() const;
  std::string AsString() const;
};

class Hop;
using HopPtr = std::shared_ptr<Hop>;

/// A logical operator node. Dimensions use -1 for "unknown"; nnz likewise.
class Hop {
 public:
  Hop(HopOp op, std::string opcode, DataType dt, ValueType vt);

  int64_t id() const { return id_; }
  HopOp op() const { return op_; }
  const std::string& opcode() const { return opcode_; }
  DataType data_type() const { return dt_; }
  ValueType value_type() const { return vt_; }
  void set_types(DataType dt, ValueType vt) { dt_ = dt; vt_ = vt; }

  int64_t dim1() const { return dim1_; }
  int64_t dim2() const { return dim2_; }
  int64_t nnz() const { return nnz_; }
  void set_dims(int64_t d1, int64_t d2) { dim1_ = d1; dim2_ = d2; }
  void set_nnz(int64_t nnz) { nnz_ = nnz; }
  bool DimsKnown() const { return dim1_ >= 0 && dim2_ >= 0; }
  double Sparsity() const;

  std::vector<HopPtr>& inputs() { return inputs_; }
  const std::vector<HopPtr>& inputs() const { return inputs_; }
  void AddInput(HopPtr h) { inputs_.push_back(std::move(h)); }

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  LitValue& literal() { return literal_; }
  const LitValue& literal() const { return literal_; }

  std::map<std::string, std::string>& params() { return params_; }
  const std::map<std::string, std::string>& params() const { return params_; }

  ExecType exec_type() const { return exec_type_; }
  void set_exec_type(ExecType et) { exec_type_ = et; }

  /// Output names for multi-return function calls (and transformencode).
  std::vector<std::string>& outputs() { return outputs_; }
  const std::vector<std::string>& outputs() const { return outputs_; }

  /// Updates this hop's output dims/nnz from its inputs' (local rule; the
  /// DAG-level pass is PropagateSizes).
  void RefreshSizeInformation();

  /// Estimated in-memory size in bytes of this hop's output (worst-case
  /// dense when sparsity unknown).
  int64_t OutputMemEstimate() const;
  /// Output + inputs (the operation footprint used for CP/SPARK selection).
  int64_t MemEstimate() const;

  std::string DebugString() const;

 private:
  static int64_t NextId();

  int64_t id_;
  HopOp op_;
  std::string opcode_;
  DataType dt_;
  ValueType vt_;
  int64_t dim1_ = -1, dim2_ = -1, nnz_ = -1;
  std::vector<HopPtr> inputs_;
  std::string name_;
  LitValue literal_;
  std::map<std::string, std::string> params_;
  ExecType exec_type_ = ExecType::kCP;
  std::vector<std::string> outputs_;
};

// Factories.
HopPtr MakeLiteralHop(const LitValue& v);
HopPtr MakeTransientRead(const std::string& name, DataType dt, ValueType vt,
                         int64_t dim1, int64_t dim2, int64_t nnz);
HopPtr MakeTransientWrite(const std::string& name, HopPtr input);

/// The integer value of a scalar hop when it is known at compile time, else
/// -1. A value is known when it is a literal, `nrow`, `ncol` or `length` of
/// an input whose dims are known, or `+`, `-` or `*` of known values. Only
/// non-negative values count as known (they size dims and index bounds).
int64_t KnownIntValue(const Hop& hop);

/// Runs size propagation over the DAG roots (post-order, memoized).
void PropagateSizes(const std::vector<HopPtr>& roots);

/// Collects all hops reachable from roots in topological (post-) order.
std::vector<Hop*> TopoOrder(const std::vector<HopPtr>& roots);

}  // namespace sysds

#endif  // SYSDS_COMPILER_HOP_H_
