#include <cmath>

#include "runtime/compress/compress_metrics.h"
#include "runtime/controlprog/execution_context.h"
#include "runtime/controlprog/instructions_cp.h"
#include "runtime/matrix/lib_agg.h"
#include "runtime/matrix/lib_elementwise.h"
#include "runtime/matrix/op_codes.h"

namespace sysds {

namespace {

StatusOr<BinaryOpCode> ParseBinaryOp(const std::string& op) {
  BinaryOpCode code;
  if (!ParseBinaryOpcode(op, &code)) {
    return InvalidArgument("unknown binary opcode '" + op + "'");
  }
  return code;
}

StatusOr<UnaryOpCode> ParseUnaryOp(const std::string& op) {
  UnaryOpCode code;
  if (!ParseUnaryOpcode(op, &code)) {
    return InvalidArgument("unknown unary opcode '" + op + "'");
  }
  return code;
}

bool IsScalarOperand(const Operand& op, ExecutionContext* ec) {
  if (op.is_literal) return true;
  DataPtr d = ec->Vars().GetOrNull(op.name);
  return d != nullptr && d->GetDataType() == DataType::kScalar;
}

// Scalar result typing: comparisons/logic -> bool; int x int stays int for
// closed ops; everything else double.
DataPtr MakeScalarResult(BinaryOpCode code, const ScalarObject& a,
                         const ScalarObject& b, double result) {
  switch (code) {
    case BinaryOpCode::kEqual:
    case BinaryOpCode::kNotEqual:
    case BinaryOpCode::kLess:
    case BinaryOpCode::kLessEqual:
    case BinaryOpCode::kGreater:
    case BinaryOpCode::kGreaterEqual:
    case BinaryOpCode::kAnd:
    case BinaryOpCode::kOr:
    case BinaryOpCode::kXor:
      return ScalarObject::MakeBool(result != 0.0);
    case BinaryOpCode::kAdd:
    case BinaryOpCode::kSub:
    case BinaryOpCode::kMul:
    case BinaryOpCode::kMod:
    case BinaryOpCode::kIntDiv:
    case BinaryOpCode::kMin:
    case BinaryOpCode::kMax:
      if (a.GetValueType() == ValueType::kInt64 &&
          b.GetValueType() == ValueType::kInt64 &&
          result == std::floor(result)) {
        return ScalarObject::MakeInt(static_cast<int64_t>(result));
      }
      return ScalarObject::MakeDouble(result);
    default:
      return ScalarObject::MakeDouble(result);
  }
}

}  // namespace

bool BinaryInstr::IsReusable() const {
  return !outputs().empty() && outputs()[0].dt == DataType::kMatrix;
}

Status BinaryInstr::Execute(ExecutionContext* ec) {
  SYSDS_ASSIGN_OR_RETURN(BinaryOpCode code, ParseBinaryOp(opcode()));
  const Operand& in1 = inputs()[0];
  const Operand& in2 = inputs()[1];
  bool s1 = IsScalarOperand(in1, ec), s2 = IsScalarOperand(in2, ec);

  if (s1 && s2) {
    SYSDS_ASSIGN_OR_RETURN(DataPtr d1, ec->Resolve(in1));
    SYSDS_ASSIGN_OR_RETURN(DataPtr d2, ec->Resolve(in2));
    SYSDS_ASSIGN_OR_RETURN(ScalarObject * a, AsScalar(d1, "binary lhs"));
    SYSDS_ASSIGN_OR_RETURN(ScalarObject * b, AsScalar(d2, "binary rhs"));
    // String handling: concatenation and comparisons.
    if (a->GetValueType() == ValueType::kString ||
        b->GetValueType() == ValueType::kString) {
      switch (code) {
        case BinaryOpCode::kAdd:
          ec->SetOutput(outputs()[0],
                        ScalarObject::MakeString(a->AsString() + b->AsString()));
          return Status::Ok();
        case BinaryOpCode::kEqual:
          ec->SetOutput(outputs()[0], ScalarObject::MakeBool(
                                          a->AsString() == b->AsString()));
          return Status::Ok();
        case BinaryOpCode::kNotEqual:
          ec->SetOutput(outputs()[0], ScalarObject::MakeBool(
                                          a->AsString() != b->AsString()));
          return Status::Ok();
        default:
          return RuntimeError("invalid string operation '" + opcode() + "'");
      }
    }
    double r = ApplyBinary(code, a->AsDouble(), b->AsDouble());
    ec->SetOutput(outputs()[0], MakeScalarResult(code, *a, *b, r));
    return Status::Ok();
  }

  if (!s1 && !s2) {
    SYSDS_ASSIGN_OR_RETURN(MatrixObject * m1, ec->GetMatrix(in1));
    SYSDS_ASSIGN_OR_RETURN(MatrixObject * m2, ec->GetMatrix(in2));
    SYSDS_ACQUIRE_READ(a, m1);
    SYSDS_ACQUIRE_READ_CLEANUP(b, m2, m1->Release());
    auto result = BinaryMatrixMatrix(code, a, b, ec->NumThreads());
    m1->Release();
    m2->Release();
    if (!result.ok()) return result.status();
    ec->SetOutput(outputs()[0],
                  std::make_shared<MatrixObject>(std::move(*result)));
    return Status::Ok();
  }

  // Matrix-scalar (either side).
  const Operand& mop = s1 ? in2 : in1;
  const Operand& sop = s1 ? in1 : in2;
  SYSDS_ASSIGN_OR_RETURN(MatrixObject * m, ec->GetMatrix(mop));
  SYSDS_ASSIGN_OR_RETURN(double scalar, ec->GetDouble(sop));
  SYSDS_ACQUIRE_READ(a, m);
  MatrixBlock result =
      BinaryMatrixScalar(code, a, scalar, /*scalar_left=*/s1, ec->NumThreads());
  m->Release();
  ec->SetOutput(outputs()[0],
                std::make_shared<MatrixObject>(std::move(result)));
  return Status::Ok();
}

bool UnaryInstr::IsReusable() const {
  return !outputs().empty() && outputs()[0].dt == DataType::kMatrix;
}

Status UnaryInstr::Execute(ExecutionContext* ec) {
  const Operand& in = inputs()[0];
  const std::string& op = opcode();

  // Metadata ops on matrices/frames.
  if (op == "nrow" || op == "ncol" || op == "length") {
    SYSDS_ASSIGN_OR_RETURN(DataPtr d, ec->Resolve(in));
    int64_t rows = 0, cols = 0;
    if (auto* m = dynamic_cast<MatrixObject*>(d.get())) {
      rows = m->Rows();
      cols = m->Cols();
    } else if (auto* f = dynamic_cast<FrameObject*>(d.get())) {
      rows = f->Frame().Rows();
      cols = f->Frame().Cols();
    } else if (auto* l = dynamic_cast<ListObject*>(d.get())) {
      rows = l->Size();
      cols = 1;
    } else {
      return RuntimeError(op + ": expected matrix/frame/list input");
    }
    int64_t v = op == "nrow" ? rows : (op == "ncol" ? cols : rows * cols);
    ec->SetOutput(outputs()[0], ScalarObject::MakeInt(v));
    return Status::Ok();
  }

  SYSDS_ASSIGN_OR_RETURN(UnaryOpCode code, ParseUnaryOp(op));
  if (IsScalarOperand(in, ec)) {
    SYSDS_ASSIGN_OR_RETURN(double v, ec->GetDouble(in));
    double r = ApplyUnary(code, v);
    if (code == UnaryOpCode::kNot) {
      ec->SetOutput(outputs()[0], ScalarObject::MakeBool(r != 0.0));
    } else if ((code == UnaryOpCode::kNegate ||
                code == UnaryOpCode::kAbs ||
                code == UnaryOpCode::kSign ||
                code == UnaryOpCode::kRound ||
                code == UnaryOpCode::kFloor ||
                code == UnaryOpCode::kCeil) &&
               !in.is_literal && r == std::floor(r)) {
      SYSDS_ASSIGN_OR_RETURN(DataPtr d, ec->Resolve(in));
      auto* s = static_cast<ScalarObject*>(d.get());
      if (s->GetValueType() == ValueType::kInt64) {
        ec->SetOutput(outputs()[0],
                      ScalarObject::MakeInt(static_cast<int64_t>(r)));
        return Status::Ok();
      }
      ec->SetOutput(outputs()[0], ScalarObject::MakeDouble(r));
    } else {
      ec->SetOutput(outputs()[0], ScalarObject::MakeDouble(r));
    }
    return Status::Ok();
  }
  SYSDS_ASSIGN_OR_RETURN(MatrixObject * m, ec->GetMatrix(in));
  SYSDS_ACQUIRE_READ(a, m);
  MatrixBlock result = UnaryMatrix(code, a, ec->NumThreads());
  m->Release();
  ec->SetOutput(outputs()[0],
                std::make_shared<MatrixObject>(std::move(result)));
  return Status::Ok();
}

bool AggUnaryInstr::IsReusable() const {
  return !outputs().empty() && outputs()[0].dt == DataType::kMatrix;
}

Status AggUnaryInstr::Execute(ExecutionContext* ec) {
  const std::string& op = opcode();
  AggDirection dir;
  AggOpCode agg;
  if (!ParseAggOpcode(op, &agg, &dir)) {
    return RuntimeError("unknown aggregate '" + op + "'");
  }

  SYSDS_ASSIGN_OR_RETURN(MatrixObject * m, ec->GetMatrix(inputs()[0]));
  // Compressed dispatch (§3.4): full and column aggregates of the
  // dictionary-friendly subset run on per-code counts; anything else
  // (row aggregates, var/sd, ...) decompresses and retries.
  if (m->HasCompressed() && dir != AggDirection::kRow) {
    auto comp = m->AcquireCompressed();
    if (comp.ok()) {
      if (dir == AggDirection::kAll) {
        auto r = (*comp)->Aggregate(agg);
        m->Release();
        if (r.ok()) {
          compress_metrics::Get().dispatch_hits->Add(1);
          if (agg == AggOpCode::kNnz) {
            ec->SetOutput(outputs()[0],
                          ScalarObject::MakeInt(static_cast<int64_t>(*r)));
          } else {
            ec->SetOutput(outputs()[0], ScalarObject::MakeDouble(*r));
          }
          return Status::Ok();
        }
        if (r.status().code() != StatusCode::kUnimplemented) {
          return r.status();
        }
      } else {
        auto r = (*comp)->AggregateCols(agg);
        m->Release();
        if (r.ok()) {
          compress_metrics::Get().dispatch_hits->Add(1);
          ec->SetOutput(outputs()[0],
                        std::make_shared<MatrixObject>(std::move(*r)));
          return Status::Ok();
        }
        if (r.status().code() != StatusCode::kUnimplemented) {
          return r.status();
        }
      }
      compress_metrics::Get().dispatch_fallbacks->Add(1);
    }
  }
  SYSDS_ACQUIRE_READ(a, m);
  if (dir == AggDirection::kAll) {
    auto r = AggregateAll(agg, a, ec->NumThreads());
    m->Release();
    if (!r.ok()) return r.status();
    if (agg == AggOpCode::kNnz) {
      ec->SetOutput(outputs()[0],
                    ScalarObject::MakeInt(static_cast<int64_t>(*r)));
    } else {
      ec->SetOutput(outputs()[0], ScalarObject::MakeDouble(*r));
    }
    return Status::Ok();
  }
  auto r = AggregateRowCol(agg, dir, a, ec->NumThreads());
  m->Release();
  if (!r.ok()) return r.status();
  ec->SetOutput(outputs()[0], std::make_shared<MatrixObject>(std::move(*r)));
  return Status::Ok();
}

Status CumAggInstr::Execute(ExecutionContext* ec) {
  SYSDS_ASSIGN_OR_RETURN(MatrixObject * m, ec->GetMatrix(inputs()[0]));
  SYSDS_ACQUIRE_READ(a, m);
  MatrixBlock result;
  if (opcode() == "cumsum") result = CumSum(a);
  else if (opcode() == "cumprod") result = CumProd(a);
  else if (opcode() == "cummin") result = CumMin(a);
  else if (opcode() == "cummax") result = CumMax(a);
  else {
    m->Release();
    return RuntimeError("unknown cumulative aggregate '" + opcode() + "'");
  }
  m->Release();
  ec->SetOutput(outputs()[0],
                std::make_shared<MatrixObject>(std::move(result)));
  return Status::Ok();
}

}  // namespace sysds
