#include "common/util.h"
#include "obs/trace.h"
#include "runtime/compress/compress_metrics.h"
#include "runtime/controlprog/execution_context.h"
#include "runtime/controlprog/instructions_cp.h"
#include "runtime/matrix/lib_datagen.h"
#include "runtime/matrix/lib_elementwise.h"
#include "runtime/matrix/lib_matmult.h"
#include "runtime/matrix/lib_reorg.h"
#include "runtime/matrix/lib_solve.h"

namespace sysds {

Status MatMultInstr::Execute(ExecutionContext* ec) {
  SYSDS_ASSIGN_OR_RETURN(MatrixObject * m1, ec->GetMatrix(inputs()[0]));
  SYSDS_ASSIGN_OR_RETURN(MatrixObject * m2, ec->GetMatrix(inputs()[1]));
  // Transparent compressed dispatch (§3.4): a compressed left operand
  // multiplies without decompressing; the kernel replays the uncompressed
  // accumulation order, so the result is bit-identical.
  if (m1->HasCompressed()) {
    auto comp = m1->AcquireCompressed();
    if (comp.ok()) {
      SYSDS_SPAN("compress", "matmult_dispatch");
      SYSDS_ACQUIRE_READ_CLEANUP(b, m2, m1->Release());
      auto result = (*comp)->RightMatMult(b, ec->NumThreads());
      m1->Release();
      m2->Release();
      if (!result.ok()) return result.status();
      compress_metrics::Get().dispatch_hits->Add(1);
      ec->SetOutput(outputs()[0],
                    std::make_shared<MatrixObject>(std::move(*result)));
      return Status::Ok();
    }
  }
  SYSDS_ACQUIRE_READ(a, m1);
  SYSDS_ACQUIRE_READ_CLEANUP(b, m2, m1->Release());
  auto result = MatMult(a, b, ec->NumThreads());
  m1->Release();
  m2->Release();
  if (!result.ok()) return result.status();
  ec->SetOutput(outputs()[0],
                std::make_shared<MatrixObject>(std::move(*result)));
  return Status::Ok();
}

Status TsmmInstr::Execute(ExecutionContext* ec) {
  SYSDS_ASSIGN_OR_RETURN(MatrixObject * m, ec->GetMatrix(inputs()[0]));
  // Compressed t(X)%*%X via per-group value-indexed pre-aggregation — the
  // hot op of the lmDS pattern. Unsupported layouts (uncompressed fallback
  // groups, oversized dictionary pair tables) decompress and retry.
  if (left_ && m->HasCompressed()) {
    auto comp = m->AcquireCompressed();
    if (comp.ok()) {
      SYSDS_SPAN("compress", "tsmm_dispatch");
      auto result = (*comp)->TsmmLeft(ec->NumThreads());
      m->Release();
      if (result.ok()) {
        compress_metrics::Get().dispatch_hits->Add(1);
        ec->SetOutput(outputs()[0],
                      std::make_shared<MatrixObject>(std::move(*result)));
        return Status::Ok();
      }
      if (result.status().code() != StatusCode::kUnimplemented) {
        return result.status();
      }
      compress_metrics::Get().dispatch_fallbacks->Add(1);
    }
  }
  SYSDS_ACQUIRE_READ(x, m);
  auto result = TransposeSelfMatMult(x, left_, ec->NumThreads());
  m->Release();
  if (!result.ok()) return result.status();
  ec->SetOutput(outputs()[0],
                std::make_shared<MatrixObject>(std::move(*result)));
  return Status::Ok();
}

Status TmmInstr::Execute(ExecutionContext* ec) {
  SYSDS_ASSIGN_OR_RETURN(MatrixObject * m1, ec->GetMatrix(inputs()[0]));
  SYSDS_ASSIGN_OR_RETURN(MatrixObject * m2, ec->GetMatrix(inputs()[1]));
  // Compressed t(A)%*%B: b-rows collapse into per-code buckets.
  if (m1->HasCompressed()) {
    auto comp = m1->AcquireCompressed();
    if (comp.ok()) {
      SYSDS_SPAN("compress", "tmm_dispatch");
      SYSDS_ACQUIRE_READ_CLEANUP(b, m2, m1->Release());
      auto result = (*comp)->LeftMatMult(b, ec->NumThreads());
      m1->Release();
      m2->Release();
      if (!result.ok()) return result.status();
      compress_metrics::Get().dispatch_hits->Add(1);
      ec->SetOutput(outputs()[0],
                    std::make_shared<MatrixObject>(std::move(*result)));
      return Status::Ok();
    }
  }
  SYSDS_ACQUIRE_READ(a, m1);
  SYSDS_ACQUIRE_READ_CLEANUP(b, m2, m1->Release());
  auto result = TransposeLeftMatMult(a, b, ec->NumThreads());
  m1->Release();
  m2->Release();
  if (!result.ok()) return result.status();
  ec->SetOutput(outputs()[0],
                std::make_shared<MatrixObject>(std::move(*result)));
  return Status::Ok();
}

Status ReorgInstr::Execute(ExecutionContext* ec) {
  SYSDS_ASSIGN_OR_RETURN(MatrixObject * m, ec->GetMatrix(inputs()[0]));
  SYSDS_ACQUIRE_READ(a, m);
  StatusOr<MatrixBlock> result = InvalidArgument("");
  const std::string& op = opcode();
  if (op == "t") {
    result = Transpose(a, ec->NumThreads());
  } else if (op == "rev") {
    result = ReverseRows(a);
  } else if (op == "rdiag") {
    result = Diag(a);
  } else if (op == "reshape") {
    auto rows = ec->GetInt(inputs()[1]);
    auto cols = ec->GetInt(inputs()[2]);
    if (!rows.ok()) { m->Release(); return rows.status(); }
    if (!cols.ok()) { m->Release(); return cols.status(); }
    result = Reshape(a, *rows, *cols);
  } else if (op == "sort") {
    auto by = ec->GetInt(inputs()[1]);
    auto dec = ec->GetBool(inputs()[2]);
    auto ixret = ec->GetBool(inputs()[3]);
    if (!by.ok()) { m->Release(); return by.status(); }
    if (!dec.ok()) { m->Release(); return dec.status(); }
    if (!ixret.ok()) { m->Release(); return ixret.status(); }
    result = OrderByColumn(a, *by - 1, *dec, *ixret);
  } else {
    m->Release();
    return RuntimeError("unknown reorg op '" + op + "'");
  }
  m->Release();
  if (!result.ok()) return result.status();
  ec->SetOutput(outputs()[0],
                std::make_shared<MatrixObject>(std::move(*result)));
  return Status::Ok();
}

namespace {
// Resolves 1-based (rl, ru, cl, cu) with -1 uppers meaning "to end".
Status ResolveBounds(ExecutionContext* ec, const std::vector<Operand>& ins,
                     size_t first, int64_t rows, int64_t cols, int64_t* rl,
                     int64_t* ru, int64_t* cl, int64_t* cu) {
  SYSDS_ASSIGN_OR_RETURN(*rl, ec->GetInt(ins[first]));
  SYSDS_ASSIGN_OR_RETURN(*ru, ec->GetInt(ins[first + 1]));
  SYSDS_ASSIGN_OR_RETURN(*cl, ec->GetInt(ins[first + 2]));
  SYSDS_ASSIGN_OR_RETURN(*cu, ec->GetInt(ins[first + 3]));
  if (*ru == -1) *ru = rows;
  if (*cu == -1) *cu = cols;
  --*rl; --*ru; --*cl; --*cu;  // to 0-based inclusive
  return Status::Ok();
}
}  // namespace

Status IndexingInstr::Execute(ExecutionContext* ec) {
  // Frame slicing: rows and column projection on 2D tables.
  DataPtr target = ec->Vars().GetOrNull(inputs()[0].name);
  if (auto* f = dynamic_cast<FrameObject*>(target.get())) {
    const FrameBlock& fb = f->Frame();
    int64_t rl, ru, cl, cu;
    SYSDS_RETURN_IF_ERROR(ResolveBounds(ec, inputs(), 1, fb.Rows(),
                                        fb.Cols(), &rl, &ru, &cl, &cu));
    if (rl < 0 || ru >= fb.Rows() || rl > ru || cl < 0 || cu >= fb.Cols() ||
        cl > cu) {
      return OutOfRange("frame index range out of bounds");
    }
    std::vector<ValueType> schema(fb.Schema().begin() + cl,
                                  fb.Schema().begin() + cu + 1);
    std::vector<std::string> names(fb.ColumnNames().begin() + cl,
                                   fb.ColumnNames().begin() + cu + 1);
    FrameBlock out(ru - rl + 1, schema, names);
    for (int64_t r = rl; r <= ru; ++r) {
      for (int64_t c = cl; c <= cu; ++c) {
        out.SetString(r - rl, c - cl, fb.GetString(r, c));
      }
    }
    ec->SetOutput(outputs()[0], std::make_shared<FrameObject>(std::move(out)));
    return Status::Ok();
  }
  SYSDS_ASSIGN_OR_RETURN(MatrixObject * m, ec->GetMatrix(inputs()[0]));
  SYSDS_ACQUIRE_READ(a, m);
  int64_t rl, ru, cl, cu;
  Status bounds =
      ResolveBounds(ec, inputs(), 1, a.Rows(), a.Cols(), &rl, &ru, &cl, &cu);
  if (!bounds.ok()) { m->Release(); return bounds; }
  auto result = SliceMatrix(a, rl, ru, cl, cu);
  m->Release();
  if (!result.ok()) return result.status();
  ec->SetOutput(outputs()[0],
                std::make_shared<MatrixObject>(std::move(*result)));
  return Status::Ok();
}

Status LeftIndexingInstr::Execute(ExecutionContext* ec) {
  SYSDS_ASSIGN_OR_RETURN(MatrixObject * m, ec->GetMatrix(inputs()[0]));
  SYSDS_ACQUIRE_READ(a, m);
  int64_t rl, ru, cl, cu;
  Status bounds =
      ResolveBounds(ec, inputs(), 2, a.Rows(), a.Cols(), &rl, &ru, &cl, &cu);
  if (!bounds.ok()) { m->Release(); return bounds; }

  // rhs: matrix or scalar.
  const Operand& rhs_op = inputs()[1];
  DataPtr rhs_data = ec->Vars().GetOrNull(rhs_op.name);
  StatusOr<MatrixBlock> result = InvalidArgument("");
  if (!rhs_op.is_literal && rhs_data != nullptr &&
      rhs_data->GetDataType() == DataType::kMatrix) {
    auto* rm = static_cast<MatrixObject*>(rhs_data.get());
    SYSDS_ACQUIRE_READ_CLEANUP(rhs, rm, m->Release());
    result = LeftIndex(a, rhs, rl, ru, cl, cu);
    rm->Release();
  } else {
    auto v = ec->GetDouble(rhs_op);
    if (!v.ok()) { m->Release(); return v.status(); }
    MatrixBlock rhs = MatrixBlock::Dense(ru - rl + 1, cu - cl + 1, *v);
    result = LeftIndex(a, rhs, rl, ru, cl, cu);
  }
  m->Release();
  if (!result.ok()) return result.status();
  ec->SetOutput(outputs()[0],
                std::make_shared<MatrixObject>(std::move(*result)));
  return Status::Ok();
}

Status DataGenInstr::Execute(ExecutionContext* ec) {
  const std::string& op = opcode();
  if (op == "rand") {
    SYSDS_ASSIGN_OR_RETURN(int64_t rows, ec->GetInt(inputs()[0]));
    SYSDS_ASSIGN_OR_RETURN(int64_t cols, ec->GetInt(inputs()[1]));
    SYSDS_ASSIGN_OR_RETURN(double minv, ec->GetDouble(inputs()[2]));
    SYSDS_ASSIGN_OR_RETURN(double maxv, ec->GetDouble(inputs()[3]));
    SYSDS_ASSIGN_OR_RETURN(double sparsity, ec->GetDouble(inputs()[4]));
    SYSDS_ASSIGN_OR_RETURN(int64_t seed, ec->GetInt(inputs()[5]));
    SYSDS_ASSIGN_OR_RETURN(std::string pdf, ec->GetString(inputs()[6]));
    uint64_t actual_seed =
        seed == -1 ? GenerateSeed() : static_cast<uint64_t>(seed);
    auto result = RandMatrix(rows, cols, minv, maxv, sparsity, actual_seed,
                             pdf == "normal" ? RandPdf::kNormal
                                             : RandPdf::kUniform,
                             ec->NumThreads());
    if (!result.ok()) return result.status();
    ec->SetOutput(outputs()[0],
                  std::make_shared<MatrixObject>(std::move(*result)));
    return Status::Ok();
  }
  if (op == "seq") {
    SYSDS_ASSIGN_OR_RETURN(double from, ec->GetDouble(inputs()[0]));
    SYSDS_ASSIGN_OR_RETURN(double to, ec->GetDouble(inputs()[1]));
    SYSDS_ASSIGN_OR_RETURN(double incr, ec->GetDouble(inputs()[2]));
    auto result = SeqMatrix(from, to, incr);
    if (!result.ok()) return result.status();
    ec->SetOutput(outputs()[0],
                  std::make_shared<MatrixObject>(std::move(*result)));
    return Status::Ok();
  }
  if (op == "fill") {
    // matrix(value, rows, cols)
    SYSDS_ASSIGN_OR_RETURN(double value, ec->GetDouble(inputs()[0]));
    SYSDS_ASSIGN_OR_RETURN(int64_t rows, ec->GetInt(inputs()[1]));
    SYSDS_ASSIGN_OR_RETURN(int64_t cols, ec->GetInt(inputs()[2]));
    if (rows < 0 || cols < 0) {
      return RuntimeError("matrix(): negative dimensions");
    }
    ec->SetOutput(outputs()[0], std::make_shared<MatrixObject>(
                                    MatrixBlock::Dense(rows, cols, value)));
    return Status::Ok();
  }
  if (op == "matfromstr") {
    // matrix("1 2 3 4", rows, cols): whitespace/comma separated values.
    SYSDS_ASSIGN_OR_RETURN(std::string data, ec->GetString(inputs()[0]));
    SYSDS_ASSIGN_OR_RETURN(int64_t rows, ec->GetInt(inputs()[1]));
    SYSDS_ASSIGN_OR_RETURN(int64_t cols, ec->GetInt(inputs()[2]));
    MatrixBlock m = MatrixBlock::Dense(rows, cols);
    int64_t idx = 0;
    const char* p = data.c_str();
    char* end = nullptr;
    while (idx < rows * cols) {
      while (*p == ' ' || *p == ',' || *p == '\t' || *p == '\n') ++p;
      if (*p == '\0') break;
      double v = std::strtod(p, &end);
      if (end == p) break;
      m.DenseData()[idx++] = v;
      p = end;
    }
    if (idx != rows * cols) {
      return RuntimeError("matrix(): string data has fewer values than cells");
    }
    m.MarkNnzDirty();
    ec->SetOutput(outputs()[0], std::make_shared<MatrixObject>(std::move(m)));
    return Status::Ok();
  }
  if (op == "sample") {
    SYSDS_ASSIGN_OR_RETURN(int64_t range, ec->GetInt(inputs()[0]));
    SYSDS_ASSIGN_OR_RETURN(int64_t size, ec->GetInt(inputs()[1]));
    SYSDS_ASSIGN_OR_RETURN(bool replace, ec->GetBool(inputs()[2]));
    SYSDS_ASSIGN_OR_RETURN(int64_t seed, ec->GetInt(inputs()[3]));
    uint64_t actual_seed =
        seed == -1 ? GenerateSeed() : static_cast<uint64_t>(seed);
    auto result = SampleMatrix(range, size, replace, actual_seed);
    if (!result.ok()) return result.status();
    ec->SetOutput(outputs()[0],
                  std::make_shared<MatrixObject>(std::move(*result)));
    return Status::Ok();
  }
  return RuntimeError("unknown datagen op '" + op + "'");
}

Status AppendInstr::Execute(ExecutionContext* ec) {
  std::vector<MatrixObject*> objs;
  std::vector<const MatrixBlock*> blocks;
  for (const Operand& in : inputs()) {
    SYSDS_ASSIGN_OR_RETURN(MatrixObject * m, ec->GetMatrix(in));
    auto blk = m->AcquireRead();
    if (!blk.ok()) {
      for (MatrixObject* o : objs) o->Release();
      return blk.status();
    }
    objs.push_back(m);
    blocks.push_back(*blk);
  }
  auto result = cbind_ ? CBind(blocks) : RBind(blocks);
  for (MatrixObject* m : objs) m->Release();
  if (!result.ok()) return result.status();
  ec->SetOutput(outputs()[0],
                std::make_shared<MatrixObject>(std::move(*result)));
  return Status::Ok();
}

Status TernaryInstr::Execute(ExecutionContext* ec) {
  const std::string& op = opcode();
  if (op == "ifelse") {
    // Scalar condition: select one arm directly.
    DataPtr cond_d =
        inputs()[0].is_literal ? nullptr
                               : ec->Vars().GetOrNull(inputs()[0].name);
    bool cond_scalar =
        inputs()[0].is_literal ||
        (cond_d != nullptr && cond_d->GetDataType() == DataType::kScalar);
    if (cond_scalar) {
      SYSDS_ASSIGN_OR_RETURN(bool take, ec->GetBool(inputs()[0]));
      SYSDS_ASSIGN_OR_RETURN(DataPtr arm,
                             ec->Resolve(take ? inputs()[1] : inputs()[2]));
      ec->SetOutput(outputs()[0], std::move(arm));
      return Status::Ok();
    }
    // Matrix condition; yes/no arms may be matrices or scalars.
    SYSDS_ASSIGN_OR_RETURN(MatrixObject * mc, ec->GetMatrix(inputs()[0]));
    SYSDS_ACQUIRE_READ(cond, mc);
    auto arm = [&](const Operand& op_in, const MatrixBlock** blk,
                   MatrixObject** obj, double* scalar) -> Status {
      DataPtr d = ec->Vars().GetOrNull(op_in.name);
      if (!op_in.is_literal && d != nullptr &&
          d->GetDataType() == DataType::kMatrix) {
        auto* m = static_cast<MatrixObject*>(d.get());
        auto acquired = m->AcquireRead();
        if (!acquired.ok()) return acquired.status();
        *obj = m;  // only publish a successfully pinned object for cleanup
        *blk = *acquired;
      } else {
        SYSDS_ASSIGN_OR_RETURN(*scalar, ec->GetDouble(op_in));
      }
      return Status::Ok();
    };
    const MatrixBlock* ablk = nullptr;
    const MatrixBlock* bblk = nullptr;
    MatrixObject* aobj = nullptr;
    MatrixObject* bobj = nullptr;
    double as = 0, bs = 0;
    Status s1 = arm(inputs()[1], &ablk, &aobj, &as);
    Status s2 = arm(inputs()[2], &bblk, &bobj, &bs);
    auto cleanup = [&]() {
      mc->Release();
      if (aobj) aobj->Release();
      if (bobj) bobj->Release();
    };
    if (!s1.ok()) { cleanup(); return s1; }
    if (!s2.ok()) { cleanup(); return s2; }
    auto result = TernaryIfElse(cond, ablk, as, bblk, bs, ec->NumThreads());
    cleanup();
    if (!result.ok()) return result.status();
    ec->SetOutput(outputs()[0],
                  std::make_shared<MatrixObject>(std::move(*result)));
    return Status::Ok();
  }
  if (op == "ctable") {
    SYSDS_ASSIGN_OR_RETURN(MatrixObject * ma, ec->GetMatrix(inputs()[0]));
    SYSDS_ASSIGN_OR_RETURN(MatrixObject * mb, ec->GetMatrix(inputs()[1]));
    double w = 1.0;
    if (inputs().size() > 2) {
      SYSDS_ASSIGN_OR_RETURN(w, ec->GetDouble(inputs()[2]));
    }
    SYSDS_ACQUIRE_READ(a, ma);
    SYSDS_ACQUIRE_READ_CLEANUP(b, mb, ma->Release());
    auto result = CTable(a, b, w);
    ma->Release();
    mb->Release();
    if (!result.ok()) return result.status();
    ec->SetOutput(outputs()[0],
                  std::make_shared<MatrixObject>(std::move(*result)));
    return Status::Ok();
  }
  return RuntimeError("unknown ternary op '" + op + "'");
}

bool SolveInstr::IsReusable() const {
  return !outputs().empty() && outputs()[0].dt == DataType::kMatrix;
}

Status SolveInstr::Execute(ExecutionContext* ec) {
  const std::string& op = opcode();
  SYSDS_ASSIGN_OR_RETURN(MatrixObject * ma, ec->GetMatrix(inputs()[0]));
  SYSDS_ACQUIRE_READ(a, ma);
  if (op == "solve") {
    auto mb_or = ec->GetMatrix(inputs()[1]);
    if (!mb_or.ok()) { ma->Release(); return mb_or.status(); }
    MatrixObject* mb = *mb_or;
    SYSDS_ACQUIRE_READ_CLEANUP(b, mb, ma->Release());
    auto result = Solve(a, b);
    ma->Release();
    mb->Release();
    if (!result.ok()) return result.status();
    ec->SetOutput(outputs()[0],
                  std::make_shared<MatrixObject>(std::move(*result)));
    return Status::Ok();
  }
  StatusOr<MatrixBlock> result = InvalidArgument("");
  if (op == "cholesky") result = Cholesky(a);
  else if (op == "inv") result = Inverse(a);
  else if (op == "det") {
    auto d = Determinant(a);
    ma->Release();
    if (!d.ok()) return d.status();
    ec->SetOutput(outputs()[0], ScalarObject::MakeDouble(*d));
    return Status::Ok();
  } else {
    ma->Release();
    return RuntimeError("unknown solve op '" + op + "'");
  }
  ma->Release();
  if (!result.ok()) return result.status();
  ec->SetOutput(outputs()[0],
                std::make_shared<MatrixObject>(std::move(*result)));
  return Status::Ok();
}

}  // namespace sysds
