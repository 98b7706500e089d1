#include "runtime/matrix/lib_fused.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <memory>
#include <vector>

#include "common/thread_pool.h"
#include "runtime/matrix/lib_agg.h"

namespace sysds {

namespace {

std::string RefStr(const FusedRef& r) {
  char c = r.kind == FusedRef::kInput ? 'i'
           : r.kind == FusedRef::kStep ? 't'
                                       : 's';
  return std::string(1, c) + std::to_string(r.idx);
}

bool ParseRef(const std::string& s, FusedRef* out) {
  if (s.size() < 2) return false;
  switch (s[0]) {
    case 'i': out->kind = FusedRef::kInput; break;
    case 't': out->kind = FusedRef::kStep; break;
    case 's': out->kind = FusedRef::kScalar; break;
    default: return false;
  }
  for (size_t i = 1; i < s.size(); ++i) {
    if (!std::isdigit(static_cast<unsigned char>(s[i]))) return false;
  }
  out->idx = std::stoi(s.substr(1));
  return true;
}

std::vector<std::string> Split(const std::string& s, char sep) {
  std::vector<std::string> parts;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      parts.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return parts;
}

bool ParseInt(const std::string& s, int* out) {
  if (s.empty()) return false;
  for (char c : s) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return false;
  }
  *out = std::stoi(s);
  return true;
}

}  // namespace

std::string FusedPlan::Serialize() const {
  std::string out = "in" + std::to_string(num_inputs) + ";sc" +
                    std::to_string(num_scalars) + ";k";
  for (FusedInputKind k : input_kinds) {
    out += k == FusedInputKind::kFull ? 'F'
           : k == FusedInputKind::kColVec ? 'C'
                                          : 'R';
  }
  for (const FusedStep& st : steps) {
    out += ';';
    if (st.is_binary) {
      out += 'b';
      out += BinaryOpName(st.bop);
      out += ':';
      out += RefStr(st.a) + "," + RefStr(st.b);
    } else {
      out += 'u';
      out += UnaryOpName(st.uop);
      out += ':';
      out += RefStr(st.a);
    }
  }
  out += ";out:t" + std::to_string(root);
  if (has_agg) out += ";agg:" + AggOpName(agg, agg_dir);
  return out;
}

StatusOr<FusedPlan> FusedPlan::Parse(const std::string& text) {
  FusedPlan plan;
  bool saw_out = false;
  for (const std::string& part : Split(text, ';')) {
    if (part.empty()) {
      return InvalidArgument("fused plan: empty segment in '" + text + "'");
    }
    if (part.rfind("in", 0) == 0 && part.size() > 2 &&
        std::isdigit(static_cast<unsigned char>(part[2]))) {
      if (!ParseInt(part.substr(2), &plan.num_inputs)) {
        return InvalidArgument("fused plan: bad input count '" + part + "'");
      }
    } else if (part.rfind("sc", 0) == 0) {
      if (!ParseInt(part.substr(2), &plan.num_scalars)) {
        return InvalidArgument("fused plan: bad scalar count '" + part + "'");
      }
    } else if (part[0] == 'k') {
      for (size_t i = 1; i < part.size(); ++i) {
        switch (part[i]) {
          case 'F': plan.input_kinds.push_back(FusedInputKind::kFull); break;
          case 'C': plan.input_kinds.push_back(FusedInputKind::kColVec); break;
          case 'R': plan.input_kinds.push_back(FusedInputKind::kRowVec); break;
          default:
            return InvalidArgument("fused plan: bad input kind '" + part + "'");
        }
      }
    } else if (part.rfind("out:t", 0) == 0) {
      if (!ParseInt(part.substr(5), &plan.root)) {
        return InvalidArgument("fused plan: bad root '" + part + "'");
      }
      saw_out = true;
    } else if (part.rfind("agg:", 0) == 0) {
      if (!ParseAggOpcode(part.substr(4), &plan.agg, &plan.agg_dir)) {
        return InvalidArgument("fused plan: bad aggregate '" + part + "'");
      }
      plan.has_agg = true;
    } else if (part[0] == 'b' || part[0] == 'u') {
      size_t colon = part.find(':');
      if (colon == std::string::npos || colon < 2) {
        return InvalidArgument("fused plan: bad step '" + part + "'");
      }
      FusedStep st;
      std::string opname = part.substr(1, colon - 1);
      std::vector<std::string> refs = Split(part.substr(colon + 1), ',');
      if (part[0] == 'b') {
        st.is_binary = true;
        if (!ParseBinaryOpcode(opname, &st.bop) || refs.size() != 2 ||
            !ParseRef(refs[0], &st.a) || !ParseRef(refs[1], &st.b)) {
          return InvalidArgument("fused plan: bad binary step '" + part + "'");
        }
      } else {
        st.is_binary = false;
        if (!ParseUnaryOpcode(opname, &st.uop) || refs.size() != 1 ||
            !ParseRef(refs[0], &st.a)) {
          return InvalidArgument("fused plan: bad unary step '" + part + "'");
        }
      }
      plan.steps.push_back(st);
    } else {
      return InvalidArgument("fused plan: unknown segment '" + part + "'");
    }
  }
  if (!saw_out) {
    return InvalidArgument("fused plan: missing out segment in '" + text + "'");
  }
  SYSDS_RETURN_IF_ERROR(plan.Validate());
  return plan;
}

Status FusedPlan::Validate() const {
  if (static_cast<int>(input_kinds.size()) != num_inputs) {
    return InvalidArgument("fused plan: input kind count mismatch");
  }
  if (steps.empty()) return InvalidArgument("fused plan: no steps");
  auto check_ref = [&](const FusedRef& r, size_t step_idx) {
    switch (r.kind) {
      case FusedRef::kInput:
        return r.idx >= 0 && r.idx < num_inputs;
      case FusedRef::kScalar:
        return r.idx >= 0 && r.idx < num_scalars;
      case FusedRef::kStep:
        return r.idx >= 0 && r.idx < static_cast<int>(step_idx);
    }
    return false;
  };
  for (size_t s = 0; s < steps.size(); ++s) {
    if (!check_ref(steps[s].a, s) ||
        (steps[s].is_binary && !check_ref(steps[s].b, s))) {
      return InvalidArgument("fused plan: out-of-range operand reference");
    }
  }
  if (root < 0 || root >= static_cast<int>(steps.size())) {
    return InvalidArgument("fused plan: root out of range");
  }
  if (has_agg &&
      (agg == AggOpCode::kTrace || agg == AggOpCode::kIndexMax ||
       agg == AggOpCode::kIndexMin)) {
    return InvalidArgument("fused plan: unsupported aggregate");
  }
  return Status::Ok();
}

namespace {

using agg::CellStats;

int64_t CountRowNnz(const double* row, int64_t cols) {
  int64_t nnz = 0;
  for (int64_t j = 0; j < cols; ++j) nnz += (row[j] != 0.0);
  return nnz;
}

// Dense-row scans mirroring lib_agg's ScanRow dense branch exactly, so
// fused aggregates fold the same value sequence as the unfused kernel
// scanning a materialized intermediate.
void ScanDenseRow(const double* row, int64_t cols, bool skip,
                  CellStats* stats) {
  if (skip) {
    for (int64_t j = 0; j < cols; ++j) {
      double v = row[j];
      if (v != 0.0) stats->Add(v, j);
    }
  } else {
    for (int64_t j = 0; j < cols; ++j) stats->Add(row[j], j);
  }
}

void ScanDenseRowIntoCols(const double* row, int64_t cols, bool skip,
                          int64_t r, CellStats* stats) {
  if (skip) {
    for (int64_t j = 0; j < cols; ++j) {
      double v = row[j];
      if (v != 0.0) stats[j].Add(v, r);
    }
  } else {
    for (int64_t j = 0; j < cols; ++j) stats[j].Add(row[j], r);
  }
}

// Evaluates the whole pipeline for a single driver value; only valid when
// the plan's sole matrix input is the driver (no vector inputs).
double EvalValue(const FusedPlan& plan, const std::vector<double>& scalars,
                 double driver_val, double* tmp) {
  for (size_t s = 0; s < plan.steps.size(); ++s) {
    const FusedStep& st = plan.steps[s];
    double a = st.a.kind == FusedRef::kScalar ? scalars[st.a.idx]
               : st.a.kind == FusedRef::kStep ? tmp[st.a.idx]
                                              : driver_val;
    if (st.is_binary) {
      double b = st.b.kind == FusedRef::kScalar ? scalars[st.b.idx]
                 : st.b.kind == FusedRef::kStep ? tmp[st.b.idx]
                                                : driver_val;
      tmp[s] = ApplyBinary(st.bop, a, b);
    } else {
      tmp[s] = ApplyUnary(st.uop, a);
    }
  }
  return tmp[plan.root];
}

// The sparse driver is safe only when the pipeline maps zero to zero at
// EVERY step: then the unfused chain would have stayed sparse throughout
// (each kernel's own zero_result == 0 shortcut) and implicit zeros behave
// identically on both paths.
bool CanUseSparseDriver(const FusedPlan& plan,
                        const std::vector<const MatrixBlock*>& inputs,
                        const std::vector<double>& scalars) {
  if (plan.num_inputs != 1 ||
      plan.input_kinds[0] != FusedInputKind::kFull ||
      !inputs[0]->IsSparse()) {
    return false;
  }
  std::vector<double> tmp(plan.steps.size());
  EvalValue(plan, scalars, 0.0, tmp.data());
  for (double v : tmp) {
    if (v != 0.0) return false;
  }
  return true;
}

StatusOr<FusedResult> ExecSparseDriver(
    const FusedPlan& plan, const MatrixBlock& a,
    const std::vector<double>& scalars, int num_threads) {
  int64_t rows = a.Rows(), cols = a.Cols();
  size_t nsteps = plan.steps.size();

  if (!plan.has_agg) {
    MatrixBlock c = MatrixBlock::Sparse(rows, cols);
    std::atomic<int64_t> nnz{0};
    ThreadPool::Global().ParallelFor(
        0, rows, PickChunks(rows), [&](int64_t rb, int64_t re) {
          std::vector<double> tmp(nsteps);
          int64_t local = 0;
          for (int64_t r = rb; r < re; ++r) {
            const SparseRow& ra = a.SparseData().Row(r);
            SparseRow& rc = c.SparseData().Row(r);
            rc.Reserve(ra.Size());
            for (int64_t p = 0; p < ra.Size(); ++p) {
              double v = EvalValue(plan, scalars, ra.Values()[p], tmp.data());
              if (v != 0.0) {
                rc.Append(ra.Indexes()[p], v);
                ++local;
              }
            }
          }
          nnz.fetch_add(local, std::memory_order_relaxed);
        },
        Imbalance().fused, num_threads);
    c.SetNonZeros(nnz.load(std::memory_order_relaxed));
    FusedResult out;
    out.matrix = std::move(c);
    return out;
  }

  bool skip = agg::SkipZeros(plan.agg);
  // Per-row fold identical to lib_agg's sparse ScanRow over the would-be
  // intermediate: stored cells evaluate the pipeline, implicit zeros stay
  // exactly 0.0 (guaranteed by CanUseSparseDriver).
  auto scan_row = [&](int64_t r, double* tmp, CellStats* stats) {
    const SparseRow& ra = a.SparseData().Row(r);
    if (skip) {
      for (int64_t p = 0; p < ra.Size(); ++p) {
        double v = EvalValue(plan, scalars, ra.Values()[p], tmp);
        if (v != 0.0) stats->Add(v, ra.Indexes()[p]);
      }
      return;
    }
    int64_t p = 0;
    for (int64_t j = 0; j < cols; ++j) {
      if (p < ra.Size() && ra.Indexes()[p] == j) {
        stats->Add(EvalValue(plan, scalars, ra.Values()[p++], tmp), j);
      } else {
        stats->Add(0.0, j);
      }
    }
  };

  if (plan.agg_dir == AggDirection::kAll) {
    CellStats stats = agg::FullAggChunked(
        rows, num_threads, [&]() {
          return [&, tmp = std::vector<double>(nsteps)](
                     int64_t r, CellStats* s) mutable {
            scan_row(r, tmp.data(), s);
          };
        });
    FusedResult out;
    out.is_scalar = true;
    out.scalar = agg::Finalize(plan.agg, stats);
    return out;
  }

  if (plan.agg_dir == AggDirection::kRow) {
    MatrixBlock c = MatrixBlock::Dense(rows, 1);
    ThreadPool::Global().ParallelFor(
        0, rows, PickChunks(rows), [&](int64_t rb, int64_t re) {
          std::vector<double> tmp(nsteps);
          for (int64_t r = rb; r < re; ++r) {
            CellStats stats;
            scan_row(r, tmp.data(), &stats);
            c.DenseData()[r] = agg::Finalize(plan.agg, stats);
          }
        },
        Imbalance().fused, num_threads);
    c.MarkNnzDirty();
    FusedResult out;
    out.matrix = std::move(c);
    return out;
  }

  // Column aggregate.
  std::vector<CellStats> stats = agg::ColAggChunked(
      rows, cols, num_threads, [&]() {
        return [&, tmp = std::vector<double>(nsteps)](
                   int64_t r, CellStats* cs) mutable {
          const SparseRow& ra = a.SparseData().Row(r);
          if (skip) {
            for (int64_t p = 0; p < ra.Size(); ++p) {
              double v = EvalValue(plan, scalars, ra.Values()[p], tmp.data());
              if (v != 0.0) cs[ra.Indexes()[p]].Add(v, r);
            }
            return;
          }
          int64_t p = 0;
          for (int64_t j = 0; j < cols; ++j) {
            if (p < ra.Size() && ra.Indexes()[p] == j) {
              cs[j].Add(EvalValue(plan, scalars, ra.Values()[p++], tmp.data()),
                        r);
            } else {
              cs[j].Add(0.0, r);
            }
          }
        };
      });
  MatrixBlock c = MatrixBlock::Dense(1, cols);
  for (int64_t j = 0; j < cols; ++j) {
    c.DenseData()[j] = agg::Finalize(plan.agg, stats[j]);
  }
  c.MarkNnzDirty();
  FusedResult out;
  out.matrix = std::move(c);
  return out;
}

// Maps one scalar binary op across a row for each operand-shape case with
// the op inlined, so every opcode gets its own tight (vectorizable) loop
// instead of a per-cell dispatch.
template <typename F>
inline void MapBinaryRow(F f, bool a_ptr, const double* ap, double av,
                         bool b_ptr, const double* bp, double bv, double* out,
                         int64_t cols) {
  if (a_ptr && b_ptr) {
    for (int64_t j = 0; j < cols; ++j) out[j] = f(ap[j], bp[j]);
  } else if (a_ptr) {
    for (int64_t j = 0; j < cols; ++j) out[j] = f(ap[j], bv);
  } else if (b_ptr) {
    for (int64_t j = 0; j < cols; ++j) out[j] = f(av, bp[j]);
  } else {
    std::fill(out, out + cols, f(av, bv));
  }
}

// Like MapBinaryRow, but folds each mapped cell into the Kahan sum with the
// kSum zero-skip instead of storing it — the value sequence matches
// agg::SumDenseRowInto over the would-be output row exactly.
template <typename F>
inline void FoldBinarySum(F f, bool a_ptr, const double* ap, double av,
                          bool b_ptr, const double* bp, double bv,
                          int64_t cols, agg::Kahan* k) {
  auto fold = [&](double v) {
    if (v != 0.0) k->Add(v);
  };
  if (a_ptr && b_ptr) {
    for (int64_t j = 0; j < cols; ++j) fold(f(ap[j], bp[j]));
  } else if (a_ptr) {
    for (int64_t j = 0; j < cols; ++j) fold(f(ap[j], bv));
  } else if (b_ptr) {
    for (int64_t j = 0; j < cols; ++j) fold(f(av, bp[j]));
  } else {
    double v = f(av, bv);
    if (v != 0.0) {
      for (int64_t j = 0; j < cols; ++j) k->Add(v);
    }
  }
}

// Per-chunk evaluator for the dense driver: one scratch row per step plus
// expansion rows for sparse full inputs; row vectors are expanded once and
// shared read-only across chunks.
class DenseRowEvaluator {
 public:
  DenseRowEvaluator(const FusedPlan& plan,
                    const std::vector<const MatrixBlock*>& inputs,
                    const std::vector<double>& scalars,
                    const std::vector<std::vector<double>>& rowvecs,
                    int64_t cols)
      : plan_(plan),
        inputs_(inputs),
        scalars_(scalars),
        rowvecs_(rowvecs),
        cols_(cols) {
    step_rows_.resize(plan.steps.size());
    for (auto& v : step_rows_) v.resize(static_cast<size_t>(cols));
    input_scratch_.resize(inputs.size());
    for (size_t i = 0; i < inputs.size(); ++i) {
      if (plan.input_kinds[i] == FusedInputKind::kFull &&
          inputs[i]->IsSparse()) {
        input_scratch_[i].resize(static_cast<size_t>(cols));
      }
    }
  }

  /// Evaluates all steps for row r. The root step writes into dest when
  /// given (zero-copy materialization); returns the root row.
  const double* Eval(int64_t r, double* dest) {
    PrepSparseRows(r);
    double* root_out = nullptr;
    for (size_t s = 0; s < plan_.steps.size(); ++s) {
      double* out = (dest != nullptr && static_cast<int>(s) == plan_.root)
                        ? dest
                        : step_rows_[s].data();
      EvalStep(s, r, out);
      if (static_cast<int>(s) == plan_.root) root_out = out;
    }
    return root_out;
  }

  /// Sum-aggregate fast path: evaluates the non-root steps, then folds the
  /// root step's cells straight into the Kahan accumulator without
  /// materializing the root row. The per-cell value sequence (column order,
  /// v != 0.0 skip) is exactly that of agg::SumDenseRowInto over the
  /// materialized root row, so the result is bit-identical.
  void EvalAndSumInto(int64_t r, agg::Kahan* k) {
    PrepSparseRows(r);
    for (size_t s = 0; s < plan_.steps.size(); ++s) {
      if (static_cast<int>(s) == plan_.root) continue;
      EvalStep(s, r, step_rows_[s].data());
    }
    const FusedStep& st = plan_.steps[static_cast<size_t>(plan_.root)];
    const double* ap = nullptr;
    double av = 0.0;
    bool a_ptr = Resolve(st.a, r, &ap, &av);
    if (st.is_binary) {
      const double* bp = nullptr;
      double bv = 0.0;
      bool b_ptr = Resolve(st.b, r, &bp, &bv);
      switch (st.bop) {
        case BinaryOpCode::kAdd:
          FoldBinarySum([](double x, double y) { return x + y; }, a_ptr, ap,
                        av, b_ptr, bp, bv, cols_, k);
          break;
        case BinaryOpCode::kSub:
          FoldBinarySum([](double x, double y) { return x - y; }, a_ptr, ap,
                        av, b_ptr, bp, bv, cols_, k);
          break;
        case BinaryOpCode::kMul:
          FoldBinarySum([](double x, double y) { return x * y; }, a_ptr, ap,
                        av, b_ptr, bp, bv, cols_, k);
          break;
        case BinaryOpCode::kDiv:
          FoldBinarySum([](double x, double y) { return x / y; }, a_ptr, ap,
                        av, b_ptr, bp, bv, cols_, k);
          break;
        default:
          FoldBinarySum(
              [op = st.bop](double x, double y) {
                return ApplyBinary(op, x, y);
              },
              a_ptr, ap, av, b_ptr, bp, bv, cols_, k);
          break;
      }
    } else {
      if (a_ptr) {
        for (int64_t j = 0; j < cols_; ++j) {
          double v = ApplyUnary(st.uop, ap[j]);
          if (v != 0.0) k->Add(v);
        }
      } else {
        double v = ApplyUnary(st.uop, av);
        if (v != 0.0) {
          for (int64_t j = 0; j < cols_; ++j) k->Add(v);
        }
      }
    }
  }

 private:
  // Expands sparse full inputs' row r into dense scratch.
  void PrepSparseRows(int64_t r) {
    for (size_t i = 0; i < inputs_.size(); ++i) {
      if (input_scratch_[i].empty()) continue;
      std::vector<double>& buf = input_scratch_[i];
      std::fill(buf.begin(), buf.end(), 0.0);
      const SparseRow& ra = inputs_[i]->SparseData().Row(r);
      for (int64_t p = 0; p < ra.Size(); ++p) {
        buf[static_cast<size_t>(ra.Indexes()[p])] = ra.Values()[p];
      }
    }
  }

  // Evaluates step s for row r into out. Hot arithmetic ops get dedicated
  // loops; everything else goes through the (inline) generic dispatch. All
  // cases fold cells through the same ApplyBinary/ApplyUnary semantics.
  void EvalStep(size_t s, int64_t r, double* out) {
    const FusedStep& st = plan_.steps[s];
    const double* ap = nullptr;
    double av = 0.0;
    bool a_ptr = Resolve(st.a, r, &ap, &av);
    if (st.is_binary) {
      const double* bp = nullptr;
      double bv = 0.0;
      bool b_ptr = Resolve(st.b, r, &bp, &bv);
      switch (st.bop) {
        case BinaryOpCode::kAdd:
          MapBinaryRow([](double x, double y) { return x + y; }, a_ptr, ap,
                       av, b_ptr, bp, bv, out, cols_);
          break;
        case BinaryOpCode::kSub:
          MapBinaryRow([](double x, double y) { return x - y; }, a_ptr, ap,
                       av, b_ptr, bp, bv, out, cols_);
          break;
        case BinaryOpCode::kMul:
          MapBinaryRow([](double x, double y) { return x * y; }, a_ptr, ap,
                       av, b_ptr, bp, bv, out, cols_);
          break;
        case BinaryOpCode::kDiv:
          MapBinaryRow([](double x, double y) { return x / y; }, a_ptr, ap,
                       av, b_ptr, bp, bv, out, cols_);
          break;
        default:
          MapBinaryRow(
              [op = st.bop](double x, double y) {
                return ApplyBinary(op, x, y);
              },
              a_ptr, ap, av, b_ptr, bp, bv, out, cols_);
          break;
      }
    } else {
      if (a_ptr) {
        for (int64_t j = 0; j < cols_; ++j) {
          out[j] = ApplyUnary(st.uop, ap[j]);
        }
      } else {
        std::fill(out, out + cols_, ApplyUnary(st.uop, av));
      }
    }
  }

  // Resolves an operand for row r: returns true and sets *ptr for row-shaped
  // operands, or returns false and sets *val for cell-invariant scalars.
  bool Resolve(const FusedRef& ref, int64_t r, const double** ptr,
               double* val) {
    switch (ref.kind) {
      case FusedRef::kScalar:
        *val = scalars_[ref.idx];
        return false;
      case FusedRef::kStep:
        *ptr = step_rows_[ref.idx].data();
        return true;
      case FusedRef::kInput: {
        const MatrixBlock* in = inputs_[ref.idx];
        switch (plan_.input_kinds[ref.idx]) {
          case FusedInputKind::kColVec:
            *val = in->Get(r, 0);
            return false;
          case FusedInputKind::kRowVec:
            *ptr = rowvecs_[ref.idx].data();
            return true;
          case FusedInputKind::kFull:
            if (in->IsSparse()) {
              *ptr = input_scratch_[ref.idx].data();
            } else {
              *ptr = in->DenseRow(r);
            }
            return true;
        }
        return false;
      }
    }
    return false;
  }

  const FusedPlan& plan_;
  const std::vector<const MatrixBlock*>& inputs_;
  const std::vector<double>& scalars_;
  const std::vector<std::vector<double>>& rowvecs_;
  int64_t cols_;
  std::vector<std::vector<double>> step_rows_;
  std::vector<std::vector<double>> input_scratch_;
};

StatusOr<FusedResult> ExecDenseDriver(
    const FusedPlan& plan, const std::vector<const MatrixBlock*>& inputs,
    const std::vector<double>& scalars, int64_t rows, int64_t cols,
    int num_threads) {
  // Row vectors expanded once, shared read-only by all chunks.
  std::vector<std::vector<double>> rowvecs(inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    if (plan.input_kinds[i] != FusedInputKind::kRowVec) continue;
    rowvecs[i].resize(static_cast<size_t>(cols));
    for (int64_t j = 0; j < cols; ++j) rowvecs[i][j] = inputs[i]->Get(0, j);
  }

  if (!plan.has_agg) {
    MatrixBlock c = MatrixBlock::Dense(rows, cols);
    std::atomic<int64_t> nnz{0};
    ThreadPool::Global().ParallelFor(
        0, rows, PickChunks(rows), [&](int64_t rb, int64_t re) {
          DenseRowEvaluator ev(plan, inputs, scalars, rowvecs, cols);
          int64_t local = 0;
          for (int64_t r = rb; r < re; ++r) {
            const double* row = ev.Eval(r, c.DenseRow(r));
            local += CountRowNnz(row, cols);
          }
          nnz.fetch_add(local, std::memory_order_relaxed);
        },
        Imbalance().fused, num_threads);
    // Sparsity re-examination happens only here at the region root, with
    // the inline nonzero count (no extra full scan for the pipeline).
    c.ExamSparsity(nnz.load(std::memory_order_relaxed));
    FusedResult out;
    out.matrix = std::move(c);
    return out;
  }

  bool skip = agg::SkipZeros(plan.agg);
  bool sum_fast = plan.agg == AggOpCode::kSum;
  if (plan.agg_dir == AggDirection::kAll) {
    FusedResult out;
    out.is_scalar = true;
    if (sum_fast) {
      out.scalar = agg::FullSumChunked(rows, num_threads, [&]() {
                     auto ev = std::make_shared<DenseRowEvaluator>(
                         plan, inputs, scalars, rowvecs, cols);
                     return [ev](int64_t r, agg::Kahan* k) {
                       ev->EvalAndSumInto(r, k);
                     };
                   }).sum;
      return out;
    }
    CellStats stats = agg::FullAggChunked(
        rows, num_threads, [&]() {
          auto ev = std::make_shared<DenseRowEvaluator>(plan, inputs, scalars,
                                                        rowvecs, cols);
          return [&, ev](int64_t r, CellStats* s) {
            ScanDenseRow(ev->Eval(r, nullptr), cols, skip, s);
          };
        });
    out.scalar = agg::Finalize(plan.agg, stats);
    return out;
  }

  if (plan.agg_dir == AggDirection::kRow) {
    MatrixBlock c = MatrixBlock::Dense(rows, 1);
    ThreadPool::Global().ParallelFor(
        0, rows, PickChunks(rows), [&](int64_t rb, int64_t re) {
          DenseRowEvaluator ev(plan, inputs, scalars, rowvecs, cols);
          for (int64_t r = rb; r < re; ++r) {
            if (sum_fast) {
              agg::Kahan k;
              ev.EvalAndSumInto(r, &k);
              c.DenseData()[r] = k.sum;
              continue;
            }
            CellStats stats;
            ScanDenseRow(ev.Eval(r, nullptr), cols, skip, &stats);
            c.DenseData()[r] = agg::Finalize(plan.agg, stats);
          }
        },
        Imbalance().fused, num_threads);
    c.MarkNnzDirty();
    FusedResult out;
    out.matrix = std::move(c);
    return out;
  }

  std::vector<CellStats> stats = agg::ColAggChunked(
      rows, cols, num_threads, [&]() {
        auto ev = std::make_shared<DenseRowEvaluator>(plan, inputs, scalars,
                                                      rowvecs, cols);
        return [&, ev](int64_t r, CellStats* cs) {
          ScanDenseRowIntoCols(ev->Eval(r, nullptr), cols, skip, r, cs);
        };
      });
  MatrixBlock c = MatrixBlock::Dense(1, cols);
  for (int64_t j = 0; j < cols; ++j) {
    c.DenseData()[j] = agg::Finalize(plan.agg, stats[j]);
  }
  c.MarkNnzDirty();
  FusedResult out;
  out.matrix = std::move(c);
  return out;
}

}  // namespace

StatusOr<FusedResult> ExecuteFusedPlan(
    const FusedPlan& plan, const std::vector<const MatrixBlock*>& inputs,
    const std::vector<double>& scalars, int num_threads) {
  SYSDS_RETURN_IF_ERROR(plan.Validate());
  if (static_cast<int>(inputs.size()) != plan.num_inputs ||
      static_cast<int>(scalars.size()) != plan.num_scalars) {
    return RuntimeError("fused: operand count mismatch");
  }
  int64_t rows = -1, cols = -1;
  for (int i = 0; i < plan.num_inputs; ++i) {
    if (plan.input_kinds[i] == FusedInputKind::kFull) {
      rows = inputs[i]->Rows();
      cols = inputs[i]->Cols();
      break;
    }
  }
  if (rows < 0) {
    return RuntimeError("fused plan requires a full-shape matrix input");
  }
  for (int i = 0; i < plan.num_inputs; ++i) {
    const MatrixBlock* in = inputs[i];
    bool ok = true;
    switch (plan.input_kinds[i]) {
      case FusedInputKind::kFull:
        ok = in->Rows() == rows && in->Cols() == cols;
        break;
      case FusedInputKind::kColVec:
        ok = in->Rows() == rows && in->Cols() == 1;
        break;
      case FusedInputKind::kRowVec:
        ok = in->Rows() == 1 && in->Cols() == cols;
        break;
    }
    if (!ok) return RuntimeError("fused: input shape mismatch");
  }

  if (CanUseSparseDriver(plan, inputs, scalars)) {
    return ExecSparseDriver(plan, *inputs[0], scalars, num_threads);
  }
  return ExecDenseDriver(plan, inputs, scalars, rows, cols, num_threads);
}

}  // namespace sysds
