#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "builtins/registry.h"
#include "compiler/codegen.h"
#include "compiler/compiler.h"
#include "compiler/compress_rewrite.h"
#include "compiler/hop.h"
#include "compiler/liveness.h"
#include "compiler/rewrites.h"
#include "lang/parser.h"
#include "obs/trace.h"

namespace sysds {

namespace {

Status ErrAt(const Expr& e, const std::string& msg) {
  return ValidateError(msg + " at line " + std::to_string(e.line) + ":" +
                       std::to_string(e.col));
}

Status ErrAt(const Stmt& s, const std::string& msg) {
  return ValidateError(msg + " at line " + std::to_string(s.line) + ":" +
                       std::to_string(s.col));
}

bool IsMatrix(const HopPtr& h) { return h->data_type() == DataType::kMatrix; }
bool IsScalar(const HopPtr& h) { return h->data_type() == DataType::kScalar; }

/// Positional/named argument access for native builtin calls.
class CallArgs {
 public:
  explicit CallArgs(const Expr& call) {
    for (size_t i = 0; i < call.args.size(); ++i) {
      const std::string& name =
          i < call.arg_names.size() ? call.arg_names[i] : "";
      if (name.empty()) {
        positional_.push_back(call.args[i].get());
      } else {
        named_[name] = call.args[i].get();
      }
    }
  }

  size_t NumPositional() const { return positional_.size(); }
  size_t Total() const { return positional_.size() + named_.size(); }

  /// The k-th positional argument or the named argument, else nullptr.
  const Expr* Get(size_t k, const std::string& name) const {
    if (k < positional_.size()) return positional_[k];
    auto it = named_.find(name);
    return it == named_.end() ? nullptr : it->second;
  }

 private:
  std::vector<const Expr*> positional_;
  std::map<std::string, const Expr*> named_;
};

/// Collects variable names assigned anywhere in a statement list (used for
/// conservative size propagation through loops and parfor result vars).
void CollectAssignedVars(const std::vector<StmtPtr>& stmts,
                         std::set<std::string>* out) {
  for (const StmtPtr& s : stmts) {
    switch (s->kind) {
      case StmtKind::kAssign:
        for (const AssignTarget& t : s->targets) out->insert(t.name);
        break;
      case StmtKind::kIf:
        CollectAssignedVars(s->body, out);
        CollectAssignedVars(s->else_body, out);
        break;
      case StmtKind::kWhile:
        CollectAssignedVars(s->body, out);
        break;
      case StmtKind::kFor:
        out->insert(s->loop_var);
        CollectAssignedVars(s->body, out);
        break;
      default:
        break;
    }
  }
}

class Compiler {
 public:
  Compiler(Program* prog, const DMLConfig* config)
      : prog_(prog), config_(config) {}

  Status AddFunctionAsts(const std::vector<StmtPtr>& functions) {
    for (const StmtPtr& f : functions) {
      if (!function_asts_.emplace(f->function_name, f.get()).second) {
        return ErrAt(*f, "duplicate function '" + f->function_name + "'");
      }
    }
    return Status::Ok();
  }

  Status CompileTopLevel(const std::vector<StmtPtr>& stmts,
                         SymbolInfoMap* symbols) {
    return BuildBlocks(stmts, symbols, &prog_->Blocks());
  }

 private:
  // ---- per-basic-block build context ----
  struct BlockCtx {
    std::map<std::string, HopPtr> hops;       // current defs within block
    std::map<std::string, int> versions;      // bumped by fcall outputs
    std::vector<std::string> assigned_order;  // first-assignment order
    // Variables assigned anywhere in this block: transient reads of these
    // must snapshot the value (cpvar to a temp) to avoid write-after-read
    // hazards with the block-exit transient writes.
    std::set<std::string> block_assigned;
    SymbolInfoMap* symbols;
  };

  Program* prog_;
  const DMLConfig* config_;
  std::map<std::string, const Stmt*> function_asts_;
  std::set<std::string> loaded_builtin_scripts_;

  // ---- functions ----

  bool IsFunctionName(const std::string& name) {
    if (prog_->Functions().count(name) || function_asts_.count(name)) {
      return true;
    }
    return GetBuiltinScript(name) != nullptr;
  }

  Status EnsureFunction(const std::string& name) {
    if (prog_->Functions().count(name)) return Status::Ok();
    if (!function_asts_.count(name)) {
      const char* script = GetBuiltinScript(name);
      if (script == nullptr) {
        return ValidateError("unknown function '" + name + "'");
      }
      if (loaded_builtin_scripts_.insert(name).second) {
        SYSDS_ASSIGN_OR_RETURN(DMLProgram parsed, ParseDML(script));
        for (StmtPtr& f : parsed.functions) {
          if (!function_asts_.count(f->function_name)) {
            builtin_fn_storage_.push_back(std::move(f));
            function_asts_[builtin_fn_storage_.back()->function_name] =
                builtin_fn_storage_.back().get();
          }
        }
      }
      if (!function_asts_.count(name)) {
        return Internal("builtin script for '" + name +
                        "' does not define it");
      }
    }
    return CompileFunction(name, function_asts_[name]);
  }

  static StatusOr<LitValue> EvalDefault(const Expr& e) {
    switch (e.kind) {
      case ExprKind::kIntLiteral: return LitValue::Int(e.int_value);
      case ExprKind::kDoubleLiteral: return LitValue::Double(e.double_value);
      case ExprKind::kStringLiteral: return LitValue::String(e.string_value);
      case ExprKind::kBoolLiteral: return LitValue::Bool(e.bool_value);
      case ExprKind::kUnary:
        if (e.name == "-") {
          SYSDS_ASSIGN_OR_RETURN(LitValue v, EvalDefault(*e.args[0]));
          if (v.vt == ValueType::kInt64) return LitValue::Int(-v.i);
          return LitValue::Double(-v.AsDouble());
        }
        break;
      default:
        break;
    }
    return ValidateError("function default values must be literals");
  }

  Status CompileFunction(const std::string& name, const Stmt* ast) {
    auto fb = std::make_shared<FunctionBlock>();
    fb->name = name;
    for (const FunctionParam& p : ast->params) {
      FunctionBlock::Param fp;
      fp.name = p.name;
      fp.dt = p.data_type;
      fp.vt = p.value_type;
      if (p.default_value != nullptr) {
        SYSDS_ASSIGN_OR_RETURN(fp.default_value, EvalDefault(*p.default_value));
        fp.has_default = true;
      }
      fb->params.push_back(std::move(fp));
    }
    for (const FunctionParam& r : ast->returns) {
      FunctionBlock::Param fr;
      fr.name = r.name;
      fr.dt = r.data_type;
      fr.vt = r.value_type;
      fb->returns.push_back(std::move(fr));
    }
    // Insert before compiling the body so recursion resolves.
    prog_->Functions()[name] = fb;

    SymbolInfoMap symbols;
    for (const FunctionBlock::Param& p : fb->params) {
      SymbolInfo info;
      info.dt = p.dt;
      info.vt = p.vt;
      if (p.dt == DataType::kScalar) {
        info.dim1 = 0;
        info.dim2 = 0;
      }
      symbols[p.name] = info;
    }
    return BuildBlocks(ast->body, &symbols, &fb->body);
  }

  // ---- block construction ----

  bool IsDataDependent(const Expr& rhs) {
    return rhs.kind == ExprKind::kCall &&
           (rhs.name == "transformencode" || IsFunctionName(rhs.name));
  }

  Status BuildBlocks(const std::vector<StmtPtr>& stmts,
                     SymbolInfoMap* symbols,
                     std::vector<ProgramBlockPtr>* out) {
    std::vector<const Stmt*> run;
    auto flush = [&]() -> Status {
      if (run.empty()) return Status::Ok();
      SYSDS_ASSIGN_OR_RETURN(ProgramBlockPtr block,
                             BuildBasicBlock(run, symbols));
      out->push_back(std::move(block));
      run.clear();
      return Status::Ok();
    };

    for (const StmtPtr& stmt : stmts) {
      switch (stmt->kind) {
        case StmtKind::kAssign:
          run.push_back(stmt.get());
          // The output sizes of a function call or transformencode are
          // known only once it has run: the statements after it form a new
          // block, which recompiles against the live sizes.
          if (IsDataDependent(*stmt->rhs)) SYSDS_RETURN_IF_ERROR(flush());
          break;
        case StmtKind::kExpression:
          run.push_back(stmt.get());
          break;
        case StmtKind::kFunctionDef:
          return ErrAt(*stmt, "nested function definitions are not allowed");
        case StmtKind::kIf: {
          SYSDS_RETURN_IF_ERROR(flush());
          SYSDS_ASSIGN_OR_RETURN(PredInfo pred,
                                 BuildPredicate(*stmt->predicate, symbols));
          if (pred.is_const) {
            // Compile-time branch removal (paper Example 1).
            const auto& taken = pred.const_value ? stmt->body
                                                 : stmt->else_body;
            SYSDS_RETURN_IF_ERROR(BuildBlocks(taken, symbols, out));
            break;
          }
          auto ifb = std::make_unique<IfBlock>();
          ifb->GetPredicate() = std::move(pred.predicate);
          SymbolInfoMap then_syms = *symbols;
          SymbolInfoMap else_syms = *symbols;
          SYSDS_RETURN_IF_ERROR(
              BuildBlocks(stmt->body, &then_syms, &ifb->ThenBlocks()));
          SYSDS_RETURN_IF_ERROR(
              BuildBlocks(stmt->else_body, &else_syms, &ifb->ElseBlocks()));
          MergeSymbols(then_syms, else_syms, symbols);
          out->push_back(std::move(ifb));
          break;
        }
        case StmtKind::kWhile: {
          SYSDS_RETURN_IF_ERROR(flush());
          std::set<std::string> assigned;
          CollectAssignedVars(stmt->body, &assigned);
          InvalidateSizes(assigned, symbols);
          auto wb = std::make_unique<WhileBlock>();
          SYSDS_ASSIGN_OR_RETURN(PredInfo pred,
                                 BuildPredicate(*stmt->predicate, symbols));
          wb->GetPredicate() = std::move(pred.predicate);
          SymbolInfoMap body_syms = *symbols;
          SYSDS_RETURN_IF_ERROR(
              BuildBlocks(stmt->body, &body_syms, &wb->Body()));
          AbsorbLoopSymbols(body_syms, assigned, symbols);
          out->push_back(std::move(wb));
          break;
        }
        case StmtKind::kFor: {
          SYSDS_RETURN_IF_ERROR(flush());
          std::set<std::string> assigned;
          CollectAssignedVars(stmt->body, &assigned);
          InvalidateSizes(assigned, symbols);
          SymbolInfo loop_info;
          loop_info.dt = DataType::kScalar;
          loop_info.vt = ValueType::kInt64;
          loop_info.dim1 = 0;
          loop_info.dim2 = 0;
          (*symbols)[stmt->loop_var] = loop_info;

          std::unique_ptr<ForBlock> fb;
          ParForBlock* pfb = nullptr;
          if (stmt->is_parfor) {
            auto p = std::make_unique<ParForBlock>();
            pfb = p.get();
            fb = std::move(p);
          } else {
            fb = std::make_unique<ForBlock>();
          }
          fb->LoopVar() = stmt->loop_var;
          SYSDS_ASSIGN_OR_RETURN(PredInfo from,
                                 BuildPredicate(*stmt->from, symbols));
          SYSDS_ASSIGN_OR_RETURN(PredInfo to,
                                 BuildPredicate(*stmt->to, symbols));
          SYSDS_ASSIGN_OR_RETURN(PredInfo incr,
                                 BuildPredicate(*stmt->increment, symbols));
          fb->From() = std::move(from.predicate);
          fb->To() = std::move(to.predicate);
          fb->Increment() = std::move(incr.predicate);
          SymbolInfoMap body_syms = *symbols;
          SYSDS_RETURN_IF_ERROR(
              BuildBlocks(stmt->body, &body_syms, &fb->Body()));
          AbsorbLoopSymbols(body_syms, assigned, symbols);
          if (pfb != nullptr) {
            for (const std::string& v : assigned) {
              if (v != stmt->loop_var) pfb->ResultVars().push_back(v);
            }
          }
          out->push_back(std::move(fb));
          break;
        }
      }
    }
    return flush();
  }

  static void MergeSymbols(const SymbolInfoMap& a, const SymbolInfoMap& b,
                           SymbolInfoMap* out) {
    SymbolInfoMap merged = a;
    for (const auto& [name, info] : b) {
      auto it = merged.find(name);
      if (it == merged.end()) {
        merged[name] = info;
        merged[name].dim1 = -1;
        merged[name].dim2 = -1;
        merged[name].nnz = -1;
      } else if (it->second.dim1 != info.dim1 ||
                 it->second.dim2 != info.dim2) {
        it->second.dim1 = -1;
        it->second.dim2 = -1;
        it->second.nnz = -1;
      } else if (it->second.nnz != info.nnz) {
        it->second.nnz = -1;
      }
    }
    // Vars only in `a` but possibly skipped in the else branch: sizes stay
    // (they may be stale if only-then assigned; be conservative).
    for (auto& [name, info] : merged) {
      if (!b.count(name) && a.count(name) && !out->count(name)) {
        info.dim1 = -1;
        info.dim2 = -1;
        info.nnz = -1;
      }
    }
    *out = std::move(merged);
  }

  static void InvalidateSizes(const std::set<std::string>& vars,
                              SymbolInfoMap* symbols) {
    for (const std::string& v : vars) {
      auto it = symbols->find(v);
      if (it != symbols->end()) {
        it->second.dim1 = -1;
        it->second.dim2 = -1;
        it->second.nnz = -1;
      }
    }
  }

  static void AbsorbLoopSymbols(const SymbolInfoMap& body_syms,
                                const std::set<std::string>& assigned,
                                SymbolInfoMap* symbols) {
    for (const auto& [name, info] : body_syms) {
      if (!symbols->count(name)) {
        SymbolInfo s = info;
        if (assigned.count(name)) {
          s.dim1 = -1;
          s.dim2 = -1;
          s.nnz = -1;
        }
        (*symbols)[name] = s;
      } else if (assigned.count(name)) {
        SymbolInfo& s = (*symbols)[name];
        s.dt = info.dt;
        s.vt = info.vt;
        s.dim1 = -1;
        s.dim2 = -1;
        s.nnz = -1;
      }
    }
  }

  struct PredInfo {
    Predicate predicate;
    bool is_const = false;
    bool const_value = false;
  };

  StatusOr<PredInfo> BuildPredicate(const Expr& e, SymbolInfoMap* symbols) {
    BlockCtx ctx;
    ctx.symbols = symbols;
    SYSDS_ASSIGN_OR_RETURN(HopPtr hop, BuildExpr(e, &ctx));
    if (hop->data_type() != DataType::kScalar) {
      return ErrAt(e, "predicate must be scalar");
    }
    static int pred_counter = 0;
    std::string var = "__pred" + std::to_string(pred_counter++);
    std::vector<HopPtr> roots = {MakeTransientWrite(var, hop)};
    ApplyStaticRewrites(&roots);
    PredInfo info;
    if (roots[0]->inputs()[0]->op() == HopOp::kLiteral) {
      info.is_const = true;
      info.const_value = roots[0]->inputs()[0]->literal().AsBool();
    }
    SYSDS_ASSIGN_OR_RETURN(info.predicate.instructions,
                           GenerateInstructions(roots, *config_));
    info.predicate.result_var = var;
    info.predicate.hop_roots = std::move(roots);
    return info;
  }

  StatusOr<ProgramBlockPtr> BuildBasicBlock(
      const std::vector<const Stmt*>& stmts, SymbolInfoMap* symbols) {
    BlockCtx ctx;
    ctx.symbols = symbols;
    for (const Stmt* stmt : stmts) {
      if (stmt->kind == StmtKind::kAssign) {
        for (const AssignTarget& t : stmt->targets) {
          ctx.block_assigned.insert(t.name);
        }
      }
    }
    std::vector<HopPtr> roots;

    for (const Stmt* stmt : stmts) {
      if (stmt->kind == StmtKind::kExpression) {
        SYSDS_ASSIGN_OR_RETURN(HopPtr hop, BuildExpr(*stmt->expr, &ctx));
        roots.push_back(std::move(hop));
        continue;
      }
      // kAssign
      if (stmt->targets.size() > 1) {
        SYSDS_RETURN_IF_ERROR(BuildMultiAssign(*stmt, &ctx, &roots));
        continue;
      }
      const AssignTarget& target = stmt->targets[0];
      SYSDS_ASSIGN_OR_RETURN(HopPtr rhs, BuildExpr(*stmt->rhs, &ctx));
      if (target.index != nullptr) {
        SYSDS_ASSIGN_OR_RETURN(
            HopPtr lix, BuildLeftIndexing(*target.index, target.name,
                                          std::move(rhs), &ctx));
        AssignVar(target.name, std::move(lix), &ctx);
      } else {
        AssignVar(target.name, std::move(rhs), &ctx);
      }
    }

    // Transient writes for all assigned variables, in first-assign order.
    for (const std::string& name : ctx.assigned_order) {
      auto it = ctx.hops.find(name);
      if (it == ctx.hops.end()) continue;  // erased by multi-assign
      const HopPtr& hop = it->second;
      if (hop->op() == HopOp::kTransientRead && hop->name() == name) continue;
      roots.push_back(MakeTransientWrite(name, hop));
    }

    ApplyStaticRewrites(&roots);

    // Update compile-time symbols from the (rewritten) outputs.
    bool unknown_sizes = false;
    for (const HopPtr& root : roots) {
      if (root->op() == HopOp::kTransientWrite) {
        SymbolInfo info;
        info.dt = root->data_type();
        info.vt = root->value_type();
        info.dim1 = root->dim1();
        info.dim2 = root->dim2();
        info.nnz = root->nnz();
        (*symbols)[root->name()] = info;
      }
    }
    for (Hop* hop : TopoOrder(roots)) {
      if ((hop->data_type() == DataType::kMatrix ||
           hop->data_type() == DataType::kFrame) &&
          !hop->DimsKnown()) {
        unknown_sizes = true;
      }
    }

    auto block = std::make_unique<BasicBlock>();
    SYSDS_ASSIGN_OR_RETURN(block->Instructions(),
                           GenerateInstructions(roots, *config_));
    block->SetHops(std::move(roots), unknown_sizes);
    return StatusOr<ProgramBlockPtr>(std::move(block));
  }

  void AssignVar(const std::string& name, HopPtr hop, BlockCtx* ctx) {
    if (std::find(ctx->assigned_order.begin(), ctx->assigned_order.end(),
                  name) == ctx->assigned_order.end()) {
      ctx->assigned_order.push_back(name);
    }
    SymbolInfo info;
    info.dt = hop->data_type();
    info.vt = hop->value_type();
    info.dim1 = hop->dim1();
    info.dim2 = hop->dim2();
    info.nnz = hop->nnz();
    (*ctx->symbols)[name] = info;
    ctx->hops[name] = std::move(hop);
  }

  Status BuildMultiAssign(const Stmt& stmt, BlockCtx* ctx,
                          std::vector<HopPtr>* roots) {
    if (stmt.rhs->kind != ExprKind::kCall) {
      return ErrAt(stmt, "multi-assignment requires a function call");
    }
    const Expr& call = *stmt.rhs;
    HopPtr hop;
    std::vector<DataType> out_dts;
    std::vector<ValueType> out_vts;
    if (call.name == "transformencode") {
      SYSDS_ASSIGN_OR_RETURN(hop, BuildTransformEncode(call, ctx));
      out_dts = {DataType::kMatrix, DataType::kFrame};
      out_vts = {ValueType::kFP64, ValueType::kString};
    } else if (IsFunctionName(call.name)) {
      SYSDS_ASSIGN_OR_RETURN(hop, BuildFunctionCall(call, ctx));
      const FunctionBlock& fn = *prog_->Functions()[call.name];
      if (fn.returns.size() < stmt.targets.size()) {
        return ErrAt(stmt, "function '" + call.name + "' returns " +
                               std::to_string(fn.returns.size()) +
                               " values, " +
                               std::to_string(stmt.targets.size()) +
                               " requested");
      }
      for (const auto& r : fn.returns) {
        out_dts.push_back(r.dt);
        out_vts.push_back(r.vt);
      }
    } else {
      return ErrAt(stmt, "multi-assignment requires a function call");
    }
    std::string outdts;
    for (size_t k = 0; k < stmt.targets.size(); ++k) {
      hop->outputs().push_back(stmt.targets[k].name);
      if (k > 0) outdts += ",";
      DataType dt = k < out_dts.size() ? out_dts[k] : DataType::kMatrix;
      ValueType vt = k < out_vts.size() ? out_vts[k] : ValueType::kFP64;
      outdts += std::string(DataTypeName(dt)) + ":" + ValueTypeName(vt);
      // Register symbol + bump version; later reads go through fresh treads.
      SymbolInfo info;
      info.dt = dt;
      info.vt = vt;
      if (dt == DataType::kScalar) {
        info.dim1 = 0;
        info.dim2 = 0;
      }
      (*ctx->symbols)[stmt.targets[k].name] = info;
      ctx->hops.erase(stmt.targets[k].name);
      ctx->versions[stmt.targets[k].name]++;
    }
    hop->params()["outdts"] = outdts;
    roots->push_back(std::move(hop));
    return Status::Ok();
  }

  // ---- expressions ----

  StatusOr<HopPtr> ReadVar(const std::string& name, const Expr& e,
                           BlockCtx* ctx) {
    auto it = ctx->hops.find(name);
    if (it != ctx->hops.end()) return it->second;
    auto sit = ctx->symbols->find(name);
    if (sit == ctx->symbols->end()) {
      return ErrAt(e, "undefined variable '" + name + "'");
    }
    const SymbolInfo& info = sit->second;
    HopPtr tread = MakeTransientRead(name, info.dt, info.vt, info.dim1,
                                     info.dim2, info.nnz);
    int version = ctx->versions.count(name) ? ctx->versions[name] : 0;
    if (version > 0) {
      tread->params()["v"] = std::to_string(version);
    }
    if (ctx->block_assigned.count(name)) {
      tread->params()["snapshot"] = "1";
    }
    ctx->hops[name] = tread;  // reuse the same read within the block
    return tread;
  }

  StatusOr<HopPtr> BuildExpr(const Expr& e, BlockCtx* ctx) {
    switch (e.kind) {
      case ExprKind::kIntLiteral:
        return MakeLiteralHop(LitValue::Int(e.int_value));
      case ExprKind::kDoubleLiteral:
        return MakeLiteralHop(LitValue::Double(e.double_value));
      case ExprKind::kStringLiteral:
        return MakeLiteralHop(LitValue::String(e.string_value));
      case ExprKind::kBoolLiteral:
        return MakeLiteralHop(LitValue::Bool(e.bool_value));
      case ExprKind::kIdentifier:
        return ReadVar(e.name, e, ctx);
      case ExprKind::kBinary:
        return BuildBinary(e, ctx);
      case ExprKind::kUnary: {
        SYSDS_ASSIGN_OR_RETURN(HopPtr in, BuildExpr(*e.args[0], ctx));
        std::string opcode = e.name == "-" ? "uminus" : e.name;
        auto hop = std::make_shared<Hop>(HopOp::kUnary, opcode,
                                         in->data_type(),
                                         in->data_type() == DataType::kMatrix
                                             ? ValueType::kFP64
                                             : in->value_type());
        if (opcode == "!") {
          hop->set_types(in->data_type(),
                         IsMatrix(in) ? ValueType::kFP64
                                      : ValueType::kBoolean);
        }
        hop->AddInput(std::move(in));
        hop->RefreshSizeInformation();
        return hop;
      }
      case ExprKind::kCall:
        return BuildCall(e, ctx);
      case ExprKind::kIndex:
        return BuildRightIndexing(e, ctx);
    }
    return ErrAt(e, "unsupported expression");
  }

  StatusOr<HopPtr> BuildBinary(const Expr& e, BlockCtx* ctx) {
    const std::string& op = e.name;
    if (op == ":") {
      // General range expression -> seq(from, to, 1).
      SYSDS_ASSIGN_OR_RETURN(HopPtr from, BuildExpr(*e.args[0], ctx));
      SYSDS_ASSIGN_OR_RETURN(HopPtr to, BuildExpr(*e.args[1], ctx));
      auto hop = std::make_shared<Hop>(HopOp::kDataGen, "seq",
                                       DataType::kMatrix, ValueType::kFP64);
      hop->AddInput(std::move(from));
      hop->AddInput(std::move(to));
      hop->AddInput(MakeLiteralHop(LitValue::Int(1)));
      return hop;
    }
    SYSDS_ASSIGN_OR_RETURN(HopPtr lhs, BuildExpr(*e.args[0], ctx));
    SYSDS_ASSIGN_OR_RETURN(HopPtr rhs, BuildExpr(*e.args[1], ctx));
    if (op == "%*%") {
      if (!IsMatrix(lhs) || !IsMatrix(rhs)) {
        return ErrAt(e, "%*% requires matrix operands");
      }
      if (lhs->dim2() >= 0 && rhs->dim1() >= 0 && lhs->dim2() != rhs->dim1()) {
        return ErrAt(e, "%*% dimension mismatch: " +
                            std::to_string(lhs->dim2()) + " vs " +
                            std::to_string(rhs->dim1()));
      }
      auto hop = std::make_shared<Hop>(HopOp::kMatMult, "ba+*",
                                       DataType::kMatrix, ValueType::kFP64);
      hop->AddInput(std::move(lhs));
      hop->AddInput(std::move(rhs));
      hop->RefreshSizeInformation();
      return hop;
    }
    bool any_matrix = IsMatrix(lhs) || IsMatrix(rhs);
    DataType dt = any_matrix ? DataType::kMatrix : DataType::kScalar;
    ValueType vt = ValueType::kFP64;
    if (!any_matrix) {
      bool comparison = op == "==" || op == "!=" || op == "<" || op == "<=" ||
                        op == ">" || op == ">=" || op == "&" || op == "|";
      if (comparison) {
        vt = ValueType::kBoolean;
      } else if (lhs->value_type() == ValueType::kString ||
                 rhs->value_type() == ValueType::kString) {
        vt = ValueType::kString;
      } else if (lhs->value_type() == ValueType::kInt64 &&
                 rhs->value_type() == ValueType::kInt64 && op != "/" &&
                 op != "^") {
        vt = ValueType::kInt64;
      }
    }
    auto hop = std::make_shared<Hop>(HopOp::kBinary, op, dt, vt);
    hop->AddInput(std::move(lhs));
    hop->AddInput(std::move(rhs));
    hop->RefreshSizeInformation();
    return hop;
  }

  // Bounds: returns {rl, ru, cl, cu} hops with the -1 "to end" convention.
  struct IndexBounds {
    HopPtr rl, ru, cl, cu;
  };

  StatusOr<IndexBounds> BuildBounds(const Expr& e, BlockCtx* ctx) {
    IndexBounds b;
    if (e.row_lower != nullptr) {
      SYSDS_ASSIGN_OR_RETURN(b.rl, BuildExpr(*e.row_lower, ctx));
      if (e.has_row_range) {
        SYSDS_ASSIGN_OR_RETURN(b.ru, BuildExpr(*e.row_upper, ctx));
      } else {
        b.ru = b.rl;
      }
    } else {
      b.rl = MakeLiteralHop(LitValue::Int(1));
      b.ru = MakeLiteralHop(LitValue::Int(-1));
    }
    if (e.col_lower != nullptr) {
      SYSDS_ASSIGN_OR_RETURN(b.cl, BuildExpr(*e.col_lower, ctx));
      if (e.has_col_range) {
        SYSDS_ASSIGN_OR_RETURN(b.cu, BuildExpr(*e.col_upper, ctx));
      } else {
        b.cu = b.cl;
      }
    } else {
      b.cl = MakeLiteralHop(LitValue::Int(1));
      b.cu = MakeLiteralHop(LitValue::Int(-1));
    }
    return b;
  }

  StatusOr<HopPtr> BuildRightIndexing(const Expr& e, BlockCtx* ctx) {
    SYSDS_ASSIGN_OR_RETURN(HopPtr target, BuildExpr(*e.target, ctx));
    bool is_frame = target->data_type() == DataType::kFrame;
    if (!IsMatrix(target) && !is_frame) {
      return ErrAt(e, "indexing requires a matrix or frame");
    }
    SYSDS_ASSIGN_OR_RETURN(IndexBounds b, BuildBounds(e, ctx));
    auto hop = std::make_shared<Hop>(
        HopOp::kIndexing, "rightIndex",
        is_frame ? DataType::kFrame : DataType::kMatrix,
        is_frame ? ValueType::kString : ValueType::kFP64);
    hop->AddInput(std::move(target));
    hop->AddInput(b.rl);
    hop->AddInput(b.ru);
    hop->AddInput(b.cl);
    hop->AddInput(b.cu);
    hop->RefreshSizeInformation();
    return hop;
  }

  StatusOr<HopPtr> BuildLeftIndexing(const Expr& index_expr,
                                     const std::string& name, HopPtr rhs,
                                     BlockCtx* ctx) {
    SYSDS_ASSIGN_OR_RETURN(HopPtr target, ReadVar(name, index_expr, ctx));
    if (!IsMatrix(target)) {
      return ErrAt(index_expr, "left indexing requires a matrix variable");
    }
    SYSDS_ASSIGN_OR_RETURN(IndexBounds b, BuildBounds(index_expr, ctx));
    auto hop = std::make_shared<Hop>(HopOp::kLeftIndexing, "leftIndex",
                                     DataType::kMatrix, ValueType::kFP64);
    hop->AddInput(std::move(target));
    hop->AddInput(std::move(rhs));
    hop->AddInput(b.rl);
    hop->AddInput(b.ru);
    hop->AddInput(b.cl);
    hop->AddInput(b.cu);
    hop->RefreshSizeInformation();
    return hop;
  }

  StatusOr<HopPtr> BuildFunctionCall(const Expr& call, BlockCtx* ctx) {
    SYSDS_RETURN_IF_ERROR(EnsureFunction(call.name));
    const FunctionBlock& fn = *prog_->Functions()[call.name];
    auto hop = std::make_shared<Hop>(
        HopOp::kFunctionCall, "fcall",
        fn.returns.empty() ? DataType::kUnknown : fn.returns[0].dt,
        fn.returns.empty() ? ValueType::kUnknown : fn.returns[0].vt);
    hop->set_name(call.name);
    std::string argnames;
    for (size_t i = 0; i < call.args.size(); ++i) {
      SYSDS_ASSIGN_OR_RETURN(HopPtr arg, BuildExpr(*call.args[i], ctx));
      hop->AddInput(std::move(arg));
      if (i > 0) argnames += ",";
      argnames += call.arg_names[i].empty() ? "_" : call.arg_names[i];
    }
    if (!call.args.empty()) hop->params()["argnames"] = argnames;
    return hop;
  }

  StatusOr<HopPtr> BuildTransformEncode(const Expr& call, BlockCtx* ctx) {
    CallArgs args(call);
    const Expr* target = args.Get(0, "target");
    const Expr* spec = args.Get(1, "spec");
    if (target == nullptr || spec == nullptr) {
      return ErrAt(call, "transformencode requires target and spec");
    }
    auto hop = std::make_shared<Hop>(HopOp::kParamBuiltin, "transformencode",
                                     DataType::kMatrix, ValueType::kFP64);
    SYSDS_ASSIGN_OR_RETURN(HopPtr t, BuildExpr(*target, ctx));
    SYSDS_ASSIGN_OR_RETURN(HopPtr s, BuildExpr(*spec, ctx));
    hop->AddInput(std::move(t));
    hop->AddInput(std::move(s));
    hop->params()["pnames"] = "target,spec";
    return hop;
  }

  StatusOr<HopPtr> BuildCall(const Expr& e, BlockCtx* ctx);

  // Storage for function ASTs loaded from builtin scripts.
  std::vector<StmtPtr> builtin_fn_storage_;
};

// Builds one argument expression or a literal default.
#define BUILD_ARG_OR(expr_ptr, default_lit)                       \
  ((expr_ptr) != nullptr                                          \
       ? BuildExpr(*(expr_ptr), ctx)                              \
       : StatusOr<HopPtr>(MakeLiteralHop(default_lit)))

StatusOr<HopPtr> Compiler::BuildCall(const Expr& e, BlockCtx* ctx) {
  const std::string& name = e.name;
  CallArgs args(e);

  auto make = [&](HopOp op, const std::string& opcode, DataType dt,
                  ValueType vt) {
    return std::make_shared<Hop>(op, opcode, dt, vt);
  };
  auto arg0 = [&]() -> StatusOr<HopPtr> {
    const Expr* a = args.Get(0, "target");
    if (a == nullptr) return ErrAt(e, name + ": missing argument");
    return BuildExpr(*a, ctx);
  };

  // ---- metadata & unary math ----
  if (name == "nrow" || name == "ncol" || name == "length") {
    SYSDS_ASSIGN_OR_RETURN(HopPtr in, arg0());
    auto hop = make(HopOp::kUnary, name, DataType::kScalar, ValueType::kInt64);
    hop->AddInput(std::move(in));
    hop->set_dims(0, 0);
    return hop;
  }
  static const std::set<std::string> kUnaryMath = {
      "exp", "log", "sqrt", "abs", "round", "floor", "ceil",
      "sin", "cos", "tan", "sign", "sigmoid"};
  if (kUnaryMath.count(name)) {
    SYSDS_ASSIGN_OR_RETURN(HopPtr in, arg0());
    if (name == "log" && args.Total() == 2) {
      const Expr* base = args.Get(1, "base");
      SYSDS_ASSIGN_OR_RETURN(HopPtr base_hop, BuildExpr(*base, ctx));
      auto logx = make(HopOp::kUnary, "log", in->data_type(),
                       IsMatrix(in) ? ValueType::kFP64 : ValueType::kFP64);
      logx->AddInput(std::move(in));
      logx->RefreshSizeInformation();
      auto logb = make(HopOp::kUnary, "log", DataType::kScalar,
                       ValueType::kFP64);
      logb->AddInput(std::move(base_hop));
      auto div = make(HopOp::kBinary, "/", logx->data_type(),
                      ValueType::kFP64);
      div->AddInput(std::move(logx));
      div->AddInput(std::move(logb));
      div->RefreshSizeInformation();
      return div;
    }
    auto hop = make(HopOp::kUnary, name, in->data_type(), ValueType::kFP64);
    hop->AddInput(std::move(in));
    hop->RefreshSizeInformation();
    return hop;
  }

  // ---- aggregates ----
  static const std::map<std::string, std::string> kFullAgg = {
      {"sum", "uasum"},   {"mean", "uamean"}, {"var", "uavar"},
      {"sd", "uasd"},     {"trace", "uatrace"}};
  if (kFullAgg.count(name) && args.Total() == 1) {
    SYSDS_ASSIGN_OR_RETURN(HopPtr in, arg0());
    if (IsScalar(in)) return in;  // sum(scalar) == scalar
    auto hop = make(HopOp::kAggUnary, kFullAgg.at(name), DataType::kScalar,
                    ValueType::kFP64);
    hop->AddInput(std::move(in));
    hop->RefreshSizeInformation();
    return hop;
  }
  if ((name == "min" || name == "max")) {
    if (args.Total() == 1) {
      SYSDS_ASSIGN_OR_RETURN(HopPtr in, arg0());
      if (IsScalar(in)) return in;
      auto hop = make(HopOp::kAggUnary, name == "min" ? "uamin" : "uamax",
                      DataType::kScalar, ValueType::kFP64);
      hop->AddInput(std::move(in));
      hop->RefreshSizeInformation();
      return hop;
    }
    // n-ary min/max folds into a binary chain.
    HopPtr acc;
    for (size_t i = 0; i < args.Total(); ++i) {
      const Expr* a = args.Get(i, "");
      if (a == nullptr) return ErrAt(e, name + ": positional args required");
      SYSDS_ASSIGN_OR_RETURN(HopPtr in, BuildExpr(*a, ctx));
      if (acc == nullptr) {
        acc = std::move(in);
        continue;
      }
      bool any_matrix = IsMatrix(acc) || IsMatrix(in);
      auto hop = make(HopOp::kBinary, name,
                      any_matrix ? DataType::kMatrix : DataType::kScalar,
                      ValueType::kFP64);
      hop->AddInput(std::move(acc));
      hop->AddInput(std::move(in));
      hop->RefreshSizeInformation();
      acc = std::move(hop);
    }
    return acc;
  }
  static const std::map<std::string, std::string> kRowColAgg = {
      {"colSums", "uacsum"},   {"colMeans", "uacmean"},
      {"colMaxs", "uacmax"},   {"colMins", "uacmin"},
      {"colSds", "uacsd"},     {"colVars", "uacvar"},
      {"rowSums", "uarsum"},   {"rowMeans", "uarmean"},
      {"rowMaxs", "uarmax"},   {"rowMins", "uarmin"},
      {"rowSds", "uarsd"},     {"rowVars", "uarvar"},
      {"rowIndexMax", "uarimax"}, {"rowIndexMin", "uarimin"}};
  if (kRowColAgg.count(name)) {
    SYSDS_ASSIGN_OR_RETURN(HopPtr in, arg0());
    auto hop = make(HopOp::kAggUnary, kRowColAgg.at(name), DataType::kMatrix,
                    ValueType::kFP64);
    hop->AddInput(std::move(in));
    hop->RefreshSizeInformation();
    return hop;
  }
  static const std::set<std::string> kCum = {"cumsum", "cumprod", "cummin",
                                             "cummax"};
  if (kCum.count(name)) {
    SYSDS_ASSIGN_OR_RETURN(HopPtr in, arg0());
    auto hop = make(HopOp::kCumAgg, name, DataType::kMatrix, ValueType::kFP64);
    hop->AddInput(std::move(in));
    hop->RefreshSizeInformation();
    return hop;
  }

  // ---- reorg ----
  if (name == "t" || name == "rev") {
    SYSDS_ASSIGN_OR_RETURN(HopPtr in, arg0());
    auto hop = make(HopOp::kReorg, name, DataType::kMatrix, ValueType::kFP64);
    hop->AddInput(std::move(in));
    hop->RefreshSizeInformation();
    return hop;
  }
  if (name == "diag") {
    SYSDS_ASSIGN_OR_RETURN(HopPtr in, arg0());
    auto hop = make(HopOp::kReorg, "rdiag", DataType::kMatrix,
                    ValueType::kFP64);
    hop->AddInput(std::move(in));
    hop->RefreshSizeInformation();
    return hop;
  }
  if (name == "matrix") {
    const Expr* data = args.Get(0, "data");
    const Expr* rows = args.Get(1, "rows");
    const Expr* cols = args.Get(2, "cols");
    if (data == nullptr || rows == nullptr || cols == nullptr) {
      return ErrAt(e, "matrix() requires data, rows, cols");
    }
    SYSDS_ASSIGN_OR_RETURN(HopPtr data_hop, BuildExpr(*data, ctx));
    SYSDS_ASSIGN_OR_RETURN(HopPtr rows_hop, BuildExpr(*rows, ctx));
    SYSDS_ASSIGN_OR_RETURN(HopPtr cols_hop, BuildExpr(*cols, ctx));
    if (IsMatrix(data_hop)) {
      // matrix(X, rows, cols) is reshape.
      auto hop = make(HopOp::kReorg, "reshape", DataType::kMatrix,
                      ValueType::kFP64);
      hop->AddInput(std::move(data_hop));
      hop->AddInput(std::move(rows_hop));
      hop->AddInput(std::move(cols_hop));
      hop->RefreshSizeInformation();
      return hop;
    }
    std::string opcode =
        data_hop->value_type() == ValueType::kString ? "matfromstr" : "fill";
    auto hop = make(HopOp::kDataGen, opcode, DataType::kMatrix,
                    ValueType::kFP64);
    hop->AddInput(std::move(data_hop));
    hop->AddInput(std::move(rows_hop));
    hop->AddInput(std::move(cols_hop));
    hop->RefreshSizeInformation();
    return hop;
  }
  if (name == "reshape") {
    const Expr* data = args.Get(0, "target");
    const Expr* rows = args.Get(1, "rows");
    const Expr* cols = args.Get(2, "cols");
    if (data == nullptr || rows == nullptr || cols == nullptr) {
      return ErrAt(e, "reshape requires target, rows, cols");
    }
    auto hop = make(HopOp::kReorg, "reshape", DataType::kMatrix,
                    ValueType::kFP64);
    SYSDS_ASSIGN_OR_RETURN(HopPtr d, BuildExpr(*data, ctx));
    SYSDS_ASSIGN_OR_RETURN(HopPtr r, BuildExpr(*rows, ctx));
    SYSDS_ASSIGN_OR_RETURN(HopPtr c, BuildExpr(*cols, ctx));
    hop->AddInput(std::move(d));
    hop->AddInput(std::move(r));
    hop->AddInput(std::move(c));
    hop->RefreshSizeInformation();
    return hop;
  }
  if (name == "order") {
    const Expr* target = args.Get(0, "target");
    if (target == nullptr) return ErrAt(e, "order requires target");
    auto hop = make(HopOp::kReorg, "sort", DataType::kMatrix,
                    ValueType::kFP64);
    SYSDS_ASSIGN_OR_RETURN(HopPtr t, BuildExpr(*target, ctx));
    SYSDS_ASSIGN_OR_RETURN(HopPtr by, BUILD_ARG_OR(args.Get(1, "by"),
                                                   LitValue::Int(1)));
    SYSDS_ASSIGN_OR_RETURN(
        HopPtr dec, BUILD_ARG_OR(args.Get(2, "decreasing"),
                                 LitValue::Bool(false)));
    SYSDS_ASSIGN_OR_RETURN(
        HopPtr ixret, BUILD_ARG_OR(args.Get(3, "index.return"),
                                   LitValue::Bool(false)));
    hop->AddInput(std::move(t));
    hop->AddInput(std::move(by));
    hop->AddInput(std::move(dec));
    hop->AddInput(std::move(ixret));
    hop->RefreshSizeInformation();
    return hop;
  }
  if (name == "cbind" || name == "rbind") {
    auto hop = make(HopOp::kNary, name, DataType::kMatrix, ValueType::kFP64);
    for (size_t i = 0; i < args.Total(); ++i) {
      const Expr* a = args.Get(i, "");
      if (a == nullptr) return ErrAt(e, name + ": positional args required");
      SYSDS_ASSIGN_OR_RETURN(HopPtr in, BuildExpr(*a, ctx));
      hop->AddInput(std::move(in));
    }
    hop->RefreshSizeInformation();
    return hop;
  }

  // ---- datagen ----
  if (name == "rand") {
    auto hop = make(HopOp::kDataGen, "rand", DataType::kMatrix,
                    ValueType::kFP64);
    const Expr* rows = args.Get(0, "rows");
    const Expr* cols = args.Get(1, "cols");
    if (rows == nullptr || cols == nullptr) {
      return ErrAt(e, "rand requires rows and cols");
    }
    SYSDS_ASSIGN_OR_RETURN(HopPtr rows_hop, BuildExpr(*rows, ctx));
    SYSDS_ASSIGN_OR_RETURN(HopPtr cols_hop, BuildExpr(*cols, ctx));
    SYSDS_ASSIGN_OR_RETURN(HopPtr min_hop, BUILD_ARG_OR(args.Get(2, "min"),
                                                        LitValue::Double(0)));
    SYSDS_ASSIGN_OR_RETURN(HopPtr max_hop, BUILD_ARG_OR(args.Get(3, "max"),
                                                        LitValue::Double(1)));
    SYSDS_ASSIGN_OR_RETURN(
        HopPtr sp_hop, BUILD_ARG_OR(args.Get(4, "sparsity"),
                                    LitValue::Double(1)));
    SYSDS_ASSIGN_OR_RETURN(HopPtr seed_hop, BUILD_ARG_OR(args.Get(5, "seed"),
                                                         LitValue::Int(-1)));
    SYSDS_ASSIGN_OR_RETURN(
        HopPtr pdf_hop, BUILD_ARG_OR(args.Get(6, "pdf"),
                                     LitValue::String("uniform")));
    hop->AddInput(std::move(rows_hop));
    hop->AddInput(std::move(cols_hop));
    hop->AddInput(std::move(min_hop));
    hop->AddInput(std::move(max_hop));
    hop->AddInput(std::move(sp_hop));
    hop->AddInput(std::move(seed_hop));
    hop->AddInput(std::move(pdf_hop));
    hop->RefreshSizeInformation();
    return hop;
  }
  if (name == "seq") {
    auto hop = make(HopOp::kDataGen, "seq", DataType::kMatrix,
                    ValueType::kFP64);
    const Expr* from = args.Get(0, "from");
    const Expr* to = args.Get(1, "to");
    if (from == nullptr || to == nullptr) {
      return ErrAt(e, "seq requires from and to");
    }
    SYSDS_ASSIGN_OR_RETURN(HopPtr f, BuildExpr(*from, ctx));
    SYSDS_ASSIGN_OR_RETURN(HopPtr t, BuildExpr(*to, ctx));
    SYSDS_ASSIGN_OR_RETURN(HopPtr i, BUILD_ARG_OR(args.Get(2, "incr"),
                                                  LitValue::Int(1)));
    hop->AddInput(std::move(f));
    hop->AddInput(std::move(t));
    hop->AddInput(std::move(i));
    return hop;
  }
  if (name == "sample") {
    auto hop = make(HopOp::kDataGen, "sample", DataType::kMatrix,
                    ValueType::kFP64);
    const Expr* range = args.Get(0, "range");
    const Expr* size = args.Get(1, "size");
    if (range == nullptr || size == nullptr) {
      return ErrAt(e, "sample requires range and size");
    }
    SYSDS_ASSIGN_OR_RETURN(HopPtr r, BuildExpr(*range, ctx));
    SYSDS_ASSIGN_OR_RETURN(HopPtr s, BuildExpr(*size, ctx));
    SYSDS_ASSIGN_OR_RETURN(HopPtr rep, BUILD_ARG_OR(args.Get(2, "replace"),
                                                    LitValue::Bool(false)));
    SYSDS_ASSIGN_OR_RETURN(HopPtr seed, BUILD_ARG_OR(args.Get(3, "seed"),
                                                     LitValue::Int(-1)));
    hop->AddInput(std::move(r));
    hop->AddInput(std::move(s));
    hop->AddInput(std::move(rep));
    hop->AddInput(std::move(seed));
    return hop;
  }

  // ---- linear algebra ----
  if (name == "solve") {
    const Expr* a = args.Get(0, "A");
    const Expr* b = args.Get(1, "b");
    if (a == nullptr || b == nullptr) return ErrAt(e, "solve requires A, b");
    auto hop = make(HopOp::kSolve, "solve", DataType::kMatrix,
                    ValueType::kFP64);
    SYSDS_ASSIGN_OR_RETURN(HopPtr ah, BuildExpr(*a, ctx));
    SYSDS_ASSIGN_OR_RETURN(HopPtr bh, BuildExpr(*b, ctx));
    hop->AddInput(std::move(ah));
    hop->AddInput(std::move(bh));
    hop->RefreshSizeInformation();
    return hop;
  }
  if (name == "cholesky" || name == "inv" || name == "inverse" ||
      name == "det") {
    SYSDS_ASSIGN_OR_RETURN(HopPtr in, arg0());
    std::string opcode = name == "inverse" ? "inv" : name;
    auto hop = make(HopOp::kSolve, opcode,
                    name == "det" ? DataType::kScalar : DataType::kMatrix,
                    ValueType::kFP64);
    hop->AddInput(std::move(in));
    hop->RefreshSizeInformation();
    return hop;
  }

  // ---- ternary ----
  if (name == "ifelse") {
    const Expr* c = args.Get(0, "test");
    const Expr* a = args.Get(1, "yes");
    const Expr* b = args.Get(2, "no");
    if (c == nullptr || a == nullptr || b == nullptr) {
      return ErrAt(e, "ifelse requires 3 arguments");
    }
    SYSDS_ASSIGN_OR_RETURN(HopPtr ch, BuildExpr(*c, ctx));
    SYSDS_ASSIGN_OR_RETURN(HopPtr ah, BuildExpr(*a, ctx));
    SYSDS_ASSIGN_OR_RETURN(HopPtr bh, BuildExpr(*b, ctx));
    bool any_matrix = IsMatrix(ch) || IsMatrix(ah) || IsMatrix(bh);
    auto hop = make(HopOp::kTernary, "ifelse",
                    any_matrix ? DataType::kMatrix : DataType::kScalar,
                    ValueType::kFP64);
    hop->AddInput(std::move(ch));
    hop->AddInput(std::move(ah));
    hop->AddInput(std::move(bh));
    hop->RefreshSizeInformation();
    return hop;
  }
  if (name == "table") {
    const Expr* a = args.Get(0, "A");
    const Expr* b = args.Get(1, "B");
    if (a == nullptr || b == nullptr) return ErrAt(e, "table requires A, B");
    auto hop = make(HopOp::kTernary, "ctable", DataType::kMatrix,
                    ValueType::kFP64);
    SYSDS_ASSIGN_OR_RETURN(HopPtr ah, BuildExpr(*a, ctx));
    SYSDS_ASSIGN_OR_RETURN(HopPtr bh, BuildExpr(*b, ctx));
    hop->AddInput(std::move(ah));
    hop->AddInput(std::move(bh));
    return hop;
  }

  // ---- parameterized builtins ----
  if (name == "paramserv") {
    // paramserv(features=X, labels=y, workers=, epochs=, batchsize=, lr=,
    //           mode="BSP"|"ASP", objective="linear"|"logistic") -> weights
    auto hop = make(HopOp::kParamBuiltin, "paramserv", DataType::kMatrix,
                    ValueType::kFP64);
    static const char* kParams[] = {"features", "labels",  "workers",
                                    "epochs",   "batchsize", "lr",
                                    "mode",     "objective"};
    std::string pnames;
    for (size_t i = 0; i < 8; ++i) {
      const Expr* a = args.Get(i < 2 ? i : 99, kParams[i]);
      if (a == nullptr) {
        if (i < 2) {
          return ErrAt(e, "paramserv requires features and labels");
        }
        continue;
      }
      SYSDS_ASSIGN_OR_RETURN(HopPtr p, BuildExpr(*a, ctx));
      hop->AddInput(std::move(p));
      if (!pnames.empty()) pnames += ",";
      pnames += kParams[i];
    }
    hop->params()["pnames"] = pnames;
    return hop;
  }
  if (name == "replace" || name == "removeEmpty" || name == "toString" ||
      name == "quantile" || name == "median" || name == "transformapply" ||
      name == "transformdecode") {
    auto hop = make(HopOp::kParamBuiltin, name,
                    name == "toString"
                        ? DataType::kScalar
                        : (name == "quantile" || name == "median"
                               ? DataType::kScalar
                               : (name == "transformdecode"
                                      ? DataType::kFrame
                                      : DataType::kMatrix)),
                    name == "toString" ? ValueType::kString
                                       : ValueType::kFP64);
    std::vector<std::pair<std::string, const Expr*>> params;
    if (name == "replace") {
      params = {{"target", args.Get(0, "target")},
                {"pattern", args.Get(1, "pattern")},
                {"replacement", args.Get(2, "replacement")}};
    } else if (name == "removeEmpty") {
      params = {{"target", args.Get(0, "target")},
                {"margin", args.Get(1, "margin")}};
    } else if (name == "toString") {
      params = {{"target", args.Get(0, "target")}};
    } else if (name == "quantile") {
      hop->set_dims(0, 0);
      params = {{"target", args.Get(0, "target")},
                {"p", args.Get(1, "p")}};
    } else if (name == "median") {
      hop->set_dims(0, 0);
      auto h = make(HopOp::kParamBuiltin, "quantile", DataType::kScalar,
                    ValueType::kFP64);
      SYSDS_ASSIGN_OR_RETURN(HopPtr t, arg0());
      h->AddInput(std::move(t));
      h->AddInput(MakeLiteralHop(LitValue::Double(0.5)));
      h->params()["pnames"] = "target,p";
      h->set_dims(0, 0);
      return h;
    } else if (name == "transformapply") {
      params = {{"target", args.Get(0, "target")},
                {"spec", args.Get(1, "spec")},
                {"meta", args.Get(2, "meta")}};
    } else {  // transformdecode
      params = {{"target", args.Get(0, "target")},
                {"spec", args.Get(1, "spec")},
                {"meta", args.Get(2, "meta")},
                {"frame", args.Get(3, "frame")}};
    }
    std::string pnames;
    for (size_t i = 0; i < params.size(); ++i) {
      if (params[i].second == nullptr) {
        return ErrAt(e, name + ": missing parameter '" + params[i].first +
                            "'");
      }
      SYSDS_ASSIGN_OR_RETURN(HopPtr p, BuildExpr(*params[i].second, ctx));
      hop->AddInput(std::move(p));
      if (i > 0) pnames += ",";
      pnames += params[i].first;
    }
    hop->params()["pnames"] = pnames;
    return hop;
  }
  if (name == "transformencode") {
    return ErrAt(e,
                 "transformencode returns [X, meta]; use multi-assignment");
  }

  // ---- casts ----
  static const std::set<std::string> kCasts = {
      "as.scalar", "as.matrix", "as.frame", "as.double", "as.integer",
      "as.logical"};
  if (kCasts.count(name)) {
    SYSDS_ASSIGN_OR_RETURN(HopPtr in, arg0());
    DataType dt = DataType::kScalar;
    ValueType vt = ValueType::kFP64;
    if (name == "as.matrix") { dt = DataType::kMatrix; }
    else if (name == "as.frame") { dt = DataType::kFrame; vt = ValueType::kString; }
    else if (name == "as.integer") vt = ValueType::kInt64;
    else if (name == "as.logical") vt = ValueType::kBoolean;
    auto hop = make(HopOp::kCast, name, dt, vt);
    hop->AddInput(std::move(in));
    hop->RefreshSizeInformation();
    return hop;
  }

  // ---- I/O and output ----
  if (name == "read") {
    const Expr* path = args.Get(0, "file");
    if (path == nullptr) return ErrAt(e, "read requires a file path");
    SYSDS_ASSIGN_OR_RETURN(HopPtr p, BuildExpr(*path, ctx));
    std::string dt_str = "matrix";
    auto hop = make(HopOp::kPersistentRead, "pread", DataType::kMatrix,
                    ValueType::kFP64);
    auto set_param = [&](const std::string& key, size_t pos) -> Status {
      const Expr* a = args.Get(pos, key);
      if (a == nullptr) return Status::Ok();
      switch (a->kind) {
        case ExprKind::kStringLiteral:
          hop->params()[key] = a->string_value;
          break;
        case ExprKind::kBoolLiteral:
          hop->params()[key] = a->bool_value ? "true" : "false";
          break;
        default:
          return ErrAt(e, "read: parameter '" + key + "' must be a literal");
      }
      return Status::Ok();
    };
    SYSDS_RETURN_IF_ERROR(set_param("format", 99));
    SYSDS_RETURN_IF_ERROR(set_param("header", 99));
    SYSDS_RETURN_IF_ERROR(set_param("sep", 99));
    SYSDS_RETURN_IF_ERROR(set_param("data_type", 99));
    if (hop->params().count("data_type")) {
      dt_str = hop->params()["data_type"];
    }
    if (dt_str == "frame") {
      hop->set_types(DataType::kFrame, ValueType::kString);
    }
    hop->AddInput(std::move(p));
    return hop;
  }
  if (name == "write") {
    const Expr* x = args.Get(0, "x");
    const Expr* path = args.Get(1, "file");
    if (x == nullptr || path == nullptr) {
      return ErrAt(e, "write requires data and a file path");
    }
    SYSDS_ASSIGN_OR_RETURN(HopPtr xh, BuildExpr(*x, ctx));
    SYSDS_ASSIGN_OR_RETURN(HopPtr ph, BuildExpr(*path, ctx));
    auto hop = make(HopOp::kPersistentWrite, "pwrite", xh->data_type(),
                    xh->value_type());
    hop->AddInput(std::move(xh));
    hop->AddInput(std::move(ph));
    const Expr* fmt = args.Get(2, "format");
    if (fmt != nullptr && fmt->kind == ExprKind::kStringLiteral) {
      hop->params()["format"] = fmt->string_value;
    }
    const Expr* header = args.Get(99, "header");
    if (header != nullptr && header->kind == ExprKind::kBoolLiteral) {
      hop->params()["header"] = header->bool_value ? "true" : "false";
    }
    const Expr* sep = args.Get(99, "sep");
    if (sep != nullptr && sep->kind == ExprKind::kStringLiteral) {
      hop->params()["sep"] = sep->string_value;
    }
    return hop;
  }
  if (name == "print") {
    SYSDS_ASSIGN_OR_RETURN(HopPtr in, arg0());
    auto hop = make(HopOp::kUnary, "print", DataType::kScalar,
                    ValueType::kString);
    hop->AddInput(std::move(in));
    return hop;
  }
  if (name == "stop") {
    SYSDS_ASSIGN_OR_RETURN(HopPtr in, arg0());
    auto hop = make(HopOp::kUnary, "stop", DataType::kScalar,
                    ValueType::kString);
    hop->AddInput(std::move(in));
    return hop;
  }

  // ---- user-defined / DML-bodied builtin functions ----
  if (IsFunctionName(name)) {
    SYSDS_RETURN_IF_ERROR(EnsureFunction(name));
    const FunctionBlock& fn = *prog_->Functions()[name];
    if (fn.returns.size() != 1) {
      return ErrAt(e, "function '" + name + "' returns " +
                          std::to_string(fn.returns.size()) +
                          " values; use multi-assignment");
    }
    return BuildFunctionCall(e, ctx);
  }

  return ErrAt(e, "unknown function '" + name + "'");
}

#undef BUILD_ARG_OR

}  // namespace

StatusOr<std::unique_ptr<Program>> CompileDML(const std::string& source,
                                              const DMLConfig& config,
                                              const SymbolInfoMap& inputs) {
  SYSDS_SPAN("compiler", "compile_dml");
  DMLProgram ast;
  {
    SYSDS_SPAN("compiler", "parse");
    SYSDS_ASSIGN_OR_RETURN(ast, ParseDML(source));
  }
  auto program = std::make_unique<Program>();
  Compiler compiler(program.get(), &config);
  {
    SYSDS_SPAN("compiler", "build_and_codegen");
    SYSDS_RETURN_IF_ERROR(compiler.AddFunctionAsts(ast.functions));
    SymbolInfoMap symbols = inputs;
    SYSDS_RETURN_IF_ERROR(compiler.CompileTopLevel(ast.statements, &symbols));
  }
  if (config.compression_enabled) {
    SYSDS_SPAN("compiler", "compress_rewrite");
    InjectCompression(program.get(), config);
  }
  {
    SYSDS_SPAN("compiler", "loop_liveness");
    AnnotateLoopLiveness(program.get());
  }
  return program;
}

}  // namespace sysds
