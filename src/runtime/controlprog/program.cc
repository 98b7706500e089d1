#include "runtime/controlprog/program.h"

#include <cmath>
#include <functional>
#include <optional>
#include <set>
#include <sstream>
#include <unordered_map>

#include "common/thread_pool.h"
#include "common/util.h"
#include "compiler/recompiler.h"
#include "lineage/lineage.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/bufferpool/buffer_pool.h"
#include "runtime/recovery/checkpoint_manager.h"

namespace sysds {

namespace {

struct ProgramMetrics {
  obs::Counter* reuse_hits;
  obs::Counter* dedup_paths;
  obs::Counter* parfor_executions;
};

ProgramMetrics& Metrics() {
  auto& r = obs::MetricsRegistry::Get();
  static ProgramMetrics m = {
      r.GetCounter("lineage.reuse_hits"),
      r.GetCounter("lineage.dedup_paths"),
      r.GetCounter("parfor.executions"),
  };
  return m;
}

// `-stats` per-opcode timing. Each thread memoizes the registry's stable
// pointers, so a timed instruction takes no registry lock.
obs::InstrStat* OpcodeStat(const std::string& opcode) {
  thread_local std::unordered_map<std::string, obs::InstrStat*> memo;
  obs::InstrStat*& stat = memo[opcode];
  if (stat == nullptr) stat = obs::MetricsRegistry::Get().GetInstrStat(opcode);
  return stat;
}

// Hint-driven prefetch (paper §2.3(3)): at loop entry and each iteration
// boundary, ask the buffer pool to restore the loop's spilled matrix
// operands in the background so the next iteration's reads hit memory. The
// liveness pass already knows the loop's invariant reads and loop-carried
// variables; everything resident is a cheap no-op.
void PrefetchLoopOperands(ExecutionContext* ec, const LoopLiveness& live) {
  BufferPool* pool = ec->Pool();
  if (pool == nullptr || !pool->options().prefetch) return;
  auto hint = [&](const std::string& var) {
    DataPtr d = ec->Vars().GetOrNull(var);
    auto* m = dynamic_cast<MatrixObject*>(d.get());
    // An object shared from another context lives in that context's pool.
    if (m != nullptr && m->Pool() == pool && !m->HasPayload()) {
      pool->Prefetch(m);
    }
  };
  for (const std::string& var : live.invariant_reads) hint(var);
  for (const std::string& var : live.checkpoint_vars) hint(var);
}

// Scalar variables are traced by value ("literal replacement"), which makes
// lineage of indexed reads and hyper-parameters comparable across loop
// iterations and function scopes.
LineageItemPtr OperandLineage(const Operand& op, ExecutionContext* ec) {
  if (op.is_literal) return LineageItem::Leaf("lit", op.lit.AsString());
  DataPtr d = ec->Vars().GetOrNull(op.name);
  if (d != nullptr && d->GetDataType() == DataType::kScalar) {
    auto* s = static_cast<ScalarObject*>(d.get());
    return LineageItem::Leaf("lit", s->AsString());
  }
  return ec->Lineage()->GetOrCreate(op.name);
}

LineageItemPtr InstructionLineage(const Instruction& instr,
                                  ExecutionContext* ec) {
  // Variable copies are lineage-transparent: the copy has the same lineage
  // as its source, so snapshots/renames never break reuse matching.
  if (instr.opcode() == "cpvar" || instr.opcode() == "assignvar") {
    return OperandLineage(instr.inputs()[0], ec);
  }
  std::vector<LineageItemPtr> inputs;
  inputs.reserve(instr.inputs().size());
  for (const Operand& op : instr.inputs()) {
    inputs.push_back(OperandLineage(op, ec));
  }
  // Lineage traces logical operations (§3.1): the physical backend prefix
  // is stripped so CP and SPARK executions of the same op share lineage.
  std::string opcode = instr.opcode();
  if (opcode.rfind("sp_", 0) == 0) opcode = opcode.substr(3);
  return LineageItem::Node(opcode, std::move(inputs));
}

bool IsNonDeterministic(const Instruction& instr) {
  if (instr.opcode() != "rand" && instr.opcode() != "sample") return false;
  // The seed operand is last by construction; -1 means "generate".
  for (const Operand& op : instr.inputs()) {
    if (op.is_literal && op.lit.vt == ValueType::kInt64 && op.lit.i == -1) {
      return true;
    }
  }
  return false;
}

}  // namespace

Status ExecuteInstructions(const std::vector<InstructionPtr>& instructions,
                           ExecutionContext* ec) {
  const bool tracing = ec->TracingEnabled();
  const bool stats = ec->Config().statistics;
  const bool interruptible = ec->HasInterrupt();
  LineageCache* cache = ec->Cache();
  const bool reuse =
      cache != nullptr && ec->Config().reuse_policy != ReusePolicy::kNone;

  for (const InstructionPtr& instr : instructions) {
    if (interruptible) SYSDS_RETURN_IF_ERROR(ec->CheckInterrupt());
    SYSDS_SPAN("cp", instr->opcode());
    std::optional<Timer> timer;
    if (stats) timer.emplace();
    LineageItemPtr item;
    bool nondet = false;
    if (tracing && !instr->outputs().empty()) {
      nondet = IsNonDeterministic(*instr);
      if (!nondet) item = InstructionLineage(*instr, ec);
    }

    bool served = false;
    if (item != nullptr && reuse && instr->IsReusable() &&
        instr->outputs().size() == 1) {
      DataPtr hit = cache->Probe(item);
      if (hit == nullptr) {
        auto partial = cache->ProbePartial(*instr, item, ec);
        if (partial.ok()) hit = std::move(partial).value();
      }
      if (hit != nullptr) {
        ec->SetOutput(instr->outputs()[0], hit);
        Metrics().reuse_hits->Add(1);
        obs::Tracer::Instant("lineage", "reuse_hit");
        served = true;
      }
    }

    if (!served) {
      Status s = instr->Execute(ec);
      if (!s.ok()) {
        return Status(s.code(),
                      s.message() + " [in " + instr->opcode() + "]");
      }
      if (item != nullptr && reuse && instr->IsReusable() &&
          instr->outputs().size() == 1) {
        DataPtr out = ec->Vars().GetOrNull(instr->outputs()[0].name);
        if (out != nullptr) cache->Put(item, out);
      }
    }

    if (tracing && !instr->outputs().empty() &&
        instr->opcode() != "fcall") {
      // (fcall outputs already carry the fine-grained lineage mapped back
      // from the function scope; wrapping them in an opaque node would
      // hide the operations inside the function.)
      if (nondet) {
        // Unique leaf: non-deterministic outputs never falsely match.
        item = LineageItem::Leaf(
            instr->opcode(), "nondet#" + std::to_string(GenerateSeed()));
      }
      if (instr->outputs().size() == 1) {
        ec->Lineage()->Set(instr->outputs()[0].name, item);
      } else {
        for (size_t k = 0; k < instr->outputs().size(); ++k) {
          std::vector<LineageItemPtr> inputs = {item};
          ec->Lineage()->Set(
              instr->outputs()[k].name,
              LineageItem::Node("out" + std::to_string(k), std::move(inputs)));
        }
      }
    }

    if (stats) {
      obs::InstrStat* stat = OpcodeStat(instr->opcode());
      stat->count.Add(1);
      stat->nanos.Add(static_cast<int64_t>(timer->ElapsedSeconds() * 1e9));
    }
  }
  return Status::Ok();
}

void BasicBlock::SetHops(std::vector<HopPtr> roots, bool requires_recompile) {
  hop_roots_ = std::move(roots);
  requires_recompile_ = requires_recompile && !hop_roots_.empty();
  key_reads_ = SizeKeyReads(hop_roots_);
}

StatusOr<std::shared_ptr<const BasicBlock::Plan>> BasicBlock::PlanFor(
    ExecutionContext* ec) {
  std::vector<int64_t> key = SizeKey(key_reads_, ec->Vars());
  // Recompilation must stay serial: a thread-pool join under this lock could
  // run another task of the same parfor, which would block on it.
  std::lock_guard<std::mutex> lock(plan_mu_);
  if (plan_ == nullptr || plan_->key != key) {
    SYSDS_ASSIGN_OR_RETURN(
        std::vector<InstructionPtr> instructions,
        RecompileHops(hop_roots_, key_reads_, key, ec->Config()));
    plan_ = std::make_shared<const Plan>(
        Plan{std::move(key), std::move(instructions)});
  }
  return plan_;
}

Status BasicBlock::Execute(ExecutionContext* ec) {
  if (requires_recompile_ && ec->Config().dynamic_recompilation &&
      ec->RecompileAllowed()) {
    SYSDS_ASSIGN_OR_RETURN(std::shared_ptr<const Plan> plan, PlanFor(ec));
    return ExecuteInstructions(plan->instructions, ec);
  }
  return ExecuteInstructions(instructions_, ec);
}

StatusOr<DataPtr> Predicate::Evaluate(ExecutionContext* ec) const {
  SYSDS_RETURN_IF_ERROR(ExecuteInstructions(instructions, ec));
  SYSDS_ASSIGN_OR_RETURN(DataPtr d, ec->Vars().Get(result_var));
  return d;
}

Status IfBlock::Execute(ExecutionContext* ec) {
  SYSDS_ASSIGN_OR_RETURN(DataPtr pred, predicate_.Evaluate(ec));
  SYSDS_ASSIGN_OR_RETURN(ScalarObject * s, AsScalar(pred, "if predicate"));
  const std::vector<ProgramBlockPtr>& branch =
      s->AsBool() ? then_blocks_ : else_blocks_;
  for (const ProgramBlockPtr& b : branch) {
    SYSDS_RETURN_IF_ERROR(b->Execute(ec));
  }
  return Status::Ok();
}

namespace {
DataPtr MakeLoopScalar(double v) {
  if (v == std::floor(v)) {
    return ScalarObject::MakeInt(static_cast<int64_t>(v));
  }
  return ScalarObject::MakeDouble(v);
}

// Loop lineage deduplication (§3.1): instead of accumulating the full
// per-instruction trace every iteration, each changed variable's lineage
// collapses into a single node referencing (a) the distinct control-flow
// path taken — identified by a structural patch hash over the iteration's
// trace with loop-carried inputs as placeholders — (b) the iteration
// value, and (c) the prior lineage of the loop-carried inputs it read.
class LoopLineageDedup {
 public:
  LoopLineageDedup(ExecutionContext* ec, const void* block)
      : ec_(ec),
        block_(block),
        enabled_(ec->TracingEnabled() && ec->Config().lineage_dedup) {}

  void BeginIteration() {
    if (!enabled_) return;
    before_ = ec_->Lineage()->Items();
  }

  void EndIteration(double iter_value) {
    if (!enabled_) return;
    std::map<const LineageItem*, int> boundary;
    int idx = 0;
    for (const auto& [name, item] : before_) {
      boundary[item.get()] = idx++;
    }
    std::vector<std::pair<std::string, LineageItemPtr>> changed;
    uint64_t signature = 0xcbf29ce484222325ULL;
    for (const auto& [name, item] : ec_->Lineage()->Items()) {
      auto bit = before_.find(name);
      if (bit != before_.end() && bit->second.get() == item.get()) continue;
      changed.emplace_back(name, item);
      signature = HashCombine(
          signature,
          HashCombine(HashString(name), LineagePatchHash(*item, boundary)));
    }
    if (changed.empty()) return;
    int path;
    auto pit = path_ids_.find(signature);
    if (pit == path_ids_.end()) {
      path = next_path_++;
      path_ids_[signature] = path;
      Metrics().dedup_paths->Add(1);
    } else {
      path = pit->second;
    }
    for (const auto& [name, item] : changed) {
      // Loop-invariant recomputations (same raw hash as the previous
      // iteration) keep their previous dedup node: zero trace growth.
      auto lit = last_raw_hash_.find(name);
      if (lit != last_raw_hash_.end() && lit->second == item->hash() &&
          last_dedup_.count(name)) {
        ec_->Lineage()->Set(name, last_dedup_[name]);
        continue;
      }
      last_raw_hash_[name] = item->hash();
      std::vector<LineageItemPtr> inputs;
      inputs.push_back(TagLeaf(path, name));
      std::ostringstream iv;
      iv << iter_value;
      inputs.push_back(LineageItem::Leaf("lit", iv.str()));
      CollectBoundaryInputs(item.get(), boundary, &inputs);
      LineageItemPtr node = LineageItem::Node("dedup", std::move(inputs));
      last_dedup_[name] = node;
      ec_->Lineage()->Set(name, std::move(node));
    }
  }

 private:
  // One interned tag leaf per (path, var): the path pattern is stored once
  // (paper: "determine the lineage trace per path once").
  LineageItemPtr TagLeaf(int path, const std::string& name) {
    auto key = std::make_pair(path, name);
    auto it = tag_leaves_.find(key);
    if (it != tag_leaves_.end()) return it->second;
    std::ostringstream tag;
    tag << "b" << block_ << ":p" << path << ":" << name;
    LineageItemPtr leaf = LineageItem::Leaf("dedup", tag.str());
    tag_leaves_[key] = leaf;
    return leaf;
  }

  void CollectBoundaryInputs(const LineageItem* item,
                             const std::map<const LineageItem*, int>& boundary,
                             std::vector<LineageItemPtr>* inputs) {
    std::set<const LineageItem*> visited;
    std::set<const LineageItem*> added;
    std::function<void(const LineageItem*)> visit =
        [&](const LineageItem* node) {
          if (!visited.insert(node).second) return;
          if (boundary.count(node)) {
            if (added.insert(node).second) {
              // Boundary items are owned by before_; find the shared_ptr.
              for (const auto& [name, owned] : before_) {
                if (owned.get() == node) {
                  inputs->push_back(owned);
                  break;
                }
              }
            }
            return;
          }
          for (const LineageItemPtr& in : node->inputs()) visit(in.get());
        };
    visit(item);
  }

  ExecutionContext* ec_;
  const void* block_;
  bool enabled_;
  std::map<std::string, LineageItemPtr> before_;
  std::map<uint64_t, int> path_ids_;
  std::map<std::pair<int, std::string>, LineageItemPtr> tag_leaves_;
  std::map<std::string, uint64_t> last_raw_hash_;
  std::map<std::string, LineageItemPtr> last_dedup_;
  int next_path_ = 0;
};
}  // namespace

Status WhileBlock::Execute(ExecutionContext* ec) {
  CheckpointScope ckpt(ec, liveness_);
  int64_t start = 0;
  if (ckpt.active()) {
    SYSDS_ASSIGN_OR_RETURN(start, ckpt.TryResume(ec));
  }
  LoopLineageDedup dedup(ec, this);
  PrefetchLoopOperands(ec, liveness_);
  // On resume the predicate evaluates over the restored loop-carried state,
  // so no explicit fast-forward is needed; `iteration` starts at the
  // restored count to keep lineage-dedup numbering identical to an
  // uninterrupted run.
  for (int64_t iteration = start;; ++iteration) {
    SYSDS_ASSIGN_OR_RETURN(DataPtr pred, predicate_.Evaluate(ec));
    SYSDS_ASSIGN_OR_RETURN(ScalarObject * s, AsScalar(pred, "while predicate"));
    if (!s->AsBool()) break;
    dedup.BeginIteration();
    for (const ProgramBlockPtr& b : body_) {
      SYSDS_RETURN_IF_ERROR(b->Execute(ec));
    }
    dedup.EndIteration(static_cast<double>(iteration));
    SYSDS_RETURN_IF_ERROR(ckpt.AtBoundary(ec, iteration + 1));
    PrefetchLoopOperands(ec, liveness_);
  }
  return ckpt.Finish();
}

StatusOr<std::vector<double>> ForBlock::EvaluateRange(
    ExecutionContext* ec) const {
  SYSDS_ASSIGN_OR_RETURN(DataPtr fromd, from_.Evaluate(ec));
  SYSDS_ASSIGN_OR_RETURN(DataPtr tod, to_.Evaluate(ec));
  SYSDS_ASSIGN_OR_RETURN(DataPtr incrd, increment_.Evaluate(ec));
  SYSDS_ASSIGN_OR_RETURN(ScalarObject * froms, AsScalar(fromd, "for from"));
  SYSDS_ASSIGN_OR_RETURN(ScalarObject * tos, AsScalar(tod, "for to"));
  SYSDS_ASSIGN_OR_RETURN(ScalarObject * incrs, AsScalar(incrd, "for incr"));
  double from = froms->AsDouble(), to = tos->AsDouble(),
         incr = incrs->AsDouble();
  if (incr == 0.0) return RuntimeError("for: zero increment");
  std::vector<double> iterations;
  if (incr > 0) {
    for (double v = from; v <= to + 1e-12; v += incr) iterations.push_back(v);
  } else {
    for (double v = from; v >= to - 1e-12; v += incr) iterations.push_back(v);
  }
  return iterations;
}



Status ForBlock::Execute(ExecutionContext* ec) {
  SYSDS_ASSIGN_OR_RETURN(std::vector<double> iterations, EvaluateRange(ec));
  CheckpointScope ckpt(ec, liveness_);
  size_t start = 0;
  if (ckpt.active()) {
    SYSDS_ASSIGN_OR_RETURN(int64_t done, ckpt.TryResume(ec));
    start = std::min(iterations.size(), static_cast<size_t>(done));
  }
  LoopLineageDedup dedup(ec, this);
  PrefetchLoopOperands(ec, liveness_);
  for (size_t i = start; i < iterations.size(); ++i) {
    double v = iterations[i];
    ec->Vars().Set(loop_var_, MakeLoopScalar(v));
    dedup.BeginIteration();
    for (const ProgramBlockPtr& b : body_) {
      SYSDS_RETURN_IF_ERROR(b->Execute(ec));
    }
    dedup.EndIteration(v);
    SYSDS_RETURN_IF_ERROR(ckpt.AtBoundary(ec, static_cast<int64_t>(i) + 1));
    PrefetchLoopOperands(ec, liveness_);
  }
  return ckpt.Finish();
}

Status ParForBlock::Execute(ExecutionContext* ec) {
  SYSDS_ASSIGN_OR_RETURN(std::vector<double> iterations, EvaluateRange(ec));
  if (iterations.empty()) return Status::Ok();
  // Parfor checkpoints at one boundary — after compare-and-merge — since
  // workers run in parallel with no consistent mid-flight cut. A crash at
  // that boundary resumes by restoring the merged result variables and
  // skipping the whole (already-completed) parfor.
  CheckpointScope ckpt(ec, liveness_);
  if (ckpt.active()) {
    SYSDS_ASSIGN_OR_RETURN(int64_t done, ckpt.TryResume(ec));
    if (done > 0) return ckpt.Finish();
  }
  int64_t k = std::min<int64_t>(ec->NumThreads(),
                                static_cast<int64_t>(iterations.size()));
  Metrics().parfor_executions->Add(1);
  PrefetchLoopOperands(ec, liveness_);

  // Snapshot originals of result variables for compare-and-merge.
  std::map<std::string, DataPtr> originals;
  for (const std::string& var : result_vars_) {
    originals[var] = ec->Vars().GetOrNull(var);
  }

  // Worker contexts: shallow copies of the symbol table (instructions never
  // mutate Data in place), private lineage maps seeded from the parent.
  std::vector<std::unique_ptr<ExecutionContext>> workers;
  std::vector<Status> statuses(static_cast<size_t>(k));
  for (int64_t w = 0; w < k; ++w) {
    auto child = ec->CreateChild();
    for (const auto& [name, value] : ec->Vars().All()) {
      child->SetVar(name, value);
      if (ec->TracingEnabled()) {
        LineageItemPtr li = ec->Lineage()->GetOrNull(name);
        if (li != nullptr) child->Lineage()->Set(name, li);
      }
    }
    workers.push_back(std::move(child));
  }

  // Round-robin task assignment (static factoring) over local workers.
  ThreadPool::Global().ParallelFor(0, k, k, [&](int64_t wb, int64_t we) {
    for (int64_t w = wb; w < we; ++w) {
      SYSDS_SPAN("parfor", "worker#" + std::to_string(w));
      ExecutionContext* wec = workers[static_cast<size_t>(w)].get();
      for (size_t i = static_cast<size_t>(w); i < iterations.size();
           i += static_cast<size_t>(k)) {
        wec->Vars().Set(loop_var_, MakeLoopScalar(iterations[i]));
        for (const ProgramBlockPtr& b : body_) {
          Status s = b->Execute(wec);
          if (!s.ok()) {
            statuses[static_cast<size_t>(w)] = s;
            return;
          }
        }
      }
    }
  },
  Imbalance().parfor);
  for (const Status& s : statuses) SYSDS_RETURN_IF_ERROR(s);

  // Result merge: matrices via compare-and-merge against the original
  // value; scalars and shape-changed matrices last-writer-wins in worker
  // order (deterministic).
  for (const std::string& var : result_vars_) {
    DataPtr original = originals[var];
    auto* orig_m = dynamic_cast<MatrixObject*>(original.get());
    bool mergeable = orig_m != nullptr;
    MatrixBlock merged;
    if (mergeable) {
      SYSDS_ASSIGN_OR_RETURN(const MatrixBlock* ob0, orig_m->AcquireRead());
      merged = *ob0;  // copy
      orig_m->Release();
      merged.ToDense();
    }
    DataPtr last_changed;
    for (int64_t w = 0; w < k; ++w) {
      DataPtr wv = workers[static_cast<size_t>(w)]->Vars().GetOrNull(var);
      if (wv == nullptr || wv == original) continue;
      last_changed = wv;
      if (!mergeable) continue;
      auto* wm = dynamic_cast<MatrixObject*>(wv.get());
      if (wm == nullptr || wm->Rows() != merged.Rows() ||
          wm->Cols() != merged.Cols()) {
        mergeable = false;
        continue;
      }
      SYSDS_ACQUIRE_READ(wb, wm);
      SYSDS_ACQUIRE_READ_CLEANUP(ob, orig_m, wm->Release());
      for (int64_t r = 0; r < merged.Rows(); ++r) {
        for (int64_t c = 0; c < merged.Cols(); ++c) {
          double nv = wb.Get(r, c);
          if (nv != ob.Get(r, c)) merged.Set(r, c, nv);
        }
      }
      wm->Release();
      orig_m->Release();
    }
    if (last_changed == nullptr) continue;
    if (mergeable) {
      merged.MarkNnzDirty();
      merged.ExamSparsity();
      ec->SetVar(var, std::make_shared<MatrixObject>(std::move(merged)));
    } else {
      ec->SetVar(var, last_changed);
    }
    if (ec->TracingEnabled()) {
      ec->Lineage()->Set(var, LineageItem::Leaf(
                                  "parfor",
                                  var + "#" + std::to_string(GenerateSeed())));
    }
  }
  SYSDS_RETURN_IF_ERROR(
      ckpt.AtBoundary(ec, static_cast<int64_t>(iterations.size())));
  return ckpt.Finish();
}

Status FunctionBlock::Execute(ExecutionContext* caller,
                              const std::vector<Operand>& args,
                              const std::vector<std::string>& arg_names,
                              const std::vector<Operand>& outputs) const {
  std::unique_ptr<ExecutionContext> callee = caller->CreateChild();

  // Bind arguments: named args match by name, positional in order.
  std::vector<bool> bound(params.size(), false);
  size_t positional = 0;
  for (size_t a = 0; a < args.size(); ++a) {
    int64_t target = -1;
    if (a < arg_names.size() && !arg_names[a].empty()) {
      for (size_t p = 0; p < params.size(); ++p) {
        if (params[p].name == arg_names[a]) {
          target = static_cast<int64_t>(p);
          break;
        }
      }
      if (target < 0) {
        return RuntimeError("function " + name + ": unknown argument '" +
                            arg_names[a] + "'");
      }
    } else {
      while (positional < params.size() && bound[positional]) ++positional;
      if (positional >= params.size()) {
        return RuntimeError("function " + name + ": too many arguments");
      }
      target = static_cast<int64_t>(positional);
    }
    const Param& p = params[static_cast<size_t>(target)];
    SYSDS_ASSIGN_OR_RETURN(DataPtr value, caller->Resolve(args[a]));
    callee->SetVar(p.name, std::move(value));
    bound[static_cast<size_t>(target)] = true;
    if (caller->TracingEnabled()) {
      callee->Lineage()->Set(p.name, OperandLineage(args[a], caller));
    }
  }
  // Defaults for unbound parameters.
  for (size_t p = 0; p < params.size(); ++p) {
    if (bound[p]) continue;
    if (!params[p].has_default) {
      return RuntimeError("function " + name + ": missing argument '" +
                          params[p].name + "'");
    }
    Operand lit = Operand::Literal(params[p].default_value);
    SYSDS_ASSIGN_OR_RETURN(DataPtr value, callee->Resolve(lit));
    callee->SetVar(params[p].name, std::move(value));
  }

  for (const ProgramBlockPtr& b : body) {
    SYSDS_RETURN_IF_ERROR(b->Execute(callee.get()));
  }

  // Copy results back.
  for (size_t r = 0; r < outputs.size() && r < returns.size(); ++r) {
    SYSDS_ASSIGN_OR_RETURN(DataPtr value, callee->Vars().Get(returns[r].name));
    caller->SetOutput(outputs[r], std::move(value));
    if (caller->TracingEnabled()) {
      LineageItemPtr li = callee->Lineage()->GetOrNull(returns[r].name);
      if (li != nullptr) caller->Lineage()->Set(outputs[r].name, li);
    }
  }
  return Status::Ok();
}

namespace {
std::string Indent(int n) { return std::string(static_cast<size_t>(n), ' '); }

void ExplainPredicate(const Predicate& p, const char* label,
                      std::ostream& os, int indent) {
  os << Indent(indent) << "-- " << label << " (-> " << p.result_var << ")\n";
  for (const InstructionPtr& instr : p.instructions) {
    os << Indent(indent + 2) << instr->ToString() << "\n";
  }
}
}  // namespace

void BasicBlock::Explain(std::ostream& os, int indent) const {
  os << Indent(indent) << "GENERIC block"
     << (requires_recompile_ ? " [recompile]" : "") << "\n";
  for (const InstructionPtr& instr : instructions_) {
    os << Indent(indent + 2) << instr->ToString() << "\n";
  }
}

void IfBlock::Explain(std::ostream& os, int indent) const {
  os << Indent(indent) << "IF block\n";
  ExplainPredicate(predicate_, "predicate", os, indent + 2);
  for (const ProgramBlockPtr& b : then_blocks_) b->Explain(os, indent + 2);
  if (!else_blocks_.empty()) {
    os << Indent(indent) << "ELSE\n";
    for (const ProgramBlockPtr& b : else_blocks_) b->Explain(os, indent + 2);
  }
}

void WhileBlock::Explain(std::ostream& os, int indent) const {
  os << Indent(indent) << "WHILE block\n";
  ExplainPredicate(predicate_, "predicate", os, indent + 2);
  for (const ProgramBlockPtr& b : body_) b->Explain(os, indent + 2);
}

void ForBlock::Explain(std::ostream& os, int indent) const {
  os << Indent(indent)
     << (dynamic_cast<const ParForBlock*>(this) ? "PARFOR" : "FOR")
     << " block (" << loop_var_ << ")\n";
  ExplainPredicate(from_, "from", os, indent + 2);
  ExplainPredicate(to_, "to", os, indent + 2);
  ExplainPredicate(increment_, "increment", os, indent + 2);
  for (const ProgramBlockPtr& b : body_) b->Explain(os, indent + 2);
}

std::string Program::Explain() const {
  std::ostringstream os;
  os << "PROGRAM (" << blocks_.size() << " blocks, " << functions_.size()
     << " functions)\n";
  for (const auto& [name, fn] : functions_) {
    os << "FUNCTION " << name << "(";
    for (size_t i = 0; i < fn->params.size(); ++i) {
      if (i > 0) os << ", ";
      os << fn->params[i].name;
    }
    os << ") -> (";
    for (size_t i = 0; i < fn->returns.size(); ++i) {
      if (i > 0) os << ", ";
      os << fn->returns[i].name;
    }
    os << ")\n";
    for (const ProgramBlockPtr& b : fn->body) b->Explain(os, 2);
  }
  os << "MAIN\n";
  for (const ProgramBlockPtr& b : blocks_) b->Explain(os, 2);
  return os.str();
}

StatusOr<const FunctionBlock*> Program::GetFunction(
    const std::string& name) const {
  auto it = functions_.find(name);
  if (it == functions_.end()) {
    return NotFound("function '" + name + "' is not defined");
  }
  return it->second.get();
}

Status Program::Execute(ExecutionContext* ec) {
  for (const ProgramBlockPtr& b : blocks_) {
    SYSDS_RETURN_IF_ERROR(b->Execute(ec));
  }
  return Status::Ok();
}

}  // namespace sysds
