#include "compiler/fusion.h"

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/matrix/lib_fused.h"
#include "runtime/matrix/op_codes.h"

namespace sysds {

namespace {

struct FusionMetrics {
  obs::Counter* regions;
  obs::Counter* intermediates_elided;
};

FusionMetrics& Metrics() {
  auto& r = obs::MetricsRegistry::Get();
  static FusionMetrics m = {
      r.GetCounter("fusion.regions"),
      r.GetCounter("fusion.intermediates_elided"),
  };
  return m;
}

// Upper bound on pipeline length; regions past this keep correctness but the
// per-row scratch working set starts to defeat the cache locality win.
constexpr size_t kMaxRegionSteps = 64;

// A committed fusion region: the hop it replaces, its member ops (topo
// order, producers before consumers), and the emitted micro-plan with its
// leaf inputs in plan order.
struct Region {
  std::vector<Hop*> members;
  std::vector<HopPtr> matrix_leaves;
  std::vector<HopPtr> scalar_leaves;
  FusedPlan plan;
};

bool CpEligible(const Hop& hop, const DMLConfig& config) {
  return !config.force_spark && hop.MemEstimate() <= config.cp_memory_budget;
}

// Shape of a matrix operand relative to the region shape; false when it
// neither matches nor broadcasts.
bool OperandKind(const Hop& in, int64_t rows, int64_t cols,
                 FusedInputKind* kind) {
  if (!in.DimsKnown()) return false;
  if (in.dim1() == rows && in.dim2() == cols) {
    *kind = FusedInputKind::kFull;
    return true;
  }
  if (in.dim1() == rows && in.dim2() == 1) {
    *kind = FusedInputKind::kColVec;
    return true;
  }
  if (in.dim1() == 1 && in.dim2() == cols) {
    *kind = FusedInputKind::kRowVec;
    return true;
  }
  return false;
}

// True when `hop` is an elementwise kBinary/kUnary over the given region
// shape whose operands are scalars, same-shape matrices, or broadcastable
// vectors — i.e. it can run as one step of a fused row pipeline.
bool FusableElementwise(const Hop& hop, int64_t rows, int64_t cols,
                        const DMLConfig& config) {
  if (hop.data_type() != DataType::kMatrix) return false;
  if (!hop.DimsKnown() || hop.dim1() != rows || hop.dim2() != cols) {
    return false;
  }
  if (!CpEligible(hop, config) || !hop.params().empty()) return false;
  if (hop.op() == HopOp::kBinary) {
    BinaryOpCode bop;
    if (hop.inputs().size() != 2 || !ParseBinaryOpcode(hop.opcode(), &bop)) {
      return false;
    }
  } else if (hop.op() == HopOp::kUnary) {
    UnaryOpCode uop;
    if (hop.inputs().size() != 1 || !ParseUnaryOpcode(hop.opcode(), &uop)) {
      return false;
    }
  } else {
    return false;
  }
  for (const HopPtr& in : hop.inputs()) {
    if (in->data_type() == DataType::kScalar) {
      if (in->value_type() == ValueType::kString) return false;
      continue;
    }
    if (in->data_type() != DataType::kMatrix) return false;
    FusedInputKind kind;
    if (!OperandKind(*in, rows, cols, &kind)) return false;
  }
  return true;
}

// True when `hop` can cap a region: a full/row/col aggregate over a single
// matrix input, excluding the aggregates the fused kernel does not model
// (trace reads the diagonal; imax/imin need per-cell argument tracking
// through the pipeline).
bool FusableAggRoot(const Hop& hop, const DMLConfig& config, AggOpCode* agg,
                    AggDirection* dir) {
  if (hop.op() != HopOp::kAggUnary || hop.inputs().size() != 1) return false;
  if (!ParseAggOpcode(hop.opcode(), agg, dir)) return false;
  if (*agg == AggOpCode::kTrace || *agg == AggOpCode::kIndexMax ||
      *agg == AggOpCode::kIndexMin) {
    return false;
  }
  const Hop& in = *hop.inputs()[0];
  return in.data_type() == DataType::kMatrix && in.DimsKnown() &&
         CpEligible(hop, config);
}

class FusionPlanner {
 public:
  FusionPlanner(const std::vector<HopPtr>& roots, const DMLConfig& config)
      : roots_(roots), config_(config) {}

  std::vector<HopPtr> Run() {
    std::vector<Hop*> order = TopoOrder(roots_);
    for (Hop* hop : order) {
      for (const HopPtr& in : hop->inputs()) {
        consumers_[in->id()]++;
        ptr_of_.emplace(in->id(), in);
      }
    }
    for (const HopPtr& r : roots_) ptr_of_.emplace(r->id(), r);
    // Reverse topological scan: consumers first, so an aggregate claims its
    // elementwise producer chain before the chain can seed its own region.
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      Hop* hop = *it;
      if (absorbed_.count(hop->id()) || regions_.count(hop->id())) continue;
      TrySeed(hop);
    }
    if (regions_.empty()) return roots_;
    std::vector<HopPtr> rebuilt;
    rebuilt.reserve(roots_.size());
    for (const HopPtr& root : roots_) rebuilt.push_back(Rebuild(root));
    return rebuilt;
  }

 private:
  // Attempts to commit a region rooted at `hop` (aggregate cap or pure
  // elementwise root).
  void TrySeed(Hop* hop) {
    Region region;
    AggOpCode agg;
    AggDirection dir;
    Hop* top = nullptr;  // topmost elementwise member
    int64_t rows, cols;
    if (FusableAggRoot(*hop, config_, &agg, &dir)) {
      const HopPtr& in = hop->inputs()[0];
      rows = in->dim1();
      cols = in->dim2();
      if (rows <= 0 || cols <= 0) return;
      if (consumers_[in->id()] != 1 ||
          !FusableElementwise(*in, rows, cols, config_)) {
        return;
      }
      region.plan.has_agg = true;
      region.plan.agg = agg;
      region.plan.agg_dir = dir;
      top = in.get();
      Grow(in, rows, cols, &region.members);
    } else {
      rows = hop->dim1();
      cols = hop->dim2();
      if (rows <= 0 || cols <= 0) return;
      if (!FusableElementwise(*hop, rows, cols, config_)) return;
      top = hop;
      Grow(ptr_of_.at(hop->id()), rows, cols, &region.members);
      // A single elementwise op gains nothing from fusion.
      if (region.members.size() < 2) return;
    }

    // Profitability gate: fusing must elide at least one interior
    // intermediate of configured size. For aggregate regions the top
    // member's full-size output is elided too; for elementwise regions the
    // top member's output is the region result and still materializes.
    bool worthwhile = false;
    for (Hop* m : region.members) {
      if (m == top && !region.plan.has_agg) continue;
      if (m->OutputMemEstimate() >= config_.fusion_min_intermediate_bytes) {
        worthwhile = true;
        break;
      }
    }
    if (!worthwhile) return;

    if (!EmitPlan(rows, cols, &region)) return;

    Metrics().regions->Add(1);
    Metrics().intermediates_elided->Add(region.plan.IntermediatesElided());
    for (Hop* m : region.members) absorbed_.insert(m->id());
    regions_.emplace(hop->id(), std::move(region));
  }

  // Collects the member tree under `h` (inclusive) in topological order.
  // `h` is already known to be a member; inputs are absorbed when they are
  // exclusively consumed, same-shape, and fusable.
  void Grow(const HopPtr& h, int64_t rows, int64_t cols,
            std::vector<Hop*>* members) {
    for (const HopPtr& in : h->inputs()) {
      if (members->size() + 1 >= kMaxRegionSteps) break;
      if (in->data_type() != DataType::kMatrix) continue;
      if (consumers_[in->id()] != 1) continue;
      if (!FusableElementwise(*in, rows, cols, config_)) continue;
      Grow(in, rows, cols, members);
    }
    members->push_back(h.get());
  }

  // Serializes the members into a micro-plan, collecting matrix/scalar
  // leaves in first-use order. Fails (abandoning the region) when no
  // full-shape matrix input exists to drive the row pipeline.
  bool EmitPlan(int64_t rows, int64_t cols, Region* region) {
    std::map<int64_t, int> step_of;
    std::map<int64_t, int> leaf_of;
    std::map<int64_t, int> scalar_of;
    for (Hop* m : region->members) {
      FusedStep step;
      if (m->op() == HopOp::kBinary) {
        step.is_binary = true;
        ParseBinaryOpcode(m->opcode(), &step.bop);
        step.a = Ref(m->inputs()[0], rows, cols, step_of, &leaf_of,
                     &scalar_of, region);
        step.b = Ref(m->inputs()[1], rows, cols, step_of, &leaf_of,
                     &scalar_of, region);
      } else {
        step.is_binary = false;
        ParseUnaryOpcode(m->opcode(), &step.uop);
        step.a = Ref(m->inputs()[0], rows, cols, step_of, &leaf_of,
                     &scalar_of, region);
      }
      step_of[m->id()] = static_cast<int>(region->plan.steps.size());
      region->plan.steps.push_back(step);
    }
    region->plan.num_inputs = static_cast<int>(region->matrix_leaves.size());
    region->plan.num_scalars = static_cast<int>(region->scalar_leaves.size());
    region->plan.root = static_cast<int>(region->plan.steps.size()) - 1;
    for (FusedInputKind kind : region->plan.input_kinds) {
      if (kind == FusedInputKind::kFull) return true;
    }
    return false;
  }

  FusedRef Ref(const HopPtr& in, int64_t rows, int64_t cols,
               const std::map<int64_t, int>& step_of,
               std::map<int64_t, int>* leaf_of,
               std::map<int64_t, int>* scalar_of, Region* region) {
    FusedRef ref;
    auto sit = step_of.find(in->id());
    if (sit != step_of.end()) {
      ref.kind = FusedRef::kStep;
      ref.idx = sit->second;
      return ref;
    }
    if (in->data_type() == DataType::kScalar) {
      ref.kind = FusedRef::kScalar;
      auto it = scalar_of->find(in->id());
      if (it == scalar_of->end()) {
        it = scalar_of
                 ->emplace(in->id(),
                           static_cast<int>(region->scalar_leaves.size()))
                 .first;
        region->scalar_leaves.push_back(in);
      }
      ref.idx = it->second;
      return ref;
    }
    ref.kind = FusedRef::kInput;
    auto it = leaf_of->find(in->id());
    if (it == leaf_of->end()) {
      it = leaf_of
               ->emplace(in->id(),
                         static_cast<int>(region->matrix_leaves.size()))
               .first;
      region->matrix_leaves.push_back(in);
      FusedInputKind kind = FusedInputKind::kFull;
      OperandKind(*in, rows, cols, &kind);  // validated by FusableElementwise
      region->plan.input_kinds.push_back(kind);
    }
    ref.idx = it->second;
    return ref;
  }

  // Copy-on-write rebuild: fused regions become kFusedOp hops, consumers of
  // changed nodes are shallow-cloned, untouched subtrees are shared with the
  // original DAG (which the recompiler keeps pristine).
  HopPtr Rebuild(const HopPtr& h) {
    auto mit = memo_.find(h->id());
    if (mit != memo_.end()) return mit->second;
    HopPtr result;
    auto rit = regions_.find(h->id());
    if (rit != regions_.end()) {
      const Region& region = rit->second;
      auto fused = std::make_shared<Hop>(HopOp::kFusedOp, "fused",
                                         h->data_type(), h->value_type());
      fused->set_dims(h->dim1(), h->dim2());
      fused->set_nnz(h->nnz());
      for (const HopPtr& leaf : region.matrix_leaves) {
        fused->AddInput(Rebuild(leaf));
      }
      for (const HopPtr& leaf : region.scalar_leaves) {
        fused->AddInput(Rebuild(leaf));
      }
      fused->AddInput(
          MakeLiteralHop(LitValue::String(region.plan.Serialize())));
      result = std::move(fused);
    } else {
      std::vector<HopPtr> new_inputs;
      new_inputs.reserve(h->inputs().size());
      bool changed = false;
      for (const HopPtr& in : h->inputs()) {
        HopPtr ni = Rebuild(in);
        changed |= (ni != in);
        new_inputs.push_back(std::move(ni));
      }
      if (!changed) {
        result = h;
      } else {
        auto clone = std::make_shared<Hop>(h->op(), h->opcode(),
                                           h->data_type(), h->value_type());
        clone->set_dims(h->dim1(), h->dim2());
        clone->set_nnz(h->nnz());
        clone->set_name(h->name());
        clone->literal() = h->literal();
        clone->params() = h->params();
        clone->outputs() = h->outputs();
        clone->inputs() = std::move(new_inputs);
        result = std::move(clone);
      }
    }
    memo_[h->id()] = result;
    return result;
  }

  const std::vector<HopPtr>& roots_;
  const DMLConfig& config_;
  std::map<int64_t, int> consumers_;
  std::map<int64_t, HopPtr> ptr_of_;
  std::set<int64_t> absorbed_;
  std::map<int64_t, Region> regions_;  // replaced-hop id -> region
  std::map<int64_t, HopPtr> memo_;
};

}  // namespace

std::vector<HopPtr> PlanFusion(const std::vector<HopPtr>& roots,
                               const DMLConfig& config) {
  SYSDS_SPAN("compiler", "fusion");
  return FusionPlanner(roots, config).Run();
}

}  // namespace sysds
