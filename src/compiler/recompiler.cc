#include "compiler/recompiler.h"

#include "compiler/codegen.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/controlprog/execution_context.h"

namespace sysds {

namespace {
struct RecompilerMetrics {
  obs::Counter* recompilations;
};

RecompilerMetrics& Metrics() {
  static RecompilerMetrics m = {
      obs::MetricsRegistry::Get().GetCounter("compiler.recompilations"),
  };
  return m;
}
}  // namespace

std::vector<Hop*> SizeKeyReads(const std::vector<HopPtr>& roots) {
  std::vector<Hop*> reads;
  for (Hop* hop : TopoOrder(roots)) {
    if (hop->op() == HopOp::kTransientRead &&
        hop->data_type() != DataType::kScalar) {
      reads.push_back(hop);
    }
  }
  return reads;
}

std::vector<int64_t> SizeKey(const std::vector<Hop*>& reads,
                             const SymbolTable& vars) {
  std::vector<int64_t> key(3 * reads.size(), -1);
  for (size_t k = 0; k < reads.size(); ++k) {
    DataPtr d = vars.GetOrNull(reads[k]->name());
    if (auto* m = dynamic_cast<MatrixObject*>(d.get())) {
      key[3 * k] = m->Rows();
      key[3 * k + 1] = m->Cols();
      key[3 * k + 2] = m->NonZeros();
    } else if (auto* f = dynamic_cast<FrameObject*>(d.get())) {
      key[3 * k] = f->Frame().Rows();
      key[3 * k + 1] = f->Frame().Cols();
    }
  }
  return key;
}

StatusOr<std::vector<InstructionPtr>> RecompileHops(
    const std::vector<HopPtr>& roots, const std::vector<Hop*>& reads,
    const std::vector<int64_t>& key, const DMLConfig& config) {
  SYSDS_SPAN("compiler", "recompile");
  Metrics().recompilations->Add(1);
  for (size_t k = 0; k < reads.size(); ++k) {
    reads[k]->set_dims(key[3 * k], key[3 * k + 1]);
    reads[k]->set_nnz(key[3 * k + 2]);
  }
  PropagateSizes(roots);
  return GenerateInstructions(roots, config);
}

}  // namespace sysds
