#ifndef SYSDS_COMPILER_RECOMPILER_H_
#define SYSDS_COMPILER_RECOMPILER_H_

#include <cstdint>
#include <vector>

#include "common/config.h"
#include "common/status.h"
#include "compiler/hop.h"
#include "runtime/controlprog/instruction.h"

namespace sysds {

class SymbolTable;

/// Dynamic recompilation (paper §2.3(3)): before executing a basic block
/// whose HOP DAG had unknown sizes at compile time, refresh the transient-
/// read sizes from the live symbol table, re-propagate sizes, re-select
/// execution types, and regenerate the instruction sequence — mitigating
/// initial unknowns the way adaptive query processing does.
///
/// A recompiled plan depends only on its size key: the dims and nnz of the
/// DAG's matrix/frame transient reads. BasicBlock::Execute keeps one plan
/// per block and recompiles only when the key changes.

/// The transient reads of `roots` that the size key is taken from.
std::vector<Hop*> SizeKeyReads(const std::vector<HopPtr>& roots);

/// Rows, cols and nnz of each read's live matrix or frame in `vars`; -1
/// where unknown (absent variable, scalar value, frame nnz).
std::vector<int64_t> SizeKey(const std::vector<Hop*>& reads,
                             const SymbolTable& vars);

/// Recompiles the DAG of `roots` for `key` (from SizeKey over `reads`).
/// Writes sizes and exec types into the DAG, so calls on one DAG must not
/// overlap.
StatusOr<std::vector<InstructionPtr>> RecompileHops(
    const std::vector<HopPtr>& roots, const std::vector<Hop*>& reads,
    const std::vector<int64_t>& key, const DMLConfig& config);

}  // namespace sysds

#endif  // SYSDS_COMPILER_RECOMPILER_H_
