#ifndef SYSDS_COMPILER_CODEGEN_H_
#define SYSDS_COMPILER_CODEGEN_H_

#include <vector>

#include "common/config.h"
#include "common/status.h"
#include "compiler/hop.h"
#include "compiler/lop.h"
#include "runtime/controlprog/instruction.h"

namespace sysds {

/// Operator selection (paper §2.3(2)): decides CP vs SPARK per hop from the
/// memory estimate against the CP budget (or force_spark).
void SelectExecTypes(const std::vector<HopPtr>& roots,
                     const DMLConfig& config);

/// Lowers a HOP DAG to physical operators in topological order.
StatusOr<std::vector<Lop>> BuildLops(const std::vector<HopPtr>& roots,
                                     const DMLConfig& config);

/// Translates LOPs into executable runtime instructions; the config fixes
/// the output format of transformencode/transformapply.
StatusOr<std::vector<InstructionPtr>> LopsToInstructions(
    const std::vector<Lop>& lops, const DMLConfig& config);

/// Full lowering: exec-type selection + LOP construction + instruction
/// generation (also used by the dynamic recompiler).
StatusOr<std::vector<InstructionPtr>> GenerateInstructions(
    const std::vector<HopPtr>& roots, const DMLConfig& config);

}  // namespace sysds

#endif  // SYSDS_COMPILER_CODEGEN_H_
