#ifndef SYSDS_COMPILER_COMPRESS_REWRITE_H_
#define SYSDS_COMPILER_COMPRESS_REWRITE_H_

#include "common/config.h"
#include "runtime/controlprog/program.h"

namespace sysds {

/// Workload-aware compression rewrite (paper §3.4): for every loop whose
/// body reads a matrix variable that the loop never writes (the lmDS-style
/// "sweep over one dataset" pattern), inject a compress(X) instruction
/// immediately before the loop. The compress instruction itself is lenient
/// (sampling-based planner, min-ratio gate, pass-through on every
/// early-out), so injection is always safe; the rewrite only decides
/// *where* compression could pay off.
void InjectCompression(Program* program, const DMLConfig& config);

}  // namespace sysds

#endif  // SYSDS_COMPILER_COMPRESS_REWRITE_H_
