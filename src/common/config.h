#ifndef SYSDS_COMMON_CONFIG_H_
#define SYSDS_COMMON_CONFIG_H_

#include <cstdint>

#include "common/faults.h"

namespace sysds {

/// How lineage-based reuse of intermediates operates (paper §3.1).
enum class ReusePolicy {
  kNone,         // trace only (if tracing enabled), never reuse
  kFull,         // reuse only exact lineage matches
  kPartial,      // full + compensation-plan based partial reuse
};

/// Output representation of transformencode/transformapply (§4.2 + §3.4):
/// dummy-coded and recoded columns are natural DDC column groups, so the
/// encoder can emit a CompressedMatrixBlock directly, skipping the dense
/// intermediate and the sampling planner (the fitted dictionary gives exact
/// cardinalities). kAuto prices bytes per column like the compression
/// planner and falls back to dense below the min-ratio gate.
enum class TransformOutputFormat {
  kDense,       // always a dense/sparse MatrixBlock (legacy behaviour)
  kCompressed,  // always a CompressedMatrixBlock
  kAuto,        // per-column byte pricing + min-ratio gate decides
};

/// Global execution configuration. One instance is attached to each
/// SystemDSContext; the defaults model the paper's driver configuration
/// (local CP with optional distributed/federated operations chosen by
/// memory estimates).
struct DMLConfig {
  // Thread budget: the most threads that execute one parallel loop of a CP
  // kernel, transform or read, and the number of local parfor workers.
  int num_threads = 0;  // 0 = DefaultParallelism()

  // CP memory budget in bytes; operations whose memory estimate exceeds
  // this are compiled to the distributed (SPARK-sim) backend, mirroring the
  // memory-estimate-driven operator selection of §2.3(2).
  int64_t cp_memory_budget = 2LL * 1024 * 1024 * 1024;

  // Buffer-pool limit (bytes of cached matrix data before eviction).
  int64_t buffer_pool_limit = 1LL * 1024 * 1024 * 1024;
  // Hint-driven prefetch: loops restore their spilled invariant operands
  // asynchronously at iteration boundaries (compiler liveness hints).
  bool buffer_pool_prefetch = true;

  // Block size (rows==cols) of the distributed blocking scheme.
  int64_t block_size = 1024;

  // Lineage tracing & reuse.
  bool lineage_tracing = false;
  ReusePolicy reuse_policy = ReusePolicy::kNone;
  int64_t lineage_cache_limit = 512LL * 1024 * 1024;
  // Loop deduplication (§3.1): per loop iteration, replace each changed
  // variable's per-instruction trace by a single node referencing the
  // distinct control-flow path taken, bounding trace growth to
  // O(loop-carried variables) instead of O(instructions) per iteration.
  bool lineage_dedup = false;

  // Force all matrix operations to a backend (testing / benchmarking).
  bool force_spark = false;

  // Operator fusion (compiler/fusion.h): single-pass fused pipelines for
  // elementwise–aggregate chains. A region is fused only when it elides at
  // least one intermediate whose dense estimate reaches the threshold, so
  // tiny expressions keep the (cheaper to compile) unfused form.
  bool fusion_enabled = true;
  int64_t fusion_min_intermediate_bytes = 1024;

  // Dynamic recompilation of basic blocks when sizes were unknown (§2.3(3)).
  bool dynamic_recompilation = true;

  // Workload-aware compressed linear algebra (§3.4). When enabled, a
  // compiler rewrite injects compress() for large loop-invariant read-only
  // matrices, matrix instructions dispatch to compressed kernels with
  // decompress-and-retry fallback, and the buffer pool accounts/spills
  // compressed blocks in compressed form.
  bool compression_enabled = false;
  // Matrices below this in-memory size are never compressed (the planner
  // sample would cost more than the savings).
  int64_t compression_min_size_bytes = 64 * 1024;

  // Feature-transform pipeline (runtime/frame/transform.h). Instruction
  // generation plans the encode output format per instruction: kDense is
  // upgraded to kAuto when compression is enabled, so encode outputs feed
  // downstream lmDS-style sweeps in compressed form.
  TransformOutputFormat transform_output = TransformOutputFormat::kDense;

  // Print instruction-level statistics at the end of a script run.
  bool statistics = false;

  // Chaos testing: when faults.enabled, SystemDSContext configures the
  // process-wide FaultInjector at construction (see common/faults.h and
  // SystemDSContext::Builder::Chaos/ChaosSeed).
  FaultConfig faults;

  // Checkpoint/restart (src/runtime/recovery/). When checkpoint_dir is
  // non-empty, outermost annotated loops snapshot their loop-carried
  // variables into crash-safe checkpoint files; a later run with
  // checkpoint_resume set re-executes the deterministic prefix and fast-
  // forwards to the last committed checkpoint. See
  // SystemDSContext::Builder::Checkpointing/Resume.
  std::string checkpoint_dir;
  // Checkpoint every N-th completed iteration; <= 0 selects the adaptive
  // cost gate (lost-work vs estimated-write-cost).
  int64_t checkpoint_interval = 1;
  bool checkpoint_resume = false;
};

}  // namespace sysds

#endif  // SYSDS_COMMON_CONFIG_H_
