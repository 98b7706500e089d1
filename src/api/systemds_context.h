#ifndef SYSDS_API_SYSTEMDS_CONTEXT_H_
#define SYSDS_API_SYSTEMDS_CONTEXT_H_

#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/config.h"
#include "common/status.h"
#include "compiler/compiler.h"
#include "lineage/lineage.h"
#include "runtime/bufferpool/buffer_pool.h"
#include "runtime/controlprog/program.h"

namespace sysds {

/// Results of one script execution: the requested output variables.
class ScriptResult {
 public:
  StatusOr<MatrixBlock> GetMatrix(const std::string& name) const;
  StatusOr<double> GetDouble(const std::string& name) const;
  StatusOr<std::string> GetString(const std::string& name) const;
  StatusOr<FrameBlock> GetFrame(const std::string& name) const;
  /// Everything print()ed during execution.
  const std::string& Output() const { return output_; }

  /// Serialized lineage trace of an output variable (§3.1: the surface for
  /// model versioning, reproducibility, and debugging via queries over
  /// traces). Available when lineage tracing or reuse was enabled.
  StatusOr<std::string> GetLineage(const std::string& name) const;

  // Internal: populated by the execution layer.
  void SetValue(const std::string& name, DataPtr value) {
    values_[name] = std::move(value);
  }
  void SetOutputText(std::string text) { output_ = std::move(text); }
  void SetLineageText(const std::string& name, std::string trace) {
    lineage_[name] = std::move(trace);
  }

 private:
  std::map<std::string, DataPtr> values_;
  std::map<std::string, std::string> lineage_;
  std::string output_;
};

/// Typed input-binding builder: the value-carrying half of an execution
/// request. Replaces the raw std::map<std::string, DataPtr> surface:
///
///   ctx.Execute(script,
///               Inputs().Matrix("X", x).Scalar("eps", 1e-6),
///               Outputs("B"));
///
/// An Inputs object is an immutable value once handed to Execute; build a
/// fresh one per request (they are cheap: bindings are shared_ptrs).
class Inputs {
 public:
  Inputs() = default;

  Inputs& Matrix(const std::string& name, MatrixBlock value);
  Inputs& Frame(const std::string& name, FrameBlock value);
  Inputs& Scalar(const std::string& name, double value);
  Inputs& Integer(const std::string& name, int64_t value);
  Inputs& Boolean(const std::string& name, bool value);
  Inputs& String(const std::string& name, std::string value);
  /// Binds an already-constructed runtime object (shares, never copies).
  Inputs& Bind(const std::string& name, DataPtr value);

  const std::map<std::string, DataPtr>& Bindings() const { return bindings_; }

 private:
  std::map<std::string, DataPtr> bindings_;
};

/// Output selection for an execution request: `Outputs("B", "loss")`. At
/// least one name is required by the constructor; use Outputs::None() for a
/// script executed purely for its side effects (print/write).
class Outputs {
 public:
  template <typename... Names,
            typename = std::enable_if_t<
                (sizeof...(Names) >= 1) &&
                (std::is_convertible_v<Names, std::string> && ...)>>
  explicit Outputs(Names&&... names) {
    (names_.emplace_back(std::forward<Names>(names)), ...);
  }

  static Outputs None() { return Outputs(Tag{}); }
  static Outputs FromVector(std::vector<std::string> names) {
    Outputs o{Tag{}};
    o.names_ = std::move(names);
    return o;
  }

  Outputs& Add(std::string name) {
    names_.push_back(std::move(name));
    return *this;
  }

  const std::vector<std::string>& Names() const { return names_; }

 private:
  struct Tag {};
  explicit Outputs(Tag) {}
  std::vector<std::string> names_;
};

/// Per-request execution controls for the thread-safe execution paths.
struct ExecuteOptions {
  /// Absolute deadline; the interpreter polls it between instructions and
  /// fails the request with StatusCode::kTimeout once expired.
  std::optional<std::chrono::steady_clock::time_point> deadline;
  /// Cooperative cancellation (StatusCode::kCancelled when fired).
  std::shared_ptr<CancellationToken> cancel;
};

/// JMLC-style prepared script (paper §2.2(1)): compile once, bind in-memory
/// inputs, execute repeatedly with low latency.
///
/// The const Execute(Inputs, Outputs) overload is thread-safe: any number
/// of threads may execute one PreparedScript concurrently, each call runs
/// on its own ExecutionContext/symbol table over the shared immutable
/// Program, and the lineage reuse cache (sharded, internally synchronized)
/// persists across executions. Because program blocks are shared across
/// threads, dynamic recompilation is disabled on this path; pass complete
/// SymbolInfo dimensions to Prepare so plans are compiled to final form.
///
/// A PreparedScript co-owns the config, lineage cache, and buffer pool of
/// the context that prepared it, so it remains valid (and executable) after
/// that context is destroyed. Its executions bind matrices to that pool;
/// every bound matrix also co-owns the pool, so lineage-cached blocks and
/// results may outlive both the context and the PreparedScript.
class PreparedScript {
 public:
  /// Thread-safe execution with per-call bindings.
  StatusOr<ScriptResult> Execute(const Inputs& inputs, const Outputs& outputs,
                                 const ExecuteOptions& options = {}) const;

  /// The buffer pool this script's executions store matrices in (the
  /// preparing context's pool).
  BufferPool* Pool() const { return pool_.get(); }

 private:
  friend class SystemDSContext;
  std::shared_ptr<Program> program_;
  std::shared_ptr<const DMLConfig> config_;
  std::shared_ptr<LineageCache> cache_;
  std::shared_ptr<BufferPool> pool_;
};

/// The MLContext-like entry point: owns configuration, the buffer pool, and
/// the lineage reuse cache; compiles and executes DML scripts.
///
/// Construct through SystemDSContext::Builder, which fixes the
/// configuration at construction time:
///
///   auto ctx = SystemDSContext::Builder()
///                  .Reuse(ReusePolicy::kFull)
///                  .NumThreads(4)
///                  .EnableTracing("trace.json")
///                  .Build();
class SystemDSContext {
 public:
  /// Fluent constructor: every knob of DMLConfig plus the observability
  /// sinks, applied atomically at Build(). The built context's
  /// configuration should be treated as immutable; concurrent executions
  /// (PreparedScript / serve::ScoringService) rely on it not changing.
  class Builder {
   public:
    Builder() = default;

    /// Replaces the whole config (start from an existing DMLConfig).
    Builder& WithConfig(DMLConfig config);
    /// Thread budget (`dml_runner -threads N`): the most threads that run
    /// one parallel loop of this context's kernels; 0 = the whole pool.
    Builder& NumThreads(int n);
    Builder& CpMemoryBudget(int64_t bytes);
    Builder& BufferPoolLimit(int64_t bytes);
    /// Loop-hint prefetch of spilled operands (`dml_runner --no-prefetch`
    /// maps to this). Defaults to on; results are bit-identical either way
    /// — only stall time changes.
    Builder& BufferPoolPrefetch(bool on = true);
    Builder& BlockSize(int64_t rows);
    Builder& LineageTracing(bool on = true);
    Builder& Reuse(ReusePolicy policy);
    Builder& LineageCacheLimit(int64_t bytes);
    Builder& LineageDedup(bool on = true);
    Builder& DynamicRecompilation(bool on);
    /// Operator fusion of elementwise(+aggregate) chains (`dml_runner
    /// --no-fusion` maps to Fusion(false)). Fused and unfused plans produce
    /// identical results; disable to debug or to benchmark the win.
    Builder& Fusion(bool on);
    /// Minimum dense-size estimate (bytes) an elided intermediate must
    /// reach before a region is considered worth fusing.
    Builder& FusionThreshold(int64_t bytes);
    /// Workload-aware compressed linear algebra (`dml_runner --compress`
    /// maps to Compression(true)). When on, a compiler rewrite injects
    /// compress() before loops for large read-only matrices and matrix
    /// instructions dispatch to compressed kernels transparently.
    Builder& Compression(bool on = true);
    /// Matrices below this in-memory size are never compressed.
    Builder& CompressionMinSize(int64_t bytes);
    /// Output representation of transformencode/transformapply
    /// (`dml_runner --transform-compressed` maps to
    /// TransformOutput(kCompressed)). kAuto prices bytes per column;
    /// compression enablement upgrades kDense to kAuto at compile time.
    Builder& TransformOutput(TransformOutputFormat format);
    Builder& Statistics(bool on = true);
    /// Turns on the span tracer (src/obs/); the Chrome trace-event JSON is
    /// written to `path` by FlushObservability() or the destructor,
    /// whichever comes first.
    Builder& EnableTracing(std::string path);
    /// Writes the metrics-registry JSON export to `path` at flush or
    /// destruction time.
    Builder& EnableMetricsExport(std::string path);
    /// Chaos testing: the built context configures the process-wide
    /// FaultInjector with this FaultConfig at construction and disables it
    /// again at destruction (see common/faults.h).
    Builder& Chaos(FaultConfig faults);
    /// Shorthand: FaultProfile::Standard() under the given seed
    /// (`dml_runner --chaos-seed N` maps here).
    Builder& ChaosSeed(uint64_t seed);
    /// Checkpoint/restart (`dml_runner --checkpoint-dir DIR`): outermost
    /// loops snapshot loop-carried state into `dir` every `interval`
    /// completed iterations (interval <= 0 selects the adaptive cost
    /// gate). Crash-safe: every file is CRC-checksummed and committed by
    /// atomic rename.
    Builder& Checkpointing(std::string dir, int64_t interval = 1);
    /// Resume from the checkpoint directory (`dml_runner --resume`): the
    /// deterministic program prefix re-executes, then execution fast-
    /// forwards past the checkpointed iterations. The resumed run is
    /// bit-identical to an uninterrupted one.
    Builder& Resume(bool on = true);

    std::unique_ptr<SystemDSContext> Build() const;

   private:
    DMLConfig config_;
    std::string trace_path_;
    std::string metrics_path_;
  };

  SystemDSContext();
  explicit SystemDSContext(DMLConfig config);
  ~SystemDSContext();

  SystemDSContext(const SystemDSContext&) = delete;
  SystemDSContext& operator=(const SystemDSContext&) = delete;

  /// Read-only view of the configuration fixed at construction.
  const DMLConfig& config() const { return *config_; }

  LineageCache* Cache() { return cache_.get(); }
  /// This context's buffer pool: every matrix its executions store stays
  /// in it for life (see BufferPool).
  BufferPool* Pool() { return pool_.get(); }

  /// Writes any configured trace/metrics outputs now and disables tracing.
  /// Idempotent; also invoked by the destructor.
  Status FlushObservability();

  /// One-shot execution: compile + run, returning requested outputs.
  StatusOr<ScriptResult> Execute(const std::string& script,
                                 const Inputs& inputs, const Outputs& outputs,
                                 const ExecuteOptions& options = {});

  /// Precompiles a script for repeated low-latency execution (JMLC). The
  /// returned PreparedScript co-owns the context's cache/pool/config and
  /// may outlive the context.
  StatusOr<std::unique_ptr<PreparedScript>> Prepare(
      const std::string& script,
      const std::map<std::string, SymbolInfo>& input_infos);

  /// Compiles the script and renders the runtime plan — program blocks and
  /// their instruction sequences (the `explain` facility; SystemDS prints
  /// the analogous HOP/runtime plans).
  StatusOr<std::string> Explain(
      const std::string& script,
      const std::map<std::string, SymbolInfo>& input_infos = {});

 private:
  std::shared_ptr<const DMLConfig> config_;
  std::shared_ptr<BufferPool> pool_;
  std::shared_ptr<LineageCache> cache_;
  std::string trace_path_;
  std::string metrics_path_;
  // True when this context enabled the process-wide FaultInjector (via
  // DMLConfig::faults); the destructor then disables it.
  bool owns_fault_injection_ = false;
};

}  // namespace sysds

#endif  // SYSDS_API_SYSTEMDS_CONTEXT_H_
