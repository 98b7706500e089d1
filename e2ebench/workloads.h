// The benchmark's workloads. Each takes the run's arguments and returns a
// filled Report; the script workloads share one runner.
#ifndef E2EBENCH_WORKLOADS_H_
#define E2EBENCH_WORKLOADS_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "api/systemds_context.h"
#include "bench_util.h"
#include "common/thread_pool.h"

// Kernel threads come from sysds::DefaultParallelism(), which honors
// SYSDS_NUM_THREADS (run.py caps it at 4).

namespace e2ebench {

/// A DML script workload after set-up: the script, how to build a fresh
/// context and the input bindings for one execution, and the checks.
struct ScriptWorkload {
  std::string script;
  /// Input shapes for SystemDSContext::Prepare (compile-time timing).
  std::map<std::string, sysds::SymbolInfo> input_infos;
  std::vector<std::string> outputs;
  std::function<std::unique_ptr<sysds::SystemDSContext>()> make_context;
  /// Built after the context, so bound matrices register with its pool.
  std::function<sysds::Inputs()> make_inputs;
  /// Empty when the result is correct, else what is wrong.
  std::function<std::string(const sysds::ScriptResult&)> check;
  /// Traced run only: times calls into single layers directly and records
  /// the per-layer metrics they give.
  std::function<void(Report&)> probe_layers;
};

using ScriptSetup = std::function<std::unique_ptr<ScriptWorkload>(
    const RunArgs&)>;

/// Drives a script workload: set-up (several times, median reported),
/// then timed executions on fresh contexts for args.seconds; with
/// args.trace, alternating untraced and traced executions instead.
/// Results are added to `report`.
void RunScriptWorkload(const RunArgs& args, const ScriptSetup& setup,
                       Report& report);

std::unique_ptr<ScriptWorkload> SetupLmdsSweep(const RunArgs& args);
std::unique_ptr<ScriptWorkload> SetupSteplm(const RunArgs& args);
std::unique_ptr<ScriptWorkload> SetupPrepTrain(const RunArgs& args);

/// Open-loop scoring through serve::ScoringService.
void RunScoring(const RunArgs& args, Report& report);

}  // namespace e2ebench

#endif  // E2EBENCH_WORKLOADS_H_
