// End-to-end benchmark of the SystemDS reproduction.
//
//   e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            --data-dir <dir>
//
// Workloads: lmds_sweep, steplm_reuse, prep_train, scoring (see README.md).
// With --trace 0 the run measures the end-to-end metrics with tracing off;
// with --trace 1 it reports the per-layer metrics from a traced run. The
// last line of stdout is one JSON object with the keys correct, attempted,
// failed and metrics; lines before it start with '#'. Kernels use
// sysds::DefaultParallelism() threads (SYSDS_NUM_THREADS).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <string>

#include "bench_util.h"
#include "common/thread_pool.h"
#include "host.h"
#include "obs/trace.h"
#include "workloads.h"

namespace {

// Ring capacity per tracing thread: holds a whole traced run of every
// workload without wrapping (about 20 MB per thread, traced runs only).
constexpr size_t kTraceEventsPerThread = size_t{1} << 18;

int Usage(const char* msg) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload "
               "lmds_sweep|steplm_reuse|prep_train|scoring --seed N "
               "--seconds S --trace 0|1 --data-dir DIR\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace e2ebench;
  RunArgs args;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      args.workload = val;
    } else if (key == "--seed") {
      args.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(val, nullptr);
    } else if (key == "--trace") {
      args.trace = std::strcmp(val, "0") != 0;
    } else if (key == "--data-dir") {
      args.data_dir = val;
    } else {
      return Usage(("unknown argument " + key).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("arguments come in --key value pairs");
  if (args.data_dir.empty()) return Usage("--data-dir is required");
  using Runner = std::function<void(const RunArgs&, Report&)>;
  const std::map<std::string, Runner> workloads = {
      {"lmds_sweep",
       [](const RunArgs& a, Report& r) {
         RunScriptWorkload(a, SetupLmdsSweep, r);
       }},
      {"steplm_reuse",
       [](const RunArgs& a, Report& r) {
         RunScriptWorkload(a, SetupSteplm, r);
       }},
      {"prep_train",
       [](const RunArgs& a, Report& r) {
         RunScriptWorkload(a, SetupPrepTrain, r);
       }},
      {"scoring", RunScoring},
  };
  auto workload = workloads.find(args.workload);
  if (workload == workloads.end()) {
    return Usage(("unknown workload '" + args.workload + "'").c_str());
  }
  if (!(args.seconds > 0)) return Usage("--seconds must be positive");
  std::error_code ec;
  std::filesystem::create_directories(args.data_dir, ec);
  if (ec) return Usage("cannot create --data-dir");

  Report report;
  if (args.trace) {
    // Pool workers create their trace buffers even with tracing off, so
    // the larger capacity is set only for traced runs: untraced runs keep
    // the tracer's default buffers and their peak_rss_mb stays the
    // program's own.
    sysds::obs::Tracer::Get().SetBufferCapacity(kTraceEventsPerThread);
    HostInfo host = ProbeHost(sysds::DefaultParallelism());
    std::printf("# host: cores=%d isa=%s peak_gflops(%d threads, %d lanes)="
                "%.2f\n",
                host.cores, host.isa.c_str(), host.threads, host.lanes,
                host.peak_gflops);
    report.Set("host.cores", host.cores);
    report.Set("host.peak_gflops", host.peak_gflops);
  }
  workload->second(args, report);
  std::printf("%s\n", report.ToJson(args.trace ? PerLayerMetrics()
                                               : EndToEndMetrics())
                          .c_str());
  return 0;
}
