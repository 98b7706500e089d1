// Command-line DML runner (the `java -jar systemds` equivalent):
//   dml_runner script.dml [-stats] [-lineage] [-reuse full|partial]
//              [-explain] [-threads N] [--trace out.json]
//              [--metrics out.json] [--chaos-seed N] [--no-fusion]
//              [--compress]
// Executes the script and prints script output; with -stats, prints the
// heavy-hitter instruction profile afterwards. -threads N caps how many
// threads run one parallel loop of a kernel, transform or read (default:
// SYSDS_NUM_THREADS, else the hardware concurrency). --trace records spans from
// every runtime subsystem and writes Chrome trace-event JSON (open in
// chrome://tracing or https://ui.perfetto.dev); --metrics dumps the metrics
// registry (counters/gauges/histograms) as JSON. --chaos-seed N runs the
// script under deterministic fault injection (FaultProfile::Standard()
// with seed N); combine with --metrics to inspect the fault.* counters.
// --no-fusion disables the operator-fusion planner (results are identical;
// use it to isolate fusion when debugging or benchmarking — with fusion on,
// --metrics reports fusion.regions and fusion.intermediates_elided).
// --compress enables workload-aware compressed linear algebra: loops over
// large read-only matrices run on compressed column groups (results are
// identical; --metrics reports the compress.* counters).
// --checkpoint-dir DIR snapshots loop-carried variables of outermost loops
// into crash-safe checkpoint files every --checkpoint-interval iterations
// (default 1; <= 0 selects the adaptive cost gate). After a crash, rerun
// the same command with --resume to restart from the last committed
// checkpoint instead of iteration 0 (--metrics reports recovery.*).
// --mem-limit BYTES caps the buffer pool: matrix data beyond the limit is
// transparently spilled to temp files and restored on access (results are
// identical at any limit; --metrics reports the bufferpool.* counters).
// --no-prefetch disables the pool's loop-hint prefetcher for debugging or
// benchmarking stalls.

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "api/systemds_context.h"
#include "obs/metrics.h"

int main(int argc, char** argv) {
  using namespace sysds;
  if (argc < 2) {
    std::cerr << "usage: " << argv[0]
              << " script.dml [-stats] [-lineage] [-reuse full|partial]"
                 " [-threads N] [--trace out.json] [--metrics out.json]"
                 " [--chaos-seed N] [--no-fusion] [--compress]"
                 " [--transform-compressed]"
                 " [--checkpoint-dir DIR] [--checkpoint-interval N]"
                 " [--resume] [--mem-limit BYTES] [--no-prefetch]\n";
    return 2;
  }

  DMLConfig config;
  std::string path;
  std::string trace_path;
  std::string metrics_path;
  bool explain = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "-explain") {
      explain = true;
    } else if (arg == "-stats") {
      config.statistics = true;
    } else if (arg == "-lineage") {
      config.lineage_tracing = true;
    } else if (arg == "-reuse" && i + 1 < argc) {
      std::string policy = argv[++i];
      config.reuse_policy = policy == "partial" ? ReusePolicy::kPartial
                                                : ReusePolicy::kFull;
    } else if (arg == "-threads" && i + 1 < argc) {
      config.num_threads = std::atoi(argv[++i]);
    } else if ((arg == "--trace" || arg == "-trace") && i + 1 < argc) {
      trace_path = argv[++i];
    } else if ((arg == "--metrics" || arg == "-metrics") && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (arg == "--no-fusion" || arg == "-no-fusion") {
      config.fusion_enabled = false;
    } else if (arg == "--compress" || arg == "-compress") {
      config.compression_enabled = true;
    } else if (arg == "--transform-compressed" ||
               arg == "-transform-compressed") {
      config.transform_output = TransformOutputFormat::kCompressed;
    } else if ((arg == "--chaos-seed" || arg == "-chaos-seed") &&
               i + 1 < argc) {
      config.faults.enabled = true;
      config.faults.seed = static_cast<uint64_t>(std::atoll(argv[++i]));
      config.faults.profile = FaultProfile::Standard();
    } else if ((arg == "--checkpoint-dir" || arg == "-checkpoint-dir") &&
               i + 1 < argc) {
      config.checkpoint_dir = argv[++i];
    } else if ((arg == "--checkpoint-interval" ||
                arg == "-checkpoint-interval") &&
               i + 1 < argc) {
      config.checkpoint_interval = std::atoll(argv[++i]);
    } else if (arg == "--resume" || arg == "-resume") {
      config.checkpoint_resume = true;
    } else if ((arg == "--mem-limit" || arg == "-mem-limit") && i + 1 < argc) {
      config.buffer_pool_limit = std::atoll(argv[++i]);
    } else if (arg == "--no-prefetch" || arg == "-no-prefetch") {
      config.buffer_pool_prefetch = false;
    } else if (arg == "-reuse" || arg == "-threads" || arg == "--trace" ||
               arg == "-trace" || arg == "--metrics" || arg == "-metrics" ||
               arg == "--chaos-seed" || arg == "-chaos-seed" ||
               arg == "--checkpoint-dir" || arg == "-checkpoint-dir" ||
               arg == "--checkpoint-interval" || arg == "-checkpoint-interval" ||
               arg == "--mem-limit" || arg == "-mem-limit") {
      std::cerr << arg << " requires a value\n";
      return 2;
    } else if (!arg.empty() && arg[0] != '-') {
      path = arg;
    } else {
      std::cerr << "unknown option: " << arg << "\n";
      return 2;
    }
  }
  if (path.empty()) {
    std::cerr << "no script given\n";
    return 2;
  }

  std::ifstream in(path);
  if (!in) {
    std::cerr << "cannot open " << path << "\n";
    return 1;
  }
  std::stringstream buf;
  buf << in.rdbuf();

  SystemDSContext::Builder builder;
  builder.WithConfig(config);
  if (!trace_path.empty()) builder.EnableTracing(trace_path);
  if (!metrics_path.empty()) builder.EnableMetricsExport(metrics_path);
  auto ctx = builder.Build();
  if (explain) {
    auto plan = ctx->Explain(buf.str());
    if (!plan.ok()) {
      std::cerr << "error: " << plan.status() << "\n";
      return 1;
    }
    std::cout << *plan;
  }
  auto result = ctx->Execute(buf.str(), Inputs(), Outputs::None());
  if (!result.ok()) {
    std::cerr << "error: " << result.status() << "\n";
    return 1;
  }
  std::cout << result->Output();
  if (config.statistics) {
    std::cout << "\n" << obs::MetricsRegistry::Get().Report();
  }
  Status flush = ctx->FlushObservability();
  if (!flush.ok()) {
    std::cerr << "error: " << flush << "\n";
    return 1;
  }
  return 0;
}
