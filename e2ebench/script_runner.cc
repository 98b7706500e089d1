#include <cstdio>

#include "layer_probe.h"
#include "obs/trace.h"
#include "workloads.h"

namespace e2ebench {

namespace {

constexpr int kPrepareRepeats = 3;
constexpr size_t kMinSamples = 3;
constexpr size_t kMinTracedPairs = 2;
constexpr size_t kMaxSamples = 500;

struct Execution {
  double ms = 0;
  sysds::LineageCacheStats lineage;
};

// One execution on a freshly built context, so no lineage-cache or
// buffer-pool state carries over. Inputs and results are released before
// the context that owns their pool.
Execution ExecuteOnce(const ScriptWorkload& w, Report& report) {
  std::unique_ptr<sysds::SystemDSContext> ctx = w.make_context();
  Execution e;
  {
    sysds::Inputs inputs = w.make_inputs();
    report.Attempt();
    double t0 = NowSeconds();
    sysds::StatusOr<sysds::ScriptResult> r = [&] {
      SYSDS_SPAN("bench", "execute");
      return ctx->Execute(w.script, inputs,
                          sysds::Outputs::FromVector(w.outputs));
    }();
    e.ms = (NowSeconds() - t0) * 1e3;
    if (!r.ok()) {
      report.Fail("execute: " + r.status().ToString());
    } else if (std::string why = w.check(*r); !why.empty()) {
      report.Fail(why);
    }
  }
  e.lineage = ctx->Cache()->Stats();
  return e;
}

// Keeps sampling until `seconds` have passed and at least kMinSamples
// exist; a sample is not started when the previous one says it would end
// well past the window.
bool MoreSamples(size_t n, double start, double seconds, double last_ms,
                 size_t min_samples = kMinSamples) {
  if (n < min_samples) return true;
  if (n >= kMaxSamples) return false;
  double elapsed = NowSeconds() - start;
  return elapsed + 0.5 * last_ms / 1e3 < seconds;
}

void RunUntraced(const RunArgs& args, const ScriptWorkload& w,
                 Report& report) {
  ExecuteOnce(w, report);  // warm-up: first-touch of pools and allocator
  std::vector<double> ms;
  double start = NowSeconds();
  while (MoreSamples(ms.size(), start, args.seconds,
                     ms.empty() ? 0 : ms.back())) {
    ms.push_back(ExecuteOnce(w, report).ms);
  }
  report.Set("p50_ms", Quantile(ms, 0.5));
  report.Set("p90_ms", Quantile(ms, 0.9));
  std::printf("# %zu timed executions: p50 %.1f ms, p90 %.1f ms, min %.1f ms\n",
              ms.size(), Quantile(ms, 0.5), Quantile(ms, 0.9),
              Quantile(ms, 0.0));
}

void RunTraced(const RunArgs& args, const ScriptWorkload& w, Report& report) {
  std::vector<double> prepare_ms;
  for (int i = 0; i < kPrepareRepeats; ++i) {
    std::unique_ptr<sysds::SystemDSContext> ctx = w.make_context();
    double t0 = NowSeconds();
    auto p = ctx->Prepare(w.script, w.input_infos);
    prepare_ms.push_back((NowSeconds() - t0) * 1e3);
    if (!p.ok()) report.Fail("prepare: " + p.status().ToString());
  }
  report.Set("compiler.prepare_ms", Median(prepare_ms));
  if (w.probe_layers) w.probe_layers(report);

  ExecuteOnce(w, report);  // warm-up
  std::vector<double> plain_ms, traced_ms;
  std::vector<std::map<std::string, double>> layers;
  double start = NowSeconds();
  while (MoreSamples(traced_ms.size(), start, args.seconds,
                     traced_ms.empty() ? 0 : plain_ms.back() + traced_ms.back(),
                     kMinTracedPairs)) {
    // Alternate which side of the pair runs first.
    bool traced_first = traced_ms.size() % 2 == 1;
    if (!traced_first) plain_ms.push_back(ExecuteOnce(w, report).ms);
    TraceWindow window;
    Execution e = ExecuteOnce(w, report);
    std::map<std::string, double> m = window.Stop();
    for (const auto& [k, v] : MetricsFromLineage(e.lineage)) m[k] = v;
    m["dist.share"] = e.ms > 0 ? m["dist.ms"] / e.ms : 0.0;
    layers.push_back(std::move(m));
    traced_ms.push_back(e.ms);
    if (traced_first) plain_ms.push_back(ExecuteOnce(w, report).ms);
  }
  for (const auto& [k, v] : MedianPerKey(layers)) report.Set(k, v);
  double plain = Median(plain_ms);
  double traced = Median(traced_ms);
  report.Set("trace.overhead_frac", plain > 0 ? (traced - plain) / plain : 0);
  std::printf("# %zu pairs: untraced p50 %.1f ms, traced p50 %.1f ms\n",
              traced_ms.size(), plain, traced);
}

}  // namespace

void RunScriptWorkload(const RunArgs& args, const ScriptSetup& setup,
                       Report& report) {
  std::unique_ptr<ScriptWorkload> w;
  report.Set("setup_s", MedianSetupSeconds([&] { w.reset(); },
                                           [&] {
                                             w = setup(args);
                                             return true;
                                           }));
  if (args.trace) {
    RunTraced(args, *w, report);
  } else {
    RunUntraced(args, *w, report);
  }
  report.Set("peak_rss_mb", PeakRssMb());
}

}  // namespace e2ebench
