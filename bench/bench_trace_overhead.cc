// Observability overhead: kernel/interpreter throughput with the tracer
// compiled in but disabled (the always-on production configuration) versus
// enabled, against the pre-obs baseline shape (statistics off).
//
// The acceptance bar is < 2% slowdown with tracing compiled in but
// disabled: an inactive ScopedSpan must cost one relaxed atomic load.

#include <cstdio>
#include <string>

#include "api/systemds_context.h"
#include "bench/bench_common.h"
#include "common/util.h"
#include "obs/trace.h"

using namespace sysds;

namespace {

// Instruction-dense loop: many small CP instructions so per-instruction
// span overhead dominates over kernel time.
std::string MakeScript(int64_t rows, int64_t cols) {
  return "X = rand(rows=" + std::to_string(rows) +
         ", cols=" + std::to_string(cols) +
         ", seed=1)\n"
         "s = 0\n"
         "for (i in 1:200) {\n"
         "  Y = X * 2 + i\n"
         "  s = s + sum(Y)\n"
         "}\n";
}

double RunOnce(const std::string& script) {
  SystemDSContext ctx;
  Timer timer;
  auto r = ctx.Execute(script, Inputs(), Outputs::None());
  if (!r.ok()) {
    std::fprintf(stderr, "error: %s\n", r.status().ToString().c_str());
    return -1;
  }
  return timer.ElapsedSeconds();
}

double Best(const std::string& script, int reps) {
  double best = -1;
  for (int i = 0; i < reps; ++i) {
    double t = RunOnce(script);
    if (t >= 0 && (best < 0 || t < best)) best = t;
  }
  return best;
}

// Micro cost of one disabled/enabled span, in nanoseconds.
double SpanCostNanos(int64_t iters) {
  Timer timer;
  for (int64_t i = 0; i < iters; ++i) {
    obs::ScopedSpan span("bench", "noop");
  }
  return timer.ElapsedSeconds() * 1e9 / static_cast<double>(iters);
}

}  // namespace

int main() {
  using namespace sysds_bench;
  Scale scale = GetScale();
  int reps = scale.repetitions + 2;
  std::string script = MakeScript(scale.rows / 8, scale.cols);

  obs::Tracer::Get().Disable();
  double disabled = Best(script, reps);
  obs::Tracer::Get().Enable();
  double enabled = Best(script, reps);
  obs::Tracer::Get().Disable();
  obs::Tracer::Get().Clear();

  std::printf("# trace overhead (200-iteration instruction-dense loop)\n");
  std::printf("%-32s%14.4f s\n", "tracing compiled in, disabled", disabled);
  std::printf("%-32s%14.4f s\n", "tracing enabled", enabled);
  std::printf("%-32s%14.2f %%\n", "enabled overhead",
              disabled > 0 ? (enabled / disabled - 1.0) * 100.0 : 0.0);

  int64_t iters = 10 * 1000 * 1000;
  double cost_disabled = SpanCostNanos(iters);
  obs::Tracer::Get().Enable();
  double cost_enabled = SpanCostNanos(iters);
  obs::Tracer::Get().Disable();
  obs::Tracer::Get().Clear();
  std::printf("\n# per-span micro cost\n");
  std::printf("%-32s%14.2f ns\n", "disabled span", cost_disabled);
  std::printf("%-32s%14.2f ns\n", "enabled span", cost_enabled);
  return 0;
}
