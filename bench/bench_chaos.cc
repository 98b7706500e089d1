// Chaos-mode cost model: (1) the price of leaving the fault-injection
// hooks compiled into release builds when the injector is disabled — the
// target is <1% of federated op latency; (2) recovery latency as a
// function of the injected message-drop rate for a federated matrix-vector
// workload (retries + exponential backoff are the dominant term).

#include <cstdio>

#include "bench/bench_common.h"
#include "common/faults.h"
#include "common/util.h"
#include "fed/federated.h"
#include "obs/metrics.h"
#include "runtime/matrix/lib_datagen.h"

using namespace sysds;

namespace {

FaultConfig DropConfig(double drop_prob) {
  FaultConfig c;
  c.enabled = true;
  c.seed = 1;
  c.profile.drop_prob = drop_prob;
  return c;
}

}  // namespace

int main() {
  using namespace sysds_bench;
  Scale scale = GetScale();
  int64_t rows = scale.rows, cols = std::min<int64_t>(scale.cols, 64);
  const int kSites = 4;
  const int kReps = 20;

  auto x = RandMatrix(rows, cols, -1, 1, 1.0, 7, RandPdf::kUniform, 1);
  auto v = RandMatrix(cols, 1, -1, 1, 1.0, 8, RandPdf::kUniform, 1);
  FederatedRegistry registry(kSites);
  auto fx = FederatedMatrix::Distribute(&registry, *x, "X");
  if (!fx.ok()) {
    std::fprintf(stderr, "distribute failed: %s\n",
                 fx.status().ToString().c_str());
    return 1;
  }

  // --- Part 1: disabled-hook overhead ------------------------------------
  // Baseline federated matvec with the injector disabled.
  FaultInjector::Get().Disable();
  Timer t0;
  for (int r = 0; r < kReps; ++r) {
    if (!fx->MatVec(*v).ok()) return 1;
  }
  double op_ns = t0.ElapsedSeconds() * 1e9 / kReps;

  // Cost of one disabled hook (relaxed atomic load + branch).
  const int64_t kHookCalls = 10 * 1000 * 1000;
  Timer t1;
  int64_t fired = 0;
  for (int64_t i = 0; i < kHookCalls; ++i) {
    fired += FaultInjector::Get().ShouldInject(
                 FaultLayer::kFederated, static_cast<int>(i & 3),
                 FaultKind::kMessageDrop)
                 ? 1
                 : 0;
  }
  double hook_ns = t1.ElapsedSeconds() * 1e9 / static_cast<double>(kHookCalls);
  if (fired != 0) return 1;  // disabled hooks must never fire

  // Hooks evaluated per op, measured with a zero-probability profile (the
  // injector counts decisions but never injects).
  double hooks_per_op;
  {
    ScopedFaultInjection chaos(DropConfig(0.0));
    int64_t before = FaultInjector::Get().Decisions();
    for (int r = 0; r < kReps; ++r) {
      if (!fx->MatVec(*v).ok()) return 1;
    }
    hooks_per_op = static_cast<double>(FaultInjector::Get().Decisions() -
                                       before) /
                   kReps;
  }
  double overhead_pct = 100.0 * hook_ns * hooks_per_op / op_ns;

  std::printf("# chaos hooks, disabled (%lld x %lld, %d sites)\n",
              static_cast<long long>(rows), static_cast<long long>(cols),
              kSites);
  std::printf("%-22s%14.2f\n", "matvec_us", op_ns / 1e3);
  std::printf("%-22s%14.3f\n", "hook_ns", hook_ns);
  std::printf("%-22s%14.1f\n", "hooks_per_matvec", hooks_per_op);
  std::printf("%-22s%14.4f  (target < 1)\n", "overhead_pct", overhead_pct);

  // --- Part 2: recovery latency vs fault rate ----------------------------
  std::printf("\n# federated matvec recovery latency vs message-drop rate\n");
  std::printf("%-12s%14s%14s%14s\n", "drop_rate", "matvec_ms", "retries",
              "timeouts");
  for (double rate : {0.0, 0.01, 0.05, 0.10}) {
    ScopedFaultInjection chaos(DropConfig(rate));
    obs::MetricsDiff diff;
    Timer t;
    for (int r = 0; r < kReps; ++r) {
      if (!fx->MatVec(*v).ok()) {
        std::fprintf(stderr, "matvec failed at drop rate %g\n", rate);
        return 1;
      }
    }
    double ms = t.ElapsedSeconds() * 1e3 / kReps;
    obs::MetricsSnapshot d = diff.Delta();
    std::printf("%-12g%14.3f%14lld%14lld\n", rate, ms,
                static_cast<long long>(d.Counter("fault.fed.retries")),
                static_cast<long long>(d.Counter("fault.fed.timeouts")));
  }
  FaultInjector::Get().Disable();
  return 0;
}
