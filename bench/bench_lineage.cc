// Ablation A2 (§3.1): lineage tracing overhead and reuse policies.
//  (1) Tracing overhead: the same script with lineage off / trace-only —
//      the paper's design requires tracing to be cheap enough to be always
//      on.
//  (2) Reuse policies on steplm (Example 1): none / full / partial. Full
//      reuse serves exact recomputations; partial reuse additionally
//      serves t(X)%*%X over column-augmented X via compensation plans,
//      which is the dominant redundancy in forward feature selection.
//
// Exits non-zero if a script fails, if full+partial reuse records no
// partial hit, or if steplm's selection S differs between policies.
// `--smoke` runs at the tiny scale, for CI.
#include <cstdio>

#include "api/systemds_context.h"
#include "compiler/compiler.h"
#include "runtime/controlprog/program.h"
#include "bench/bench_common.h"
#include "common/util.h"

using namespace sysds;

namespace {

int g_failures = 0;

// Runs `script` on a fresh context; returns the seconds taken, or -1 after
// reporting the error. `output` names a matrix to return in `*value`.
double RunScript(const std::string& script, ReusePolicy policy, bool tracing,
                 LineageCacheStats* stats_out, const char* output = nullptr,
                 MatrixBlock* value = nullptr) {
  DMLConfig config;
  config.reuse_policy = policy;
  config.lineage_tracing = tracing;
  SystemDSContext ctx(config);
  Timer timer;
  auto r = ctx.Execute(script, Inputs(),
                       output == nullptr ? Outputs::None() : Outputs(output));
  double seconds = timer.ElapsedSeconds();
  Status status = r.status();
  if (status.ok() && output != nullptr) {
    auto m = r->GetMatrix(output);
    status = m.status();
    if (m.ok()) *value = std::move(*m);
  }
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    ++g_failures;
    return -1;
  }
  if (stats_out != nullptr) *stats_out = ctx.Cache()->Stats();
  return seconds;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sysds_bench;
  ApplySmokeFlag(argc, argv);
  Scale scale = GetScale();

  // (1) Tracing overhead on an iteration-heavy script.
  std::string loop_script =
      "X = rand(rows=" + std::to_string(scale.rows / 4) +
      ", cols=" + std::to_string(scale.cols) + ", seed=1)\n"
      "s = 0\n"
      "for (i in 1:50) {\n"
      "  Y = X * (i * 0.1) + i\n"
      "  s = s + sum(Y)\n"
      "}\n";
  double off = RunScript(loop_script, ReusePolicy::kNone, false, nullptr);
  double trace = RunScript(loop_script, ReusePolicy::kNone, true, nullptr);
  std::printf("# A2.1 lineage tracing overhead (50-iteration loop)\n");
  std::printf("%-28s%14.4f s\n", "lineage off", off);
  std::printf("%-28s%14.4f s\n", "lineage trace-only", trace);
  std::printf("%-28s%14.2f %%\n", "overhead",
              off > 0 ? (trace / off - 1.0) * 100.0 : 0.0);

  // (2) Reuse policies on steplm.
  std::string steplm_script =
      "X = rand(rows=" + std::to_string(scale.rows / 2) +
      ", cols=16, seed=2)\n"
      "y = 3*X[,2] - 2*X[,5] + 0.5*X[,9] + 0.1*X[,12]\n"
      "[B, S] = steplm(X, y, 0, 0.0001)\n";
  std::printf("\n# A2.2 reuse policies on steplm (forward selection)\n");
  std::printf("%-28s%14s%12s%12s\n", "policy", "seconds", "full_hits",
              "partial");
  LineageCacheStats stats;
  MatrixBlock s_none, s_full, s_partial;
  double none = RunScript(steplm_script, ReusePolicy::kNone, false, &stats,
                          "S", &s_none);
  std::printf("%-28s%14.4f%12s%12s\n", "none", none, "-", "-");
  double full = RunScript(steplm_script, ReusePolicy::kFull, true, &stats,
                          "S", &s_full);
  std::printf("%-28s%14.4f%12lld%12lld\n", "full", full,
              static_cast<long long>(stats.full_hits),
              static_cast<long long>(stats.partial_hits));
  double partial = RunScript(steplm_script, ReusePolicy::kPartial, true,
                             &stats, "S", &s_partial);
  std::printf("%-28s%14.4f%12lld%12lld\n", "full+partial", partial,
              static_cast<long long>(stats.full_hits),
              static_cast<long long>(stats.partial_hits));
  if (partial >= 0 && stats.partial_hits == 0) {
    std::fprintf(stderr, "error: full+partial reuse recorded no partial "
                         "hit\n");
    ++g_failures;
  }
  if (none >= 0 && full >= 0 && partial >= 0 &&
      (!s_full.EqualsApprox(s_none, 0) ||
       !s_partial.EqualsApprox(s_none, 0))) {
    std::fprintf(stderr, "error: steplm's S differs between policies\n");
    ++g_failures;
  }

  // (3) Loop deduplication: trace size with and without dedup.
  {
    std::string script =
        "X = rand(rows=100, cols=8, seed=9)\n"
        "acc = matrix(0, 8, 8)\n"
        "for (i in 1:200) {\n"
        "  Y = t(X) %*% X\n"
        "  acc = acc + Y * i\n"
        "}\n";
    auto trace_size = [&](bool dedup) -> int64_t {
      DMLConfig config;
      config.lineage_tracing = true;
      config.lineage_dedup = dedup;
      auto prog = CompileDML(script, config, {});
      Status status = prog.status();
      LineageItemPtr item;
      if (status.ok()) {
        ExecutionContext ec(prog->get(), &config);
        status = (*prog)->Execute(&ec);
        item = ec.Lineage()->GetOrNull("acc");
      }
      if (!status.ok() || item == nullptr) {
        std::fprintf(stderr, "error: dedup trace: %s\n",
                     status.ToString().c_str());
        ++g_failures;
        return int64_t{-1};
      }
      return item->NodeCount();
    };
    std::printf("\n# A2.3 loop deduplication (200-iteration loop)\n");
    std::printf("%-28s%14lld nodes\n", "full trace",
                static_cast<long long>(trace_size(false)));
    std::printf("%-28s%14lld nodes\n", "deduplicated trace",
                static_cast<long long>(trace_size(true)));
  }
  return g_failures == 0 ? 0 : 1;
}
