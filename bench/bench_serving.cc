// Serving benchmark (src/serve/): throughput and latency of the
// ScoringService over a shared PreparedScript.
//  (1) Worker scaling: requests/s and p50/p99 latency vs. worker count.
//      Kernels are pinned to one thread (num_threads=1) so all parallelism
//      comes from service workers; the scaling headroom is therefore
//      bounded by the machine's core count (a 1-core CI box shows ~1x,
//      a multicore server shows near-linear gains until cores saturate).
//  (2) Lineage reuse under serving: the same scoring workload with a
//      shared-weights intermediate (t(W) %*% W), policy none vs. full —
//      reports the reuse hit rate and the resulting speedup (§3.1 applied
//      to the §2.2(1) low-latency deployment path).
//  (3) Micro-batching: single-row requests stacked into one execution.

#include <cstdio>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "api/systemds_context.h"
#include "common/util.h"
#include "obs/metrics.h"
#include "serve/scoring_service.h"

using namespace sysds;
using namespace sysds::serve;

namespace {

constexpr int kFeatures = 256;

struct RunResult {
  double seconds = 0;
  double p50_us = 0;
  double p99_us = 0;
  int64_t completed = 0;
};

std::shared_ptr<const PreparedScript> PrepareModel(SystemDSContext& ctx,
                                                   const std::string& script) {
  SymbolInfo row;
  row.dt = DataType::kMatrix;
  row.dim1 = 1;
  row.dim2 = kFeatures;
  SymbolInfo weights;
  weights.dt = DataType::kMatrix;
  weights.dim1 = kFeatures;
  weights.dim2 = kFeatures;
  auto p = ctx.Prepare(script, {{"X", row}, {"W", weights}});
  if (!p.ok()) {
    std::fprintf(stderr, "prepare error: %s\n",
                 p.status().ToString().c_str());
    return nullptr;
  }
  return std::shared_ptr<const PreparedScript>(std::move(*p));
}

/// Drives `requests` single-row scorings through a service with `workers`
/// workers and returns wall time + latency quantiles.
RunResult DriveService(const std::shared_ptr<const PreparedScript>& script,
                       int workers, int requests, bool micro_batching,
                       const DataPtr& weights,
                       const std::vector<DataPtr>& rows) {
  ServiceOptions opts;
  opts.num_workers = workers;
  opts.max_queue_depth = static_cast<size_t>(requests) + 16;
  ScoringService svc(opts);
  ModelOptions mopts;
  if (micro_batching) {
    mopts.micro_batching = true;
    mopts.batch_input = "X";
    mopts.max_batch_size = 16;
  }
  Status reg = svc.RegisterModel("m", script, {"yhat"}, mopts);
  if (!reg.ok()) {
    std::fprintf(stderr, "register error: %s\n", reg.ToString().c_str());
    return {};
  }

  obs::Histogram* latency =
      obs::MetricsRegistry::Get().GetHistogram("serve.latency_ns");
  latency->Reset();

  Timer timer;
  std::vector<std::future<StatusOr<ScriptResult>>> futures;
  futures.reserve(static_cast<size_t>(requests));
  for (int i = 0; i < requests; ++i) {
    futures.push_back(
        svc.Submit("m", Inputs()
                            .Bind("X", rows[static_cast<size_t>(i) %
                                           rows.size()])
                            .Bind("W", weights)));
  }
  RunResult result;
  for (auto& f : futures) {
    if (f.get().ok()) ++result.completed;
  }
  result.seconds = timer.ElapsedSeconds();
  result.p50_us = static_cast<double>(latency->ApproxQuantile(0.50)) / 1e3;
  result.p99_us = static_cast<double>(latency->ApproxQuantile(0.99)) / 1e3;
  return result;
}

std::vector<DataPtr> MakeRows(int count) {
  std::vector<DataPtr> rows;
  rows.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    MatrixBlock row = MatrixBlock::Dense(1, kFeatures);
    for (int64_t j = 0; j < kFeatures; ++j) {
      row.DenseRow(0)[j] = 0.01 * static_cast<double>(i + j);
    }
    row.MarkNnzDirty();
    rows.push_back(std::make_shared<MatrixObject>(row));
  }
  return rows;
}

}  // namespace

int main() {
  const char* env = std::getenv("SYSDS_BENCH_SCALE");
  std::string scale = env == nullptr ? "small" : env;
  const int requests = scale == "tiny" ? 200 : scale == "paper" ? 20000 : 2000;

  DataPtr weights = std::make_shared<MatrixObject>(
      MatrixBlock::Dense(kFeatures, kFeatures, 0.01));
  std::vector<DataPtr> rows = MakeRows(64);

  // Kernels single-threaded: service workers are the only parallelism.
  // Reuse is off for the scaling and batching sections so every request
  // performs real compute (a warm cache would measure queue overhead
  // only); section (2) measures reuse explicitly.
  auto ctx = SystemDSContext::Builder().NumThreads(1).Build();

  // (1) Worker scaling on a plain scoring model.
  auto plain = PrepareModel(*ctx, "yhat = X %*% W\n");
  if (plain == nullptr) return 1;
  std::printf("# serving throughput vs. workers (%d requests, %dx%d matvec,"
              " %u cores)\n",
              requests, kFeatures, kFeatures,
              std::thread::hardware_concurrency());
  std::printf("%-10s%14s%12s%12s%10s\n", "workers", "req/s", "p50 us",
              "p99 us", "speedup");
  double base = 0;
  for (int workers : {1, 2, 4, 8}) {
    RunResult r = DriveService(plain, workers, requests, false, weights, rows);
    double rps = r.seconds > 0 ? r.completed / r.seconds : 0;
    if (workers == 1) base = rps;
    std::printf("%-10d%14.0f%12.1f%12.1f%9.2fx\n", workers, rps, r.p50_us,
                r.p99_us, base > 0 ? rps / base : 0.0);
  }

  // (2) Lineage reuse: the shared-weights intermediate t(W) %*% W is
  // probed on every request and cached after the first.
  const char* reuse_script = "P = t(W) %*% W\nyhat = X %*% P\n";
  std::printf("\n# lineage reuse under serving (4 workers, %d requests)\n",
              requests);
  std::printf("%-22s%14s%14s%12s\n", "policy", "req/s", "hit rate", "p99 us");
  for (ReusePolicy policy : {ReusePolicy::kNone, ReusePolicy::kFull}) {
    auto rctx = SystemDSContext::Builder()
                    .NumThreads(1)
                    .Reuse(policy)
                    .Build();
    auto model = PrepareModel(*rctx, reuse_script);
    if (model == nullptr) return 1;
    rctx->Cache()->ResetStats();
    RunResult r = DriveService(model, 4, requests, false, weights, rows);
    LineageCacheStats stats = rctx->Cache()->Stats();
    double hit_rate =
        stats.probes > 0
            ? static_cast<double>(stats.full_hits + stats.partial_hits) /
                  static_cast<double>(stats.probes)
            : 0.0;
    std::printf("%-22s%14.0f%13.1f%%%12.1f\n",
                policy == ReusePolicy::kNone ? "none" : "full",
                r.seconds > 0 ? r.completed / r.seconds : 0, hit_rate * 100.0,
                r.p99_us);
  }

  // (3) Micro-batching single-row requests (1 worker isolates the effect
  // of stacking from worker parallelism).
  std::printf("\n# micro-batching (1 worker, %d single-row requests)\n",
              requests);
  std::printf("%-22s%14s%12s\n", "mode", "req/s", "p99 us");
  for (bool batching : {false, true}) {
    RunResult r = DriveService(plain, 1, requests, batching, weights, rows);
    std::printf("%-22s%14.0f%12.1f\n",
                batching ? "micro-batched (<=16)" : "individual",
                r.seconds > 0 ? r.completed / r.seconds : 0, r.p99_us);
  }
  return 0;
}
