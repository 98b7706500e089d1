// Serving benchmark (src/serve/): lineage reuse under serving. The same
// scoring workload with a shared-weights intermediate (t(W) %*% W), policy
// none vs. full, reports requests/s and the reuse hit rate (§3.1 applied to
// the §2.2(1) low-latency deployment path). Latency quantiles of open-loop
// scoring are e2ebench's `scoring` workload; micro-batching is covered by
// tests/serve/scoring_service_test.cc.

#include <cstdio>
#include <cstdlib>
#include <future>
#include <string>
#include <vector>

#include "api/systemds_context.h"
#include "common/util.h"
#include "serve/scoring_service.h"

using namespace sysds;
using namespace sysds::serve;

namespace {

constexpr int kFeatures = 256;

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
/// workers and returns the completed requests per second.
double DriveService(const std::shared_ptr<const PreparedScript>& script,
                    int workers, int requests, const DataPtr& weights,
                    const std::vector<DataPtr>& rows) {
  ServiceOptions opts;
  opts.num_workers = workers;
  opts.max_queue_depth = static_cast<size_t>(requests) + 16;
  ScoringService svc(opts);
  Status reg = svc.RegisterModel("m", script, {"yhat"});
  if (!reg.ok()) {
    std::fprintf(stderr, "register error: %s\n", reg.ToString().c_str());
    return 0;
  }

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
  int64_t completed = 0;
  for (auto& f : futures) {
    if (f.get().ok()) ++completed;
  }
  double seconds = timer.ElapsedSeconds();
  return seconds > 0 ? static_cast<double>(completed) / seconds : 0;
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

  // The shared-weights intermediate t(W) %*% W is probed on every request
  // and cached after the first. Kernels are single-threaded: the service
  // workers are the only parallelism.
  const char* reuse_script = "P = t(W) %*% W\nyhat = X %*% P\n";
  std::printf("# lineage reuse under serving (4 workers, %d requests)\n",
              requests);
  std::printf("%-22s%14s%14s\n", "policy", "req/s", "hit rate");
  for (ReusePolicy policy : {ReusePolicy::kNone, ReusePolicy::kFull}) {
    auto ctx = SystemDSContext::Builder().NumThreads(1).Reuse(policy).Build();
    auto model = PrepareModel(*ctx, reuse_script);
    if (model == nullptr) return 1;
    // The cache's counters only grow: the served run is the difference of
    // the snapshots around it.
    const LineageCacheStats before = ctx->Cache()->Stats();
    double rps = DriveService(model, 4, requests, weights, rows);
    const LineageCacheStats after = ctx->Cache()->Stats();
    const int64_t probes = after.probes - before.probes;
    const int64_t hits = (after.full_hits - before.full_hits) +
                         (after.partial_hits - before.partial_hits);
    double hit_rate = probes > 0 ? static_cast<double>(hits) /
                                       static_cast<double>(probes)
                                 : 0.0;
    std::printf("%-22s%14.0f%13.1f%%\n",
                policy == ReusePolicy::kNone ? "none" : "full", rps,
                hit_rate * 100.0);
  }
  return 0;
}
