// steplm_reuse: paper Example 1, stepwise forward feature selection with
// lineage-based partial reuse. Each step scores every unselected feature
// in a parfor (one lmDS per candidate), so interpreter dispatch, parfor
// scheduling and lineage probe/put carry the run, not large kernels.
//
// kSignal features carry signal far above the noise and the rest none. The
// AIC threshold kThreshold lies far above what a pure-noise feature can
// gain (a chi-square(1) draw) and far below what a signal feature gains,
// so every seed selects exactly the kSignal features and then stops: the
// work per run does not depend on the seed. The five planted features,
// whose weights dwarf the others, are always selected first.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "workloads.h"

namespace e2ebench {

namespace {

constexpr int64_t kRows = 20000;
constexpr int64_t kCols = 60;
constexpr int64_t kSignal = 20;
constexpr double kThreshold = 30;
// 1-based, as steplm reports them.
constexpr int64_t kPlanted[] = {2, 5, 9, 11, 17};

const char* kScript = R"dml(
[B, S] = steplm(X, y, 0, 0.001, thr)
)dml";

struct SteplmData {
  sysds::MatrixBlock x;
  sysds::MatrixBlock y;
  // Selection order of the first execution; later ones must repeat it.
  std::vector<double> first_s;
};

}  // namespace

std::unique_ptr<ScriptWorkload> SetupSteplm(const RunArgs& args) {
  auto data = std::make_shared<SteplmData>();
  Rng rng(StreamSeed(args.seed, 2));
  // Planted weights 5.0 .. 3.0; kSignal - 5 other features, chosen by the
  // seed, with weights in [0.2, 1.0).
  std::vector<double> w(kCols, 0.0);
  for (size_t i = 0; i < std::size(kPlanted); ++i) {
    w[kPlanted[i] - 1] = 5.0 - 0.5 * static_cast<double>(i);
  }
  for (int64_t added = std::size(kPlanted); added < kSignal;) {
    int64_t c = static_cast<int64_t>(rng.Below(kCols));
    if (w[c] != 0.0) continue;
    w[c] = 0.2 + 0.8 * rng.Uniform();
    ++added;
  }
  data->x = sysds::MatrixBlock::Dense(kRows, kCols);
  data->y = sysds::MatrixBlock::Dense(kRows, 1);
  double* x = data->x.DenseData();
  double signal2 = 0;
  for (double v : w) signal2 += v * v;
  const double noise_sd = 0.01 * std::sqrt(signal2);
  for (int64_t r = 0; r < kRows; ++r) {
    double acc = noise_sd * rng.Normal();
    for (int64_t c = 0; c < kCols; ++c) {
      double v = rng.Normal();
      x[r * kCols + c] = v;
      acc += v * w[c];
    }
    data->y.DenseData()[r] = acc;
  }
  data->x.MarkNnzDirty();
  data->y.MarkNnzDirty();

  auto out = std::make_unique<ScriptWorkload>();
  out->script = kScript;
  out->input_infos = {
      {"X", {sysds::DataType::kMatrix, sysds::ValueType::kFP64, kRows, kCols,
             kRows * kCols}},
      {"y", {sysds::DataType::kMatrix, sysds::ValueType::kFP64, kRows, 1,
             kRows}},
      {"thr", {sysds::DataType::kScalar, sysds::ValueType::kFP64, 0, 0, 0}}};
  out->outputs = {"B", "S"};
  const int threads = sysds::DefaultParallelism();
  out->make_context = [threads] {
    return sysds::SystemDSContext::Builder()
        .NumThreads(threads)
        .LineageTracing(true)
        .Reuse(sysds::ReusePolicy::kPartial)
        .Build();
  };
  out->make_inputs = [data] {
    return sysds::Inputs()
        .Matrix("X", data->x)
        .Matrix("y", data->y)
        .Scalar("thr", kThreshold);
  };
  out->check = [data](const sysds::ScriptResult& r) -> std::string {
    auto s = r.GetMatrix("S");
    if (!s.ok()) return "steplm: no S: " + s.status().ToString();
    if (s->Rows() != 1 || s->Cols() != kCols) return "steplm: S wrong shape";
    std::vector<double> order(kCols);
    for (int64_t c = 0; c < kCols; ++c) order[c] = s->Get(0, c);
    // Exactly kSignal features are selected, the planted ones first.
    int64_t selected = std::count_if(order.begin(), order.end(),
                                     [](double v) { return v > 0; });
    if (selected != kSignal) {
      return "steplm: selected " + std::to_string(selected) +
             " features, expected " + std::to_string(kSignal);
    }
    std::vector<int64_t> first5;
    for (int64_t c = 0; c < kCols; ++c) {
      if (order[c] >= 1 && order[c] <= 5) first5.push_back(c + 1);
    }
    if (!std::equal(first5.begin(), first5.end(), std::begin(kPlanted),
                    std::end(kPlanted)) ||
        first5.size() != std::size(kPlanted)) {
      return "steplm: first five selected features are not the planted set";
    }
    if (data->first_s.empty()) {
      data->first_s = order;
    } else if (order != data->first_s) {
      return "steplm: selection order differs between executions";
    }
    auto b = r.GetMatrix("B");
    if (!b.ok() || b->Rows() < static_cast<int64_t>(std::size(kPlanted)) + 1) {
      return "steplm: B missing or too short";
    }
    return "";
  };
  return out;
}

}  // namespace e2ebench
