// prep_train: data preparation feeding training (paper §3.2). A CSV in the
// shape of click logs is read as a frame, encoded with transformencode
// (recode, dummycode, mean imputation), and fed to 20 iterations of lmCG.
// The buffer pool is limited to about a third of the working set, so this
// is the workload where io, the transform encoders and buffer-pool
// eviction/restore all do real work.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>

#include "io/io.h"
#include "runtime/frame/transform.h"
#include "workloads.h"

namespace e2ebench {

namespace {

constexpr int64_t kRows = 200000;
// Cardinalities of the categorical columns c1..c8; c1..c6 are
// dummy-coded, c7 and c8 only recoded.
constexpr int64_t kCardinality[] = {3, 5, 8, 13, 21, 34, 1000, 5000};
constexpr int kCategorical = 8;
constexpr int kDummycoded = 6;
constexpr double kMissingFrac = 0.01;
constexpr int64_t kPoolLimitBytes = 48LL << 20;
constexpr int kProbeRepeats = 2;

const char* kSpec =
    "{\"recode\":[\"c1\",\"c2\",\"c3\",\"c4\",\"c5\",\"c6\",\"c7\",\"c8\"],"
    "\"dummycode\":[\"c1\",\"c2\",\"c3\",\"c4\",\"c5\",\"c6\"],"
    "\"impute\":[{\"name\":\"num\",\"method\":\"mean\"}]}";

struct PrepData {
  std::string csv_path;
  int64_t expected_width = 0;
  int64_t expected_nnz = 0;
  double file_mb = 0;
};

// $PATH and $SPEC are substituted at set-up.
const char* kScript = R"dml(
F = read("$PATH", data_type="frame", format="csv", header=TRUE)
[Xall, M] = transformencode(target=F, spec="$SPEC")
width = ncol(Xall)
nnz = sum(Xall != 0)
X = Xall[, 1:(width - 1)]
y = Xall[, width]
B = lmCG(X, y, 0, 0.001, 1e-12, 20)
r = y - X %*% B
res = sqrt(sum(r^2))
ynorm = sqrt(sum(y^2))
)dml";

std::string Substitute(std::string text, const std::string& key,
                       const std::string& value) {
  size_t pos = text.find(key);
  if (pos != std::string::npos) text.replace(pos, key.size(), value);
  return text;
}

std::string EscapeDmlString(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

std::unique_ptr<ScriptWorkload> SetupPrepTrain(const RunArgs& args) {
  auto data = std::make_shared<PrepData>();
  data->csv_path =
      (std::filesystem::path(args.data_dir) / "prep_train.csv").string();
  Rng rng(StreamSeed(args.seed, 3));
  std::vector<std::set<int64_t>> seen(kCategorical);
  {
    std::ofstream f(data->csv_path, std::ios::trunc);
    f << "c1,c2,c3,c4,c5,c6,c7,c8,num,label\n";
    char buf[64];
    std::string line;
    for (int64_t r = 0; r < kRows; ++r) {
      line.clear();
      double label = 10.0;
      for (int c = 0; c < kCategorical; ++c) {
        int64_t v = static_cast<int64_t>(rng.Below(kCardinality[c]));
        seen[c].insert(v);
        std::snprintf(buf, sizeof(buf), "v%lld,", static_cast<long long>(v));
        line += buf;
        label += 0.1 * static_cast<double>((v * (c + 3)) % 7);
      }
      // Numeric feature in [1, 100), missing (empty) at kMissingFrac.
      double num = 1.0 + 99.0 * rng.Uniform();
      if (rng.Uniform() >= kMissingFrac) {
        std::snprintf(buf, sizeof(buf), "%.2f", num);
        line += buf;
        label += 0.05 * num;
      }
      // The label stays positive, so it is never a zero cell.
      std::snprintf(buf, sizeof(buf), ",%.3f\n", label + 0.5 * rng.Uniform());
      line += buf;
      f << line;
    }
    if (!f) data->csv_path.clear();
  }
  // Encoded width: one column per distinct token of each dummy-coded
  // column, one per recoded-only column, plus num and label. Every row has
  // one 1 per dummy-coded column and non-zero codes/values elsewhere.
  int64_t width = 0;
  for (int c = 0; c < kCategorical; ++c) {
    width += c < kDummycoded ? static_cast<int64_t>(seen[c].size()) : 1;
  }
  width += 2;
  data->expected_width = width;
  data->expected_nnz = kRows * (kCategorical + 2);
  std::error_code ec;
  data->file_mb =
      static_cast<double>(std::filesystem::file_size(data->csv_path, ec)) /
      1e6;

  auto out = std::make_unique<ScriptWorkload>();
  out->script = Substitute(
      Substitute(kScript, "$PATH", EscapeDmlString(data->csv_path)), "$SPEC",
      EscapeDmlString(kSpec));
  out->outputs = {"width", "nnz", "res", "ynorm"};
  const int threads = sysds::DefaultParallelism();
  out->make_context = [threads] {
    return sysds::SystemDSContext::Builder()
        .NumThreads(threads)
        .BufferPoolLimit(kPoolLimitBytes)
        .Build();
  };
  out->make_inputs = [] { return sysds::Inputs(); };
  out->check = [data](const sysds::ScriptResult& r) -> std::string {
    auto width = r.GetDouble("width");
    auto nnz = r.GetDouble("nnz");
    auto res = r.GetDouble("res");
    auto ynorm = r.GetDouble("ynorm");
    if (!width.ok() || !nnz.ok() || !res.ok() || !ynorm.ok()) {
      return "prep_train: missing outputs";
    }
    if (*width != static_cast<double>(data->expected_width)) {
      return "prep_train: encoded width " + std::to_string(*width) +
             " != expected " + std::to_string(data->expected_width);
    }
    if (*nnz != static_cast<double>(data->expected_nnz)) {
      return "prep_train: encoded nnz " + std::to_string(*nnz) +
             " != expected " + std::to_string(data->expected_nnz);
    }
    // CG from B = 0 must reduce the residual below ||y||.
    if (!std::isfinite(*res) || !(*res < *ynorm)) {
      return "prep_train: lmCG residual did not decrease";
    }
    return "";
  };
  out->probe_layers = [data, threads](Report& report) {
    sysds::FormatDescriptor csv =
        sysds::FormatDescriptor::Csv(',', /*header=*/true, threads);
    std::vector<double> read_ms, fit_ms, apply_ms;
    for (int i = 0; i < kProbeRepeats; ++i) {
      report.Attempt();
      double t0 = NowSeconds();
      auto frame = sysds::io::ReadFrame(data->csv_path, csv);
      read_ms.push_back((NowSeconds() - t0) * 1e3);
      if (!frame.ok()) {
        report.Fail("read frame: " + frame.status().ToString());
        return;
      }
      auto spec = sysds::ParseTransformSpec(kSpec, *frame);
      if (!spec.ok()) {
        report.Fail("transform spec: " + spec.status().ToString());
        return;
      }
      t0 = NowSeconds();
      auto enc = sysds::MultiColumnEncoder::Fit(*frame, *spec, threads);
      fit_ms.push_back((NowSeconds() - t0) * 1e3);
      if (!enc.ok()) {
        report.Fail("transform fit: " + enc.status().ToString());
        return;
      }
      sysds::EncodeOptions opts;
      opts.num_threads = threads;
      t0 = NowSeconds();
      auto encoded = enc->Apply(*frame, opts);
      apply_ms.push_back((NowSeconds() - t0) * 1e3);
      if (!encoded.ok()) {
        report.Fail("transform apply: " + encoded.status().ToString());
        return;
      }
      if (encoded->Cols() != data->expected_width) {
        report.Fail("transform apply: wrong encoded width");
      }
    }
    report.Set("io.csv_read_ms", Median(read_ms));
    report.Set("io.csv_mb_per_s", data->file_mb / (Median(read_ms) / 1e3));
    report.Set("transform.fit_ms", Median(fit_ms));
    report.Set("transform.apply_ms", Median(apply_ms));
  };
  return out;
}

}  // namespace e2ebench
