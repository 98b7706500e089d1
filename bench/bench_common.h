#ifndef SYSDS_BENCH_BENCH_COMMON_H_
#define SYSDS_BENCH_BENCH_COMMON_H_

// Shared scaffolding for the figure-regeneration benchmarks. The paper ran
// on a 24-vcore/128GB node with 100K x 1K inputs; the default scale here is
// sized for a small CI machine and preserves the workload *shape* (who
// wins, by what factor, where crossovers fall). Set SYSDS_BENCH_SCALE=paper
// for paper-sized inputs, SYSDS_BENCH_SCALE=tiny for smoke runs.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace sysds_bench {

/// The machine a result was measured on: hardware threads, CPU model and
/// clock (from /proc/cpuinfo where it exists).
inline std::string HostLine() {
  std::string model = "unknown cpu", mhz = "?";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    const size_t colon = line.find(':');
    if (colon == std::string::npos || colon + 2 > line.size()) continue;
    if (line.rfind("model name", 0) == 0) model = line.substr(colon + 2);
    if (line.rfind("cpu MHz", 0) == 0) mhz = line.substr(colon + 2);
    if (model != "unknown cpu" && mhz != "?") break;
  }
  return "cores=" + std::to_string(std::thread::hardware_concurrency()) +
         " cpu=" + model + " mhz=" + mhz;
}

struct Scale {
  int64_t rows;
  int64_t cols;
  std::vector<int> model_counts;       // k grid (Fig 5a-c x-axis)
  std::vector<int64_t> row_counts;     // nrow grid (Fig 5d x-axis)
  int repetitions;
};

/// CI smoke support: `--smoke` on a benchmark's command line rewrites
/// SYSDS_BENCH_SCALE to "tiny" before GetScale() is consulted, so the same
/// binaries double as a seconds-long pipeline smoke test (the JSON result
/// file is still written and schema-checked). Returns true when found.
inline bool ApplySmokeFlag(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") {
      setenv("SYSDS_BENCH_SCALE", "tiny", 1);
      return true;
    }
  }
  return false;
}

inline Scale GetScale() {
  const char* env = std::getenv("SYSDS_BENCH_SCALE");
  std::string s = env == nullptr ? "small" : env;
  if (s == "paper") {
    return {100000, 1000, {1, 10, 20, 30, 40, 50, 60, 70},
            {33000, 100000, 330000, 1000000, 3300000}, 3};
  }
  if (s == "tiny") {
    return {1000, 40, {1, 4, 8}, {500, 1000, 2000}, 1};
  }
  // small (default)
  return {8000, 100, {1, 4, 8, 12, 16, 20, 24},
          {2000, 4000, 8000, 16000, 32000}, 1};
}

inline void PrintHeader(const char* title, const char* xlabel,
                        const std::vector<std::string>& series) {
  std::printf("# %s\n", title);
  std::printf("%-12s", xlabel);
  for (const std::string& name : series) std::printf("%14s", name.c_str());
  std::printf("\n");
}

inline void PrintRow(double x, const std::vector<double>& values) {
  std::printf("%-12g", x);
  for (double v : values) std::printf("%14.4f", v);
  std::printf("\n");
}

/// Machine-readable result sink for the custom-main benchmarks (the
/// figure-regeneration drivers that don't use the google-benchmark runner).
/// Accumulates named records of {metric, value} pairs and writes them as
///   {"scale": "...", "benchmarks": [{"name": "...", "m1": v1, ...}, ...]}
/// so CI can diff runs without scraping stdout tables. A "host" line
/// (HostLine()) records the machine the numbers come from.
class JsonResultWriter {
 public:
  explicit JsonResultWriter(std::string path) : path_(std::move(path)) {}

  void Add(const std::string& name,
           const std::vector<std::pair<std::string, double>>& metrics) {
    records_.emplace_back(name, metrics);
  }

  bool Write() const {
    std::ofstream out(path_);
    if (!out) return false;
    const char* env = std::getenv("SYSDS_BENCH_SCALE");
    out << "{\n  \"scale\": \"" << (env == nullptr ? "small" : env)
        << "\",\n  \"host\": \"" << HostLine()
        << "\",\n  \"benchmarks\": [\n";
    for (size_t i = 0; i < records_.size(); ++i) {
      out << "    {\"name\": \"" << records_[i].first << "\"";
      for (const auto& [metric, value] : records_[i].second) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", value);
        out << ", \"" << metric << "\": " << buf;
      }
      out << "}" << (i + 1 < records_.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    return out.good();
  }

 private:
  std::string path_;
  std::vector<std::pair<
      std::string, std::vector<std::pair<std::string, double>>>> records_;
};

/// For google-benchmark mains: returns argv with
/// `--benchmark_out=<default_path> --benchmark_out_format=json` appended
/// unless the caller already passed --benchmark_out. `storage` must outlive
/// the returned vector (benchmark::Initialize keeps the pointers).
inline std::vector<char*> WithDefaultJsonOut(
    int argc, char** argv, const char* default_path,
    std::vector<std::string>* storage) {
  storage->clear();
  bool has_out = false;
  for (int i = 0; i < argc; ++i) {
    storage->emplace_back(argv[i]);
    if (storage->back().rfind("--benchmark_out=", 0) == 0) has_out = true;
  }
  if (!has_out) {
    storage->push_back(std::string("--benchmark_out=") + default_path);
    storage->push_back("--benchmark_out_format=json");
  }
  std::vector<char*> args;
  args.reserve(storage->size());
  for (std::string& s : *storage) args.push_back(s.data());
  return args;
}

}  // namespace sysds_bench

#endif  // SYSDS_BENCH_BENCH_COMMON_H_
