// Shared pieces of the end-to-end benchmark: the seeded generator, order
// statistics, the report every workload fills, and the per-layer metric
// catalogue that the traced run always prints in full.
#ifndef E2EBENCH_BENCH_UTIL_H_
#define E2EBENCH_BENCH_UTIL_H_

#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace e2ebench {

/// SplitMix64: a small, seedable, platform-independent generator. All
/// workload inputs come from it, never from DML rand(), so the same seed
/// gives bit-identical inputs on every host.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  /// Uniform integer in [0, n).
  uint64_t Below(uint64_t n) { return Next() % n; }
  /// Standard normal (Box-Muller; one value per call).
  double Normal() {
    double u1 = Uniform();
    double u2 = Uniform();
    if (u1 < 1e-300) u1 = 1e-300;
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  }

 private:
  uint64_t state_;
};

/// Derives an independent stream seed from a base seed and a stream id, so
/// row i of a request stream can be regenerated on its own.
uint64_t StreamSeed(uint64_t seed, uint64_t stream);

/// Linear-interpolation quantile (the "type 7" definition used by numpy
/// and R's default): for sorted x of size n and p in [0, 1], interpolates
/// between x[floor(h)] and x[floor(h)+1] with h = (n-1)p. Sorts a copy.
/// Returns 0 for an empty input.
double Quantile(std::vector<double> values, double p);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Seconds on the steady clock since an arbitrary epoch.
inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Times repeated calls of `setup` (at least 3, more while under 1 s in
/// total, at most 2000) and returns the median seconds of one call. Before
/// each call, `teardown` releases the previous result, untimed. Stops
/// early when `setup` returns false. The caller keeps the last result.
double MedianSetupSeconds(const std::function<void()>& teardown,
                          const std::function<bool()>& setup);

/// Peak resident set of this process in MB (getrusage ru_maxrss).
double PeakRssMb();

/// Parsed command line of one benchmark run.
struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory inside the checkout (CSV inputs, spill files).
  std::string data_dir;
};

/// What one run reports: operation counts and named metrics. An operation
/// is one script execution or one scoring request; it fails when it errors,
/// is rejected, or its output does not pass the benchmark's own check.
class Report {
 public:
  void Attempt(int64_t n = 1) { attempted_ += n; }
  /// Counts one failed operation and logs why (to stderr).
  void Fail(const std::string& why);
  void Set(const std::string& name, double value) { values_[name] = value; }
  double Get(const std::string& name) const;

  /// The result line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
  /// with exactly the metrics of `catalogue` (missing ones report 0).
  std::string ToJson(const std::vector<std::pair<std::string, std::string>>&
                         catalogue) const;

 private:
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::map<std::string, double> values_;
};

/// (name, unit) of every end-to-end metric, printed with --trace 0.
const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics();
/// (name, unit) of every per-layer metric, printed with --trace 1.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

/// Median of each key over per-run samples (keys missing from a sample
/// count as 0 there).
std::map<std::string, double> MedianPerKey(
    const std::vector<std::map<std::string, double>>& samples);

}  // namespace e2ebench

#endif  // E2EBENCH_BENCH_UTIL_H_
