#include "bench_util.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <sstream>

namespace e2ebench {

uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  Rng mix(seed ^ (stream * 0xD1B54A32D192ED03ULL));
  mix.Next();
  return mix.Next();
}

double Quantile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  p = std::clamp(p, 0.0, 1.0);
  double h = static_cast<double>(values.size() - 1) * p;
  size_t lo = static_cast<size_t>(std::floor(h));
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = h - static_cast<double>(lo);
  // Skipping the zero-weight term keeps an infinite neighbour from
  // turning an exact order statistic into NaN.
  if (frac == 0.0 || values[hi] == values[lo]) return values[lo];
  return values[lo] + frac * (values[hi] - values[lo]);
}

double MedianSetupSeconds(const std::function<void()>& teardown,
                          const std::function<bool()>& setup) {
  constexpr size_t kMin = 3;
  constexpr size_t kMax = 2000;
  constexpr double kBudgetSeconds = 1.0;
  std::vector<double> secs;
  const double start = NowSeconds();
  while (secs.size() < kMin ||
         (secs.size() < kMax && NowSeconds() - start < kBudgetSeconds)) {
    teardown();
    double t0 = NowSeconds();
    bool ok = setup();
    secs.push_back(NowSeconds() - t0);
    if (!ok) break;
  }
  return Median(secs);
}

double PeakRssMb() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void Report::Fail(const std::string& why) {
  ++failed_;
  // Keep the log readable when one defect repeats for every request.
  if (failed_ <= 10) std::fprintf(stderr, "FAILED: %s\n", why.c_str());
}

double Report::Get(const std::string& name) const {
  auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

std::string Report::ToJson(
    const std::vector<std::pair<std::string, std::string>>& catalogue) const {
  std::ostringstream os;
  os << "{\"correct\": " << (failed_ == 0 && attempted_ > 0 ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, unit] : catalogue) {
    double v = Get(name);
    if (!std::isfinite(v)) v = 0.0;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    os << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << buf
       << ", \"unit\": \"" << unit << "\"}";
    first = false;
  }
  os << "}}";
  return os.str();
}

const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"setup_s", "s"},
      {"p50_ms", "ms"},
      {"p90_ms", "ms"},
      {"peak_rss_mb", "MB"},
  };
  return kMetrics;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      // lang + compiler
      {"compiler.prepare_ms", "ms"},
      {"compiler.recompile_ms", "ms"},
      {"compiler.recompiles", "count"},
      {"self_ms.compiler", "ms"},
      // runtime/controlprog
      {"cp.instructions", "count"},
      {"cp.exec_us", "us"},
      {"self_ms.cp", "ms"},
      {"self_ms.unattributed", "ms"},
      // runtime/matrix
      {"kernel.tsmm_gflops", "GFLOP/s"},
      {"kernel.tsmm_peak_frac", "ratio"},
      {"cp.tsmm_ms", "ms"},
      // common/thread_pool (and parfor on top of it)
      {"scheduler.tasks", "count"},
      {"scheduler.steals", "count"},
      {"scheduler.imbalance.tsmm", "%"},
      {"scheduler.imbalance.parfor", "%"},
      {"self_ms.parfor", "ms"},
      // lineage
      {"lineage.probes", "count"},
      {"lineage.hit_ratio", "ratio"},
      {"lineage.partial_hits", "count"},
      {"lineage.puts", "count"},
      {"lineage.cache_mb", "MB"},
      // runtime/dist
      {"dist.instructions", "count"},
      {"dist.ms", "ms"},
      {"dist.share", "ratio"},
      // runtime/bufferpool
      {"bufferpool.evictions", "count"},
      {"bufferpool.spilled_mb", "MB"},
      {"bufferpool.restore_ms", "ms"},
      {"bufferpool.evict_stall_ms", "ms"},
      {"bufferpool.prefetch_hit_ratio", "ratio"},
      {"self_ms.bufferpool", "ms"},
      // io
      {"io.csv_read_ms", "ms"},
      {"io.csv_mb_per_s", "MB/s"},
      // runtime/frame
      {"transform.fit_ms", "ms"},
      {"transform.apply_ms", "ms"},
      {"self_ms.transform", "ms"},
      // serve
      {"serve.queue_us", "us"},
      {"serve.rejected", "count"},
      {"gen.lag_ms", "ms"},
      {"score_p50_ms.light", "ms"},
      {"score_p90_ms.light", "ms"},
      {"score_p99_ms.light", "ms"},
      {"score_p99_ms.busy", "ms"},
      {"score_max_rps", "req/s"},
      {"self_ms.serve", "ms"},
      // obs
      {"trace.overhead_frac", "ratio"},
      {"trace.dropped_events", "count"},
      // host
      {"host.cores", "count"},
      {"host.peak_gflops", "GFLOP/s"},
  };
  return kMetrics;
}

std::map<std::string, double> MedianPerKey(
    const std::vector<std::map<std::string, double>>& samples) {
  std::set<std::string> keys;
  for (const auto& s : samples) {
    for (const auto& kv : s) keys.insert(kv.first);
  }
  std::map<std::string, double> out;
  for (const std::string& k : keys) {
    std::vector<double> vals;
    for (const auto& s : samples) {
      auto it = s.find(k);
      vals.push_back(it == s.end() ? 0.0 : it->second);
    }
    out[k] = Median(std::move(vals));
  }
  return out;
}

}  // namespace e2ebench
