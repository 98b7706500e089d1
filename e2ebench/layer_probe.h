// Per-layer metrics of one traced operation, read from outside the layers:
// the tracer's spans (self time by nesting), the process-wide metrics
// registry (counter and histogram deltas), and the lineage cache's stats.
#ifndef E2EBENCH_LAYER_PROBE_H_
#define E2EBENCH_LAYER_PROBE_H_

#include <map>
#include <string>

#include "lineage/lineage.h"

namespace e2ebench {

/// Counter values and histogram sums/counts of the registry metrics the
/// benchmark reads, taken at one instant.
class RegistrySnapshot {
 public:
  static RegistrySnapshot Take();
  double Counter(const std::string& name) const;
  double HistSum(const std::string& name) const;
  double HistCount(const std::string& name) const;

 private:
  std::map<std::string, double> counters_;
  std::map<std::string, double> hist_sum_;
  std::map<std::string, double> hist_count_;
};

/// Clears the tracer, turns it on, and (on Stop) turns it off and turns the
/// recorded spans into per-layer metrics. One window at a time.
class TraceWindow {
 public:
  TraceWindow();
  /// Disables tracing and returns the layer metrics of the window.
  std::map<std::string, double> Stop();

 private:
  RegistrySnapshot before_;
};

/// Lineage metrics of one context's cache.
std::map<std::string, double> MetricsFromLineage(
    const sysds::LineageCacheStats& s);

}  // namespace e2ebench

#endif  // E2EBENCH_LAYER_PROBE_H_
