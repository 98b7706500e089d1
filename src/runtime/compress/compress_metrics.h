#ifndef SYSDS_RUNTIME_COMPRESS_COMPRESS_METRICS_H_
#define SYSDS_RUNTIME_COMPRESS_COMPRESS_METRICS_H_

#include "obs/metrics.h"

namespace sysds {
namespace compress_metrics {

// compress.* observability shared by the compress instruction and the
// compressed-kernel dispatch of the matrix instructions.
struct Metrics {
  obs::Counter* planner_invocations;
  // compress() produced a compressed block.
  obs::Counter* compressed_blocks;
  // Planner decided compression does not pay off (min-ratio gate).
  obs::Counter* skipped_not_worthwhile;
  // Input below compression_min_size_bytes.
  obs::Counter* skipped_small;
  // Buffer-pool pressure overrode the static size gate: the input would be
  // skipped as small, but headroom is low enough that shrinking it beats
  // spilling it.
  obs::Counter* pressure_compressions;
  // An instruction executed a compressed kernel directly.
  obs::Counter* dispatch_hits;
  // A compressed kernel was unsupported; the instruction decompressed and
  // retried on the uncompressed path.
  obs::Counter* dispatch_fallbacks;
  // Achieved compression ratios, x100 (a ratio of 8.5 observes 850).
  obs::Histogram* ratio_x100;
};

inline Metrics& Get() {
  auto& r = obs::MetricsRegistry::Get();
  static Metrics m = {
      r.GetCounter("compress.planner_invocations"),
      r.GetCounter("compress.compressed_blocks"),
      r.GetCounter("compress.skipped_not_worthwhile"),
      r.GetCounter("compress.skipped_small"),
      r.GetCounter("compress.pressure_compressions"),
      r.GetCounter("compress.dispatch_hits"),
      r.GetCounter("compress.dispatch_fallbacks"),
      r.GetHistogram("compress.ratio_x100"),
  };
  return m;
}

}  // namespace compress_metrics
}  // namespace sysds

#endif  // SYSDS_RUNTIME_COMPRESS_COMPRESS_METRICS_H_
