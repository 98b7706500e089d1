// Host descriptor: core count, the SIMD extensions the CPU reports, and a
// measured FP64 multiply-add peak that serves as the denominator of the
// kernel efficiency metrics.
#ifndef E2EBENCH_HOST_H_
#define E2EBENCH_HOST_H_

#include <string>

namespace e2ebench {

struct HostInfo {
  int cores = 1;
  /// Comma-separated ISA extensions, widest last (e.g. "sse2,avx2,fma").
  std::string isa;
  /// Vector width (doubles) of the loop used for the peak measurement.
  int lanes = 1;
  /// Measured FP64 GFLOP/s of independent FMA chains on `threads` threads
  /// (a fused multiply-add counts as 2 flops).
  double peak_gflops = 0.0;
  int threads = 1;
};

/// Probes the host; the peak loop runs about 0.1 s per repetition.
HostInfo ProbeHost(int threads);

}  // namespace e2ebench

#endif  // E2EBENCH_HOST_H_
