#include "host.h"

#include <algorithm>
#include <cstdint>
#include <thread>
#include <vector>

#include "bench_util.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace e2ebench {

namespace {

// Each loop runs kChains independent multiply-add chains, enough to hide
// the FMA latency on two ports. The result is returned so the work is live.
constexpr int kChains = 12;
// Repetitions of the peak measurement; other tenants of a shared host can
// slow any single one.
constexpr int kReps = 5;

double ScalarLoop(int64_t iters) {
  double acc[kChains];
  for (int c = 0; c < kChains; ++c) acc[c] = 1.0 + c * 1e-3;
  const double mul = 0.9999999;
  const double add = 1e-7;
  for (int64_t i = 0; i < iters; ++i) {
    for (int c = 0; c < kChains; ++c) acc[c] = acc[c] * mul + add;
  }
  double s = 0;
  for (int c = 0; c < kChains; ++c) s += acc[c];
  return s;
}

#if defined(__x86_64__)
__attribute__((target("avx2,fma"))) double Avx2FmaLoop(int64_t iters) {
  __m256d acc[kChains];
  for (int c = 0; c < kChains; ++c) acc[c] = _mm256_set1_pd(1.0 + c * 1e-3);
  const __m256d mul = _mm256_set1_pd(0.9999999);
  const __m256d add = _mm256_set1_pd(1e-7);
  for (int64_t i = 0; i < iters; ++i) {
    for (int c = 0; c < kChains; ++c) {
      acc[c] = _mm256_fmadd_pd(acc[c], mul, add);
    }
  }
  __m256d s = acc[0];
  for (int c = 1; c < kChains; ++c) s = _mm256_add_pd(s, acc[c]);
  double out[4];
  _mm256_storeu_pd(out, s);
  return out[0] + out[1] + out[2] + out[3];
}

__attribute__((target("avx512f"))) double Avx512FmaLoop(int64_t iters) {
  __m512d acc[kChains];
  for (int c = 0; c < kChains; ++c) acc[c] = _mm512_set1_pd(1.0 + c * 1e-3);
  const __m512d mul = _mm512_set1_pd(0.9999999);
  const __m512d add = _mm512_set1_pd(1e-7);
  for (int64_t i = 0; i < iters; ++i) {
    for (int c = 0; c < kChains; ++c) {
      acc[c] = _mm512_fmadd_pd(acc[c], mul, add);
    }
  }
  __m512d s = acc[0];
  for (int c = 1; c < kChains; ++c) s = _mm512_add_pd(s, acc[c]);
  double out[8];
  _mm512_storeu_pd(out, s);
  double sum = 0;
  for (double v : out) sum += v;
  return sum;
}
#endif

using Loop = double (*)(int64_t);

// GFLOP/s of `threads` concurrent copies of `loop`, best of kReps.
double MeasurePeak(Loop loop, int lanes, int threads) {
  // Calibrate iterations to about 0.1 s on one thread.
  int64_t iters = 1 << 16;
  while (true) {
    double t0 = NowSeconds();
    volatile double sink = loop(iters);
    (void)sink;
    if (NowSeconds() - t0 > 0.02 || iters > (int64_t{1} << 34)) break;
    iters *= 2;
  }
  iters *= 4;
  const double flops_per_thread =
      static_cast<double>(iters) * kChains * lanes * 2.0;
  double best = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    std::vector<std::thread> pool;
    std::vector<double> sinks(static_cast<size_t>(threads));
    double t0 = NowSeconds();
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back(
          [&, t] { sinks[static_cast<size_t>(t)] = loop(iters); });
    }
    for (std::thread& th : pool) th.join();
    double secs = NowSeconds() - t0;
    best = std::max(best, flops_per_thread * threads / secs / 1e9);
  }
  return best;
}

}  // namespace

HostInfo ProbeHost(int threads) {
  HostInfo h;
  h.cores = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  h.threads = threads;
  Loop loop = ScalarLoop;
  h.isa = "scalar";
#if defined(__x86_64__)
  __builtin_cpu_init();
  std::vector<std::string> isa;
  if (__builtin_cpu_supports("sse2")) isa.push_back("sse2");
  if (__builtin_cpu_supports("avx")) isa.push_back("avx");
  if (__builtin_cpu_supports("avx2")) isa.push_back("avx2");
  if (__builtin_cpu_supports("fma")) isa.push_back("fma");
  if (__builtin_cpu_supports("avx512f")) isa.push_back("avx512f");
  h.isa.clear();
  for (const std::string& s : isa) h.isa += (h.isa.empty() ? "" : ",") + s;
  if (__builtin_cpu_supports("avx512f")) {
    loop = Avx512FmaLoop;
    h.lanes = 8;
  } else if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    loop = Avx2FmaLoop;
    h.lanes = 4;
  }
#endif
  h.peak_gflops = MeasurePeak(loop, h.lanes, threads);
  return h;
}

}  // namespace e2ebench
