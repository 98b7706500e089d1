// Ablation A1 (§4.2 observation 2): dense GEMM kernel comparison — the
// portable dot-product-ordered kernel of bench/baselines (PortableGemm, the
// stand-in for SystemDS's Java matmult, which "does not compile packed SIMD
// instructions") vs. the system's register-blocked SIMD core (SysDS-B /
// native BLAS path), which also computes dense tsmm and tlmm. The paper
// reports the portable kernel ~2.1x slower; also covers tsmm, sparse-dense,
// and transpose micro-kernels.

#include <benchmark/benchmark.h>

#include "baselines/baselines.h"
#include "bench/bench_common.h"
#include "common/thread_pool.h"
#include "runtime/matrix/lib_datagen.h"
#include "runtime/matrix/lib_matmult.h"
#include "runtime/matrix/lib_reorg.h"

namespace {

using namespace sysds;

MatrixBlock MakeDense(int64_t rows, int64_t cols, uint64_t seed) {
  auto m = RandMatrix(rows, cols, -1.0, 1.0, 1.0, seed, RandPdf::kUniform, 1);
  return *m;
}

MatrixBlock MakeSparse(int64_t rows, int64_t cols, double sparsity,
                       uint64_t seed) {
  auto m = RandMatrix(rows, cols, -1.0, 1.0, sparsity, seed,
                      RandPdf::kUniform, 1);
  return *m;
}

void BM_GemmPortable(benchmark::State& state) {
  int64_t n = state.range(0);
  MatrixBlock a = MakeDense(n, n, 1), b = MakeDense(n, n, 2);
  for (auto _ : state) {
    MatrixBlock c = MatrixBlock::Dense(n, n);
    PortableGemm(a.DenseData(), b.DenseData(), c.DenseData(), n, n, n);
    benchmark::DoNotOptimize(c.DenseData());
    benchmark::ClobberMemory();
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      2.0 * n * n * n * state.iterations() / 1e9, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GemmPortable)->Arg(128)->Arg(256)->Arg(512);

// The native core at 1 thread (called on all rows, no pool) and through
// MatMult's row chunks on the global pool, which runs DefaultParallelism()
// threads (SYSDS_NUM_THREADS caps it). Rates are per wall-clock second.
void BM_GemmNative(benchmark::State& state) {
  int64_t n = state.range(0);
  int threads = static_cast<int>(state.range(1));
  if (threads > 1 && DefaultParallelism() != threads) {
    state.SkipWithError("needs DefaultParallelism() == threads");
    return;
  }
  MatrixBlock a = MakeDense(n, n, 1), b = MakeDense(n, n, 2);
  for (auto _ : state) {
    if (threads == 1) {
      MatrixBlock c = MatrixBlock::Dense(n, n);
      internal::GemmDense(a.DenseData(), b.DenseData(), c.DenseData(), n, n,
                          n);
      benchmark::DoNotOptimize(c.DenseData());
    } else {
      auto c = MatMult(a, b, threads);
      benchmark::DoNotOptimize(c->DenseData());
    }
    benchmark::ClobberMemory();
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      2.0 * n * n * n * state.iterations() / 1e9, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GemmNative)
    ->ArgNames({"n", "threads"})
    ->ArgsProduct({{128, 256, 512}, {1, 4}})
    ->UseRealTime();

// Left tsmm t(X) %*% X; 20000 x 200 is the lmds_sweep shape. Flops count
// the upper triangle, rows * cols * (cols + 1), as e2ebench does.
void BM_TsmmDense(benchmark::State& state) {
  int64_t rows = state.range(0), cols = state.range(1);
  MatrixBlock x = MakeDense(rows, cols, 3);
  for (auto _ : state) {
    auto c = TransposeSelfMatMult(x, true, DefaultParallelism());
    benchmark::DoNotOptimize(c->DenseData());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      static_cast<double>(rows) * cols * (cols + 1) * state.iterations() /
          1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TsmmDense)
    ->ArgNames({"rows", "cols"})
    ->Args({2048, 128})
    ->Args({8192, 128})
    ->Args({20000, 200})
    ->UseRealTime();

void BM_TsmmSparse(benchmark::State& state) {
  int64_t rows = state.range(0), cols = 128;
  MatrixBlock x = MakeSparse(rows, cols, 0.1, 3);
  for (auto _ : state) {
    auto c = TransposeSelfMatMult(x, true, DefaultParallelism());
    benchmark::DoNotOptimize(c.value());
  }
}
BENCHMARK(BM_TsmmSparse)->Arg(2048)->Arg(8192);

// The unfused alternative to tsmm: materialized transpose + matmult — the
// cost TF pays on sparse data (§4.2 observation 3).
void BM_TransposeThenMatMult(benchmark::State& state) {
  int64_t rows = state.range(0), cols = 128;
  MatrixBlock x = MakeSparse(rows, cols, 0.1, 3);
  for (auto _ : state) {
    MatrixBlock xt = Transpose(x, 1);
    auto c = MatMult(xt, x, DefaultParallelism());
    benchmark::DoNotOptimize(c.value());
  }
}
BENCHMARK(BM_TransposeThenMatMult)->Arg(2048)->Arg(8192);

void BM_SparseDenseMatVec(benchmark::State& state) {
  int64_t rows = state.range(0), cols = 512;
  MatrixBlock x = MakeSparse(rows, cols, 0.05, 4);
  MatrixBlock v = MakeDense(cols, 1, 5);
  for (auto _ : state) {
    auto c = MatMult(x, v, 1);
    benchmark::DoNotOptimize(c.value());
  }
}
BENCHMARK(BM_SparseDenseMatVec)->Arg(8192)->Arg(32768);

void BM_TransposeDense(benchmark::State& state) {
  int64_t n = state.range(0);
  MatrixBlock x = MakeDense(n, n, 6);
  for (auto _ : state) {
    MatrixBlock xt = Transpose(x, DefaultParallelism());
    benchmark::DoNotOptimize(xt.DenseData());
  }
}
BENCHMARK(BM_TransposeDense)->Arg(512)->Arg(1024);

}  // namespace

// Standard google-benchmark main plus a default JSON sink: results land in
// BENCH_kernels.json (cwd) unless --benchmark_out= overrides it.
int main(int argc, char** argv) {
  std::vector<std::string> storage;
  std::vector<char*> args = sysds_bench::WithDefaultJsonOut(
      argc, argv, "BENCH_kernels.json", &storage);
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
