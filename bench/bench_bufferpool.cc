// Buffer-pool benchmark: where the async memory manager does its work.
// Covers (1) eviction stall — for an over-limit allocation storm, the spill
// write time the background writer absorbed (bufferpool.spill_ns) against
// the time callers blocked in eviction (bufferpool.evict_stall_ns); (2)
// loop wall-time with hint-driven prefetch on vs off for an iterative
// script whose invariant operands spill every iteration; (3) 2Q scan
// resistance (the scan evicts, the re-referenced hot block needs no demand
// restore afterwards); (4) spill and restore throughput of one 32 MB dense
// block and one 200,000-row sparse block with 10 nonzeros per row, the
// shape transform-to-train spills. Results land in BENCH_bufferpool.json.
// The stall and scan assertions arm at every scale (they measure where work
// happens, not wall-clock scaling); the prefetch hit and speedup assertions
// need >= 4 cores, like the scheduler bench.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/systemds_context.h"
#include "bench/bench_common.h"
#include "common/util.h"
#include "obs/metrics.h"
#include "runtime/bufferpool/buffer_pool.h"
#include "runtime/controlprog/data.h"

using namespace sysds;

namespace {

// Creates a matrix bound to `pool`, as an ExecutionContext binds a matrix
// the first time it stores it.
std::shared_ptr<MatrixObject> Pooled(const std::shared_ptr<BufferPool>& pool,
                                     MatrixBlock block) {
  auto m = std::make_shared<MatrixObject>(std::move(block));
  m->BindPool(pool);
  return m;
}

struct Throughput {
  double spill_mb_s = 0;
  double restore_mb_s = 0;
  double file_mb = 0;
};

/// Spills `block` to a file in `dir` and restores it, `reps` times on fresh
/// objects; reports the best spill and restore rates in MB of file per
/// second. Exits when the restored block differs from the original.
Throughput RunSpillRestore(const MatrixBlock& block, const std::string& dir,
                           int reps) {
  Throughput best;
  for (int rep = 0; rep < reps; ++rep) {
    const std::string path = dir + "/block" + std::to_string(rep) + ".spill";
    MatrixObject obj{MatrixBlock(block)};
    Timer spill;
    auto evicted = obj.EvictTo(path);
    const double spill_s = spill.ElapsedSeconds();
    if (!evicted.ok() || !*evicted) {
      std::fprintf(stderr, "spill failed: %s\n",
                   evicted.status().ToString().c_str());
      std::exit(1);
    }
    const double mb =
        static_cast<double>(std::filesystem::file_size(path)) / 1e6;
    Timer restore;
    auto read = obj.AcquireRead();
    const double restore_s = restore.ElapsedSeconds();
    if (!read.ok() || (*read)->NonZeros() != block.NonZeros() ||
        (*read)->Get(block.Rows() - 1, block.Cols() - 1) !=
            block.Get(block.Rows() - 1, block.Cols() - 1)) {
      std::fprintf(stderr, "restore did not return the spilled block\n");
      std::exit(1);
    }
    obj.Release();
    best.file_mb = mb;
    best.spill_mb_s = std::max(best.spill_mb_s, mb / spill_s);
    best.restore_mb_s = std::max(best.restore_mb_s, mb / restore_s);
  }
  return best;
}

struct StormResult {
  double wall_s = 0;
  double stall_s = 0;  // callers blocked in eviction passes
  double spill_s = 0;  // spill writes, background and synchronous
  int64_t free_drops = 0;
};

/// Allocation storm: `nobjs` blocks of dim x dim doubles stream through a
/// pool that holds only `limit_objs` of them, with per-block compute (a
/// full-block sum via AcquireRead, roughly the cost of the spill write)
/// between allocations — the window a background writer hides writes in.
StormResult RunStorm(int64_t dim, int nobjs, int limit_objs) {
  BufferPool::Options opt;
  opt.limit_bytes = limit_objs * dim * dim * 8;
  opt.prefetch = false;
  auto pool = std::make_shared<BufferPool>(opt);

  StormResult r;
  obs::MetricsDiff diff;
  Timer t;
  std::vector<std::shared_ptr<MatrixObject>> objs;
  objs.reserve(static_cast<size_t>(nobjs));
  double sink = 0;
  for (int i = 0; i < nobjs; ++i) {
    objs.push_back(
        Pooled(pool, MatrixBlock::Dense(dim, dim, static_cast<double>(i))));
    auto read = objs.back()->AcquireRead();
    if (read.ok()) {
      // ~4 flop-passes over the block — a compute-bound instruction mix
      // where spill writes fit in the window even on few cores.
      for (int pass = 0; pass < 4; ++pass) {
        for (int64_t row = 0; row < dim; ++row) {
          for (int64_t c = 0; c < dim; ++c) sink += (*read)->Get(row, c);
        }
      }
      objs.back()->Release();
    }
  }
  pool->Drain();
  r.wall_s = t.ElapsedSeconds();
  obs::MetricsSnapshot d = diff.Delta();
  r.stall_s = static_cast<double>(
                  d.Histogram("bufferpool.evict_stall_ns").sum) / 1e9;
  r.spill_s = static_cast<double>(d.Histogram("bufferpool.spill_ns").sum) / 1e9;
  r.free_drops = d.Counter("bufferpool.free_drops");
  if (sink == 12345.6789) std::printf("%f\n", sink);  // keep the compute
  return r;
}

/// Iterative script whose two rand inputs are loop-invariant reads: with a
/// pool far below the working set they spill every iteration, and the
/// loop-liveness hints let the prefetcher restore them ahead of demand.
/// Each iteration first computes on the 100x100 loop state, so a hint
/// issued at the iteration boundary has that compute as lead time before
/// `t(X) %*% Y` demands the operands.
double RunLoop(int64_t rows, bool prefetch, int64_t limit_bytes) {
  auto ctx = SystemDSContext::Builder()
                 .BufferPoolLimit(limit_bytes)
                 .BufferPoolPrefetch(prefetch)
                 .Build();
  char script[512];
  std::snprintf(script, sizeof(script), R"(
    X = rand(rows=%lld, cols=100, min=0, max=1, seed=42)
    Y = rand(rows=%lld, cols=100, min=0, max=1, seed=43)
    acc = matrix(0, rows=100, cols=100)
    for (i in 1:8) {
      acc = acc + (acc %%*%% acc) * (1e-6 / i)
      G = t(X) %%*%% Y
      acc = acc + G * (1.0 / i)
    }
    out = sum(acc)
  )",
                static_cast<long long>(rows), static_cast<long long>(rows));
  Timer t;
  auto result = ctx->Execute(script, Inputs(), Outputs("out"));
  if (!result.ok()) {
    std::fprintf(stderr, "loop script failed: %s\n",
                 result.status().ToString().c_str());
    std::exit(1);
  }
  return t.ElapsedSeconds();
}

struct ScanResult {
  int64_t evictions = 0;  // blocks the scan pushed out of the pool
  int64_t restores = 0;   // demand restores of the hot block afterwards
};

/// Scan workload for the eviction policy: a re-referenced hot block, then a
/// one-touch scan of 2x the pool, then the hot block is demanded again.
ScanResult RunScan(int64_t dim) {
  auto pool = std::make_shared<BufferPool>(5 * dim * dim * 8);
  auto hot = Pooled(pool, MatrixBlock::Dense(dim, dim, 1.0));
  for (int i = 0; i < 3; ++i) {
    auto r = hot->AcquireRead();
    if (r.ok()) hot->Release();
  }
  std::vector<std::shared_ptr<MatrixObject>> scan;
  for (int i = 0; i < 10; ++i) {
    scan.push_back(Pooled(pool, MatrixBlock::Dense(dim, dim, 2.0)));
  }
  pool->Drain();
  ScanResult result;
  result.evictions = pool->EvictionCount();
  obs::MetricsDiff diff;
  auto r = hot->AcquireRead();
  if (r.ok()) hot->Release();
  result.restores = diff.Delta().Histogram("bufferpool.restore_ns").count;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sysds_bench;
  ApplySmokeFlag(argc, argv);
  Scale scale = GetScale();
  JsonResultWriter out("BENCH_bufferpool.json");
  const bool assert_scaling = std::thread::hardware_concurrency() >= 4;
  bool failed = false;

  // Block edge and counts per scale: tiny stays in the milliseconds, paper
  // streams ~128MB through a 16MB pool.
  const int64_t dim = scale.rows >= 100000 ? 512 : (scale.rows >= 8000 ? 128 : 64);
  const int nobjs = scale.rows >= 100000 ? 64 : (scale.rows >= 8000 ? 48 : 16);
  const int limit_objs = scale.rows >= 100000 ? 8 : 4;
  const int reps = std::max(1, scale.repetitions);

  // ------------------------------------------------------------------
  // (1) Eviction stall: write-behind moves spill writes off the allocating
  // thread, so the write time the background writer absorbed must dwarf
  // the time callers blocked in eviction. Were every write synchronous,
  // the stall would hold all of the write time and the ratio would be <= 1.
  const StormResult storm = RunStorm(dim, nobjs, limit_objs);
  const double absorbed_ratio = storm.spill_s / std::max(storm.stall_s, 1e-9);
  std::printf("# bufferpool: %d x %lldx%lld blocks through a %d-block pool\n",
              nobjs, (long long)dim, (long long)dim, limit_objs);
  std::printf("%-24s%14.5f\n%-24s%14.5f\n%-24s%14.5f\n%-24s%14lld\n",
              "spill write s", storm.spill_s, "caller stall s", storm.stall_s,
              "wall s", storm.wall_s, "free drops",
              (long long)storm.free_drops);
  std::printf("write time absorbed per stall second: %.2fx\n", absorbed_ratio);
  out.Add("eviction_stall", {{"spill_s", storm.spill_s},
                             {"stall_s", storm.stall_s},
                             {"absorbed_ratio", absorbed_ratio},
                             {"wall_s", storm.wall_s},
                             {"free_drops",
                              static_cast<double>(storm.free_drops)}});
  // At tiny (smoke) scale the 32KB writes are on par with per-pass fixed
  // overheads and the ratio is noise; the claim is asserted at real scales.
  if (scale.rows >= 8000 && absorbed_ratio < 2.0) {
    std::fprintf(stderr,
                 "FAIL: writer absorbed only %.2fx the caller stall (< 2x)\n",
                 absorbed_ratio);
    failed = true;
  }
  if (storm.free_drops <= 0) {
    std::fprintf(stderr, "FAIL: write-behind produced no free drops\n");
    failed = true;
  }

  // ------------------------------------------------------------------
  // (2) Prefetch: iterative loop over spilled invariant operands. The pool
  // holds one operand and the loop's 100x100 state, but not two operands:
  // a prefetch is admitted only when the headroom covers the block, so a
  // pool smaller than one operand would measure nothing but declined
  // hints. One run takes milliseconds, so the best of five interleaved
  // pairs is compared.
  {
    const int64_t rows = scale.rows >= 100000 ? 4000 : 400;
    const int64_t operand_bytes = rows * 100 * 8;
    const int64_t limit = operand_bytes * 19 / 10;
    const int loop_reps = std::max(5, reps);
    obs::MetricsDiff diff;
    double with_pf = 1e30, without_pf = 1e30;
    for (int rep = 0; rep < loop_reps; ++rep) {
      without_pf = std::min(without_pf, RunLoop(rows, false, limit));
      with_pf = std::min(with_pf, RunLoop(rows, true, limit));
    }
    obs::MetricsSnapshot d = diff.Delta();
    int64_t hits = d.Counter("bufferpool.prefetch_hits");
    int64_t issued = d.Counter("bufferpool.prefetch_issued");
    double speedup = without_pf / with_pf;
    std::printf("\n# bufferpool: 8-iter loop, %lldx100 operands, %lldKB pool\n",
                (long long)rows, (long long)(limit / 1024));
    std::printf("%-24s%14.5f\n%-24s%14.5f\nprefetch speedup: %.2fx"
                " (%lld of %lld prefetches hit)\n",
                "demand paging", without_pf, "hinted prefetch", with_pf,
                speedup, (long long)hits, (long long)issued);
    out.Add("loop_prefetch", {{"demand_s", without_pf},
                              {"prefetch_s", with_pf},
                              {"speedup", speedup},
                              {"prefetch_issued", static_cast<double>(issued)},
                              {"prefetch_hits", static_cast<double>(hits)}});
    if (issued <= 0) {
      std::fprintf(stderr, "FAIL: loop hints issued no prefetches\n");
      failed = true;
    }
    // Hit-rate and wall-clock overlap need spare cores: on a single-core
    // machine the demand read always wins the race against the background
    // restore, so only the issue count is load-bearing there.
    if (assert_scaling && hits <= 0) {
      std::fprintf(stderr, "FAIL: loop hints produced no prefetch hits\n");
      failed = true;
    }
    if (assert_scaling && speedup < 1.0) {
      std::fprintf(stderr, "FAIL: prefetch slower than demand paging "
                           "(%.2fx)\n", speedup);
      failed = true;
    }
  }

  // ------------------------------------------------------------------
  // (3) Scan resistance: a one-touch scan 2x the pool must be evicted, and
  // re-accessing the re-referenced hot block afterwards must be free (it
  // sits in the protected queue).
  {
    const ScanResult scan = RunScan(dim);
    std::printf("\n# bufferpool: one-touch scan of 2x the pool\n");
    std::printf("%-24s%14lld\n%-24s%14lld\n", "scan evictions",
                (long long)scan.evictions, "hot-block restores",
                (long long)scan.restores);
    out.Add("scan_resistance",
            {{"restores_2q", static_cast<double>(scan.restores)},
             {"scan_evictions", static_cast<double>(scan.evictions)}});
    if (scan.evictions <= 0) {
      std::fprintf(stderr, "FAIL: the scan evicted nothing\n");
      failed = true;
    }
    if (scan.restores != 0) {
      std::fprintf(stderr,
                   "FAIL: hot block needed %lld demand restores after scan\n",
                   (long long)scan.restores);
      failed = true;
    }
  }

  // ------------------------------------------------------------------
  // (4) Spill/restore throughput through the checksummed file path.
  {
    const std::string dir =
        (std::filesystem::temp_directory_path() /
         ("sysds_bench_spill_" + std::to_string(::getpid())))
            .string();
    std::filesystem::create_directories(dir);
    const int io_reps = std::max(2, reps);
    // 2048 x 2048 doubles = 32 MB.
    MatrixBlock dense = MatrixBlock::Dense(2048, 2048, 0.0);
    for (int64_t i = 0; i < 2048; ++i) {
      for (int64_t j = 0; j < 2048; ++j) {
        dense.Set(i, j, static_cast<double>((i * 2048 + j) % 1000) + 0.5);
      }
    }
    Throughput d = RunSpillRestore(dense, dir, io_reps);
    dense = MatrixBlock();
    MatrixBlock sparse = MatrixBlock::Sparse(200000, 1000);
    for (int64_t i = 0; i < 200000; ++i) {
      for (int64_t k = 0; k < 10; ++k) {
        sparse.SparseData().Row(i).Append(k * 100 + i % 100,
                                          1.0 + static_cast<double>(k));
      }
    }
    sparse.SetNonZeros(200000 * 10);
    Throughput sp = RunSpillRestore(sparse, dir, io_reps);
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    std::printf(
        "\n# bufferpool: spill/restore throughput (MB of file per s)\n");
    std::printf("%-24s%10s%14s%14s\n", "block", "MB", "spill", "restore");
    std::printf("%-24s%10.1f%14.1f%14.1f\n", "dense 2048x2048", d.file_mb,
                d.spill_mb_s, d.restore_mb_s);
    std::printf("%-24s%10.1f%14.1f%14.1f\n", "sparse 200000x1000", sp.file_mb,
                sp.spill_mb_s, sp.restore_mb_s);
    out.Add("spill_restore", {{"dense_mb", d.file_mb},
                              {"dense_spill_mb_s", d.spill_mb_s},
                              {"dense_restore_mb_s", d.restore_mb_s},
                              {"sparse_mb", sp.file_mb},
                              {"sparse_spill_mb_s", sp.spill_mb_s},
                              {"sparse_restore_mb_s", sp.restore_mb_s}});
  }

  if (!out.Write()) {
    std::fprintf(stderr, "failed to write BENCH_bufferpool.json\n");
    return 1;
  }
  return failed ? 1 : 0;
}
