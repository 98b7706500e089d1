#ifndef SYSDS_RUNTIME_MATRIX_LIB_AGG_H_
#define SYSDS_RUNTIME_MATRIX_LIB_AGG_H_

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "runtime/matrix/matrix_block.h"
#include "runtime/matrix/op_codes.h"

namespace sysds {

/// Shared aggregation primitives. The fused-pipeline runtime (lib_fused) and
/// the standalone aggregate kernels both build on these so that a fused plan
/// produces bit-identical results to its unfused counterpart: same per-cell
/// accumulation, same zero handling, same chunking, same merge order.
namespace agg {

// Kahan-compensated accumulator (SystemDS KahanPlus).
struct Kahan {
  double sum = 0.0;
  double corr = 0.0;
  void Add(double v) {
    double y = v - corr;
    double t = sum + y;
    corr = (t - sum) - y;
    sum = t;
  }
};

/// Running statistics over a sequence of cells; a single pass feeds every
/// aggregate so one scan serves sum/mean/var/min/max/argmin/argmax alike.
struct CellStats {
  Kahan sum;
  Kahan sumsq;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  int64_t nnz = 0;
  int64_t count = 0;
  int64_t argmax = 0;
  int64_t argmin = 0;
  double argmax_val = -std::numeric_limits<double>::infinity();
  double argmin_val = std::numeric_limits<double>::infinity();

  void Add(double v, int64_t idx) {
    sum.Add(v);
    sumsq.Add(v * v);
    min = std::fmin(min, v);
    max = std::fmax(max, v);
    nnz += (v != 0.0);
    ++count;
    if (v > argmax_val) { argmax_val = v; argmax = idx; }
    if (v < argmin_val) { argmin_val = v; argmin = idx; }
  }
};

/// True for aggregates whose result is unaffected by zero cells. Every code
/// path (dense, sparse, fused) skips v == 0.0 cells for these ops, so the
/// result does not depend on the runtime storage format of the input.
inline bool SkipZeros(AggOpCode op) {
  return op == AggOpCode::kSum || op == AggOpCode::kSumSq ||
         op == AggOpCode::kNnz;
}

/// Folds a partial into an accumulated total. Callers must merge partials
/// strictly in chunk order — together with the static chunking from
/// PickChunks this makes parallel reductions deterministic for a fixed row
/// count, at any thread count.
inline void Merge(CellStats* into, const CellStats& from) {
  into->sum.Add(from.sum.sum);
  into->sum.Add(-from.sum.corr);
  into->sumsq.Add(from.sumsq.sum);
  into->sumsq.Add(-from.sumsq.corr);
  into->min = std::fmin(into->min, from.min);
  into->max = std::fmax(into->max, from.max);
  into->nnz += from.nnz;
  into->count += from.count;
  if (from.argmax_val > into->argmax_val) {
    into->argmax_val = from.argmax_val;
    into->argmax = from.argmax;
  }
  if (from.argmin_val < into->argmin_val) {
    into->argmin_val = from.argmin_val;
    into->argmin = from.argmin;
  }
}

inline double Finalize(AggOpCode op, const CellStats& s) {
  switch (op) {
    case AggOpCode::kSum: return s.sum.sum;
    case AggOpCode::kSumSq: return s.sumsq.sum;
    case AggOpCode::kMean: return s.count ? s.sum.sum / s.count : 0.0;
    case AggOpCode::kVar: {
      if (s.count < 2) return 0.0;
      double mean = s.sum.sum / s.count;
      return (s.sumsq.sum - s.count * mean * mean) / (s.count - 1);
    }
    case AggOpCode::kSd: {
      if (s.count < 2) return 0.0;
      double mean = s.sum.sum / s.count;
      double var = (s.sumsq.sum - s.count * mean * mean) / (s.count - 1);
      return std::sqrt(std::fmax(0.0, var));
    }
    case AggOpCode::kMin: return s.count ? s.min : 0.0;
    case AggOpCode::kMax: return s.count ? s.max : 0.0;
    case AggOpCode::kNnz: return static_cast<double>(s.nnz);
    case AggOpCode::kIndexMax: return static_cast<double>(s.argmax + 1);
    case AggOpCode::kIndexMin: return static_cast<double>(s.argmin + 1);
    case AggOpCode::kTrace: return s.sum.sum;
  }
  return std::nan("");
}

/// Sum-only dense-row fold: performs exactly the same rounded operations on
/// the Kahan state as a CellStats scan does on its `sum` field (same column
/// order, same v != 0.0 skip for kSum), so the result is bit-identical to
/// Finalize(kSum, stats) at a fraction of the per-cell cost. Shared by the
/// unfused aggregate kernels and the fused-pipeline runtime — sum is by far
/// the hottest aggregate and the full CellStats tracking (sumsq/min/max/
/// argmin/argmax) would dominate the scan otherwise.
inline void SumDenseRowInto(const double* row, int64_t cols, Kahan* k) {
  for (int64_t j = 0; j < cols; ++j) {
    double v = row[j];
    if (v != 0.0) k->Add(v);
  }
}

inline double SumDenseRow(const double* row, int64_t cols) {
  Kahan k;
  SumDenseRowInto(row, cols, &k);
  return k.sum;
}

/// Deterministic chunked full reduction over rows. `make_scan()` is invoked
/// once per chunk and must return a callable scan(r, CellStats*) that folds
/// row r (this lets callers allocate per-chunk scratch). Partials are merged
/// strictly in chunk order; with one chunk the result equals the serial scan.
template <typename MakeScan>
CellStats FullAggChunked(int64_t rows, int num_threads,
                         const MakeScan& make_scan) {
  if (rows <= 0) return CellStats();
  int64_t chunks = PickChunks(rows);
  std::vector<CellStats> partials(static_cast<size_t>(chunks));
  int64_t chunk_rows = (rows + chunks - 1) / chunks;
  ThreadPool::Global().ParallelFor(
      0, rows, chunks, [&](int64_t rb, int64_t re) {
        auto scan = make_scan();
        CellStats& s = partials[static_cast<size_t>(rb / chunk_rows)];
        for (int64_t r = rb; r < re; ++r) scan(r, &s);
      },
      Imbalance().agg, num_threads);
  CellStats total = partials[0];
  for (size_t i = 1; i < partials.size(); ++i) Merge(&total, partials[i]);
  return total;
}

/// Sum-only analogue of FullAggChunked: same chunking, and the chunk-ordered
/// merge performs the same two rounded adds per partial as agg::Merge does
/// for the sum field (partial.sum then -partial.corr) — bit-identical to a
/// CellStats reduction's sum. `make_scan()` returns scan(r, Kahan*).
template <typename MakeScan>
Kahan FullSumChunked(int64_t rows, int num_threads, const MakeScan& make_scan) {
  if (rows <= 0) return Kahan();
  int64_t chunks = PickChunks(rows);
  std::vector<Kahan> partials(static_cast<size_t>(chunks));
  int64_t chunk_rows = (rows + chunks - 1) / chunks;
  ThreadPool::Global().ParallelFor(
      0, rows, chunks, [&](int64_t rb, int64_t re) {
        auto scan = make_scan();
        Kahan& k = partials[static_cast<size_t>(rb / chunk_rows)];
        for (int64_t r = rb; r < re; ++r) scan(r, &k);
      },
      Imbalance().agg, num_threads);
  Kahan total = partials[0];
  for (size_t i = 1; i < partials.size(); ++i) {
    total.Add(partials[i].sum);
    total.Add(-partials[i].corr);
  }
  return total;
}

/// Deterministic chunked column reduction: like FullAggChunked but the scan
/// callable receives a per-column CellStats array (size cols).
template <typename MakeScan>
std::vector<CellStats> ColAggChunked(int64_t rows, int64_t cols,
                                     int num_threads,
                                     const MakeScan& make_scan) {
  std::vector<CellStats> total;
  if (rows <= 0) {
    total.assign(static_cast<size_t>(cols), CellStats());
    return total;
  }
  int64_t chunks = PickChunks(rows);
  std::vector<std::vector<CellStats>> partials(static_cast<size_t>(chunks));
  int64_t chunk_rows = (rows + chunks - 1) / chunks;
  ThreadPool::Global().ParallelFor(
      0, rows, chunks, [&](int64_t rb, int64_t re) {
        auto scan = make_scan();
        std::vector<CellStats>& s = partials[static_cast<size_t>(rb / chunk_rows)];
        s.assign(static_cast<size_t>(cols), CellStats());
        for (int64_t r = rb; r < re; ++r) scan(r, s.data());
      },
      Imbalance().agg, num_threads);
  for (std::vector<CellStats>& p : partials) {
    if (p.empty()) continue;
    if (total.empty()) {
      total = std::move(p);
      continue;
    }
    for (int64_t j = 0; j < cols; ++j) Merge(&total[j], p[j]);
  }
  if (total.empty()) total.assign(static_cast<size_t>(cols), CellStats());
  return total;
}

}  // namespace agg

/// Full aggregate to a scalar. Sums use Kahan-compensated accumulation like
/// SystemDS's KahanPlus; the chunk-ordered merge keeps results deterministic
/// for a fixed thread count.
StatusOr<double> AggregateAll(AggOpCode op, const MatrixBlock& a,
                              int num_threads);

/// Row aggregate (result rows x 1) or column aggregate (result 1 x cols).
StatusOr<MatrixBlock> AggregateRowCol(AggOpCode op, AggDirection dir,
                                      const MatrixBlock& a, int num_threads);

/// Column-wise cumulative sum (like DML cumsum).
MatrixBlock CumSum(const MatrixBlock& a);
/// Column-wise cumulative product / min / max.
MatrixBlock CumProd(const MatrixBlock& a);
MatrixBlock CumMin(const MatrixBlock& a);
MatrixBlock CumMax(const MatrixBlock& a);

}  // namespace sysds

#endif  // SYSDS_RUNTIME_MATRIX_LIB_AGG_H_
