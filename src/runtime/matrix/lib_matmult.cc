#include "runtime/matrix/lib_matmult.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/thread_pool.h"

namespace sysds {

namespace {

inline bool AllFinite(const double* v, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    if (!std::isfinite(v[i])) return false;
  }
  return true;
}

// Dense matmult core. One register-blocked micro-kernel computes dense gemm,
// left tsmm and tlmm. It holds an R x 16 tile of C in vector registers (an
// R x 8 tile for the column tail, single columns after that), broadcasts R
// values of the left operand A per step, multiplies them into 16 contiguous
// values of the right operand B's row, and walks the shared dimension l in
// order. Operands are pointer + strides:
//
//   call site   A(r, l)           B(l, j)
//   gemm        a[r * k + l]      b[l * n + j]
//   tsmm-left   x[l * n + r]      x[l * n + j]
//   tlmm        a[l * n + r]      b[l * ncols_b + j]
//
// so row-major X already supplies contiguous 16-wide strips and nothing is
// packed. Every cell of C starts from the value already stored in C and adds
// its products A(r, l) * B(l, j) in increasing l, with one rounding per
// multiply and one per add: this file is compiled with -ffp-contract=off, so
// no multiply-add is fused. A pass over the next block of l reloads the tile
// from C and keeps adding, so the sum order of every cell is that of a plain
// i-k-j loop, whatever the tiling or the instruction set. The core does not
// skip zeros of A: a skipped product is ±0, and adding ±0 to a sum that
// started at +0 (and so is never -0) changes no bit, while 0 * Inf or 0 * NaN
// must give NaN anyway (the unified zero-skip rule).

#define SYSDS_MATMULT_INLINE inline __attribute__((always_inline))

// Vector types of the three variants: 2, 4 or 8 doubles per register.
typedef double V2 __attribute__((vector_size(16)));
typedef double V4 __attribute__((vector_size(32)));
typedef double V8 __attribute__((vector_size(64)));

// One call of the core: C[m x n] += A[m x k] * B[k x n], where
// A(r, l) = a[r * a_row + l * a_step], B(l, j) = b[l * ldb + j] and
// C(r, j) = c[r * ldc + j]. With `upper`, rows only compute the columns of
// their tiles that reach the diagonal or beyond.
struct Panel {
  const double* a;
  const double* b;
  double* c;
  int64_t a_row, a_step, ldb, ldc;
  int64_t m, n, k;
  bool upper;
};

// C[0:R, 0:W] += A[0:R, 0:k] * B[0:k, 0:W] with the tile held in W/lanes
// vector registers per row.
template <typename V, int R, int W>
SYSDS_MATMULT_INLINE void Tile(const Panel& p, const double* a,
                               const double* b, double* c) {
  constexpr int kVecs = W / static_cast<int>(sizeof(V) / sizeof(double));
  constexpr int kLanes = W / kVecs;
  V acc[R][kVecs];
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 8
    for (int v = 0; v < kVecs; ++v) {
      std::memcpy(&acc[r][v], c + r * p.ldc + kLanes * v, sizeof(V));
    }
  }
  for (int64_t l = 0; l < p.k; ++l) {
    const double* bl = b + l * p.ldb;
    const double* al = a + l * p.a_step;
    double av[R];
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) av[r] = al[r * p.a_row];
#pragma GCC unroll 8
    for (int v = 0; v < kVecs; ++v) {
      V bv;
      std::memcpy(&bv, bl + kLanes * v, sizeof(V));
#pragma GCC unroll 8
      for (int r = 0; r < R; ++r) acc[r][v] += av[r] * bv;
    }
  }
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 8
    for (int v = 0; v < kVecs; ++v) {
      std::memcpy(c + r * p.ldc + kLanes * v, &acc[r][v], sizeof(V));
    }
  }
}

// One column of C for R rows (the tail narrower than 8 columns).
template <int R>
SYSDS_MATMULT_INLINE void Column(const Panel& p, const double* a,
                                 const double* b, double* c) {
  double acc[R];
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) acc[r] = c[r * p.ldc];
  for (int64_t l = 0; l < p.k; ++l) {
    const double bv = b[l * p.ldb];
    const double* al = a + l * p.a_step;
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) acc[r] += al[r * p.a_row] * bv;
  }
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) c[r * p.ldc] = acc[r];
}

// Rows [i, m) of C in blocks of R rows, then the remainder in blocks of
// R/2, R/4, ..., 1. Each block covers its columns with 16-wide tiles, one
// 8-wide tile, then single columns; with `upper`, a block starting at row i
// starts at column i, so it computes every cell on or above the diagonal
// plus the few below it that share a tile with the diagonal.
template <typename V, int R>
SYSDS_MATMULT_INLINE void Rows(const Panel& p, int64_t i) {
  for (; i + R <= p.m; i += R) {
    const double* a = p.a + i * p.a_row;
    double* c = p.c + i * p.ldc;
    int64_t j = p.upper ? i : 0;
    for (; j + 16 <= p.n; j += 16) Tile<V, R, 16>(p, a, p.b + j, c + j);
    if (j + 8 <= p.n) {
      Tile<V, R, 8>(p, a, p.b + j, c + j);
      j += 8;
    }
    for (; j < p.n; ++j) Column<R>(p, a, p.b + j, c + j);
  }
  if constexpr (R > 1) Rows<V, R / 2>(p, i);
}

// The instruction-set variants inline the same templates; only the vector
// width and the row-block height (as many rows as the register file holds)
// differ.
using PanelFn = void (*)(const Panel&);

void PanelGeneric(const Panel& p) { Rows<V2, 2>(p, 0); }

#if defined(__x86_64__)
__attribute__((target("avx2"))) void PanelAvx2(const Panel& p) {
  Rows<V4, 4>(p, 0);
}

__attribute__((target("avx512f"))) void PanelAvx512(const Panel& p) {
  Rows<V8, 8>(p, 0);
}
#endif

PanelFn PanelFor(internal::MatMultIsa isa) {
  switch (isa) {
#if defined(__x86_64__)
    case internal::MatMultIsa::kAvx512:
      return PanelAvx512;
    case internal::MatMultIsa::kAvx2:
      return PanelAvx2;
#endif
    default:
      return PanelGeneric;
  }
}

// Shared-dimension steps per pass: a pass's rows of B (and, for tsmm and
// tlmm, of A) stay in L2 while every tile of C streams over them.
constexpr int64_t kBlockK = 256;
// gemm columns per pass: a kBlockK x kBlockN block of B is 1 MB.
constexpr int64_t kBlockN = 512;

}  // namespace

namespace internal {

bool IsaSupported(MatMultIsa isa) {
  switch (isa) {
    case MatMultIsa::kGeneric:
      return true;
#if defined(__x86_64__)
    case MatMultIsa::kAvx2:
      __builtin_cpu_init();
      return __builtin_cpu_supports("avx2");
    case MatMultIsa::kAvx512:
      __builtin_cpu_init();
      return __builtin_cpu_supports("avx512f");
#endif
    default:
      return false;
  }
}

MatMultIsa SelectedIsa() {
  static const MatMultIsa selected = [] {
    for (MatMultIsa isa : {MatMultIsa::kAvx512, MatMultIsa::kAvx2}) {
      if (IsaSupported(isa)) return isa;
    }
    return MatMultIsa::kGeneric;
  }();
  return selected;
}

void GemmDense(const double* a, const double* b, double* c, int64_t m,
               int64_t n, int64_t k, MatMultIsa isa) {
  PanelFn panel = PanelFor(isa);
  for (int64_t l0 = 0; l0 < k; l0 += kBlockK) {
    for (int64_t j0 = 0; j0 < n; j0 += kBlockN) {
      panel({.a = a + l0,
             .b = b + l0 * n + j0,
             .c = c + j0,
             .a_row = k,
             .a_step = 1,
             .ldb = n,
             .ldc = n,
             .m = m,
             .n = std::min(kBlockN, n - j0),
             .k = std::min(kBlockK, k - l0),
             .upper = false});
    }
  }
}

void TsmmLeftDense(const double* x, double* c, int64_t m, int64_t n,
                   MatMultIsa isa) {
  PanelFn panel = PanelFor(isa);
  for (int64_t l0 = 0; l0 < m; l0 += kBlockK) {
    panel({.a = x + l0 * n,
           .b = x + l0 * n,
           .c = c,
           .a_row = 1,
           .a_step = n,
           .ldb = n,
           .ldc = n,
           .m = n,
           .n = n,
           .k = std::min(kBlockK, m - l0),
           .upper = true});
  }
}

void TlmmDense(const double* a, const double* b, double* c, int64_t m,
               int64_t n, int64_t l, MatMultIsa isa) {
  PanelFn panel = PanelFor(isa);
  for (int64_t l0 = 0; l0 < m; l0 += kBlockK) {
    panel({.a = a + l0 * n,
           .b = b + l0 * l,
           .c = c,
           .a_row = 1,
           .a_step = n,
           .ldb = l,
           .ldc = l,
           .m = n,
           .n = l,
           .k = std::min(kBlockK, m - l0),
           .upper = false});
  }
}

}  // namespace internal

namespace {

void GemmDenseRows(const MatrixBlock& a, const MatrixBlock& b, MatrixBlock* c,
                   int64_t rbeg, int64_t rend) {
  int64_t n = b.Cols(), k = a.Cols();
  const double* pa = a.DenseData() + rbeg * k;
  double* pc = c->DenseData() + rbeg * n;
  internal::GemmDense(pa, b.DenseData(), pc, rend - rbeg, n, k);
}

// C rows [rbeg,rend): sparse A times dense B.
void GemmSparseDenseRows(const MatrixBlock& a, const MatrixBlock& b,
                         MatrixBlock* c, int64_t rbeg, int64_t rend) {
  int64_t n = b.Cols();
  for (int64_t i = rbeg; i < rend; ++i) {
    const SparseRow& row = a.SparseData().Row(i);
    double* crow = c->DenseRow(i);
    for (int64_t p = 0; p < row.Size(); ++p) {
      double aval = row.Values()[p];
      const double* brow = b.DenseRow(row.Indexes()[p]);
      for (int64_t j = 0; j < n; ++j) crow[j] += aval * brow[j];
    }
  }
}

void GemmDenseSparseRows(const MatrixBlock& a, const MatrixBlock& b,
                         MatrixBlock* c, int64_t rbeg, int64_t rend) {
  int64_t k = a.Cols();
  // Unified zero-skip rule: a zero in A may skip B's row l only when that
  // row is finite everywhere, so 0 * Inf still propagates NaN as in the
  // dense kernels. Row states are memoized lazily: -1 unknown, 0 has a
  // nonfinite value, 1 finite.
  std::vector<int8_t> b_row_finite;
  auto b_row_all_finite = [&](int64_t l) {
    if (b_row_finite.empty()) b_row_finite.assign(static_cast<size_t>(k), -1);
    int8_t& st = b_row_finite[static_cast<size_t>(l)];
    if (st < 0) {
      const SparseRow& row = b.SparseData().Row(l);
      st = AllFinite(row.Values(), row.Size()) ? 1 : 0;
    }
    return st == 1;
  };
  for (int64_t i = rbeg; i < rend; ++i) {
    const double* arow = a.DenseRow(i);
    double* crow = c->DenseRow(i);
    for (int64_t l = 0; l < k; ++l) {
      double aval = arow[l];
      if (aval == 0.0 && b_row_all_finite(l)) continue;
      const SparseRow& brow = b.SparseData().Row(l);
      for (int64_t p = 0; p < brow.Size(); ++p) {
        crow[brow.Indexes()[p]] += aval * brow.Values()[p];
      }
    }
  }
}

void GemmSparseSparseRows(const MatrixBlock& a, const MatrixBlock& b,
                          MatrixBlock* c, int64_t rbeg, int64_t rend) {
  for (int64_t i = rbeg; i < rend; ++i) {
    const SparseRow& arow = a.SparseData().Row(i);
    double* crow = c->DenseRow(i);
    for (int64_t p = 0; p < arow.Size(); ++p) {
      double aval = arow.Values()[p];
      const SparseRow& brow = b.SparseData().Row(arow.Indexes()[p]);
      for (int64_t q = 0; q < brow.Size(); ++q) {
        crow[brow.Indexes()[q]] += aval * brow.Values()[q];
      }
    }
  }
}

// Mirrors the computed upper triangle of an n x n dense symmetric result
// into the lower triangle, row-parallel (each row i writes only its own
// cells [0, i) and reads completed upper-triangle cells).
void MirrorLowerTriangle(double* pc, int64_t n, int num_threads) {
  ThreadPool::Global().ParallelFor(
      0, n, PickChunks(n),
      [&](int64_t rb, int64_t re) {
        for (int64_t i = rb; i < re; ++i) {
          for (int64_t j = 0; j < i; ++j) pc[i * n + j] = pc[j * n + i];
        }
      },
      nullptr, num_threads);
}

// Deterministic pairwise tree reduction over chunk-id-indexed partials:
// level `stride` adds partials[i + stride] into partials[i] for
// i = 0, 2*stride, 4*stride, ... — pairs touch disjoint slots, so the
// levels run chunk-parallel while the addition order stays a pure function
// of the chunk ids: the reduced result is bit-identical across thread
// counts, scheduling orders, and repeated runs. Empty slots (chunks that
// never ran, possible when the geometry leaves a tail chunk empty) are
// skipped or moved, which is itself determined by the geometry alone.
void TreeReducePartials(std::vector<std::vector<double>>* partials,
                        int64_t len, int num_threads) {
  auto& parts = *partials;
  int64_t count = static_cast<int64_t>(parts.size());
  for (int64_t stride = 1; stride < count; stride *= 2) {
    int64_t pairs = (count - stride + 2 * stride - 1) / (2 * stride);
    ThreadPool::Global().ParallelFor(
        0, pairs, pairs,
        [&](int64_t pb, int64_t pe) {
          for (int64_t t = pb; t < pe; ++t) {
            int64_t i = t * 2 * stride;
            int64_t j = i + stride;
            if (j >= count) continue;
            std::vector<double>& dst = parts[static_cast<size_t>(i)];
            std::vector<double>& src = parts[static_cast<size_t>(j)];
            if (src.empty()) continue;
            if (dst.empty()) {
              dst = std::move(src);
            } else {
              for (int64_t x = 0; x < len; ++x) dst[x] += src[x];
            }
            std::vector<double>().swap(src);
          }
        },
        Imbalance().matmult_reduce, num_threads);
  }
}

// Sums accumulate(rb, re, acc) over row chunks of [0, m) into a dense
// rows x cols block. Each chunk adds its rows into its own zeroed partial;
// the chunk count is bounded by the rows*cols scratch each chunk holds.
// Chunks split on row nnz when `weights` (the input whose rows are split)
// is sparse, on row count otherwise, and TreeReducePartials adds the
// partials by chunk id, so the sum is bit-identical at any thread count.
template <typename Accumulate>
MatrixBlock SumRowChunks(int64_t m, int64_t rows, int64_t cols,
                         const MatrixBlock& weights, Accumulate accumulate,
                         obs::Histogram* imbalance, int num_threads) {
  const int64_t len = rows * cols;
  int64_t chunks = PickChunksBounded(m, len * 8);
  std::vector<std::vector<double>> partials(static_cast<size_t>(chunks));
  auto run = [&](int64_t rb, int64_t re, int64_t ci) {
    std::vector<double>& acc = partials[static_cast<size_t>(ci)];
    acc.assign(static_cast<size_t>(len), 0.0);
    accumulate(rb, re, acc.data());
  };
  if (weights.IsSparse()) {
    ThreadPool::Global().ParallelForWeighted(
        0, m, chunks,
        [&](int64_t i) { return weights.SparseData().Row(i).Size() + 1; },
        run, imbalance, num_threads);
  } else {
    int64_t chunk_rows = (m + chunks - 1) / chunks;
    ThreadPool::Global().ParallelFor(
        0, m, chunks,
        [&](int64_t rb, int64_t re) { run(rb, re, rb / chunk_rows); },
        imbalance, num_threads);
  }
  TreeReducePartials(&partials, len, num_threads);
  MatrixBlock c = MatrixBlock::Dense(rows, cols);
  if (!partials.empty() && !partials[0].empty()) {
    std::memcpy(c.DenseData(), partials[0].data(),
                static_cast<size_t>(len) * sizeof(double));
  }
  return c;
}

}  // namespace

StatusOr<MatrixBlock> MatMult(const MatrixBlock& a, const MatrixBlock& b,
                              int num_threads) {
  if (a.Cols() != b.Rows()) {
    return InvalidArgument("matmult dimension mismatch: " +
                           std::to_string(a.Cols()) + " vs " +
                           std::to_string(b.Rows()));
  }
  MatrixBlock c = MatrixBlock::Dense(a.Rows(), b.Cols());
  int64_t chunks = PickChunks(a.Rows());
  auto run = [&](auto fn) {
    ThreadPool::Global().ParallelFor(
        0, a.Rows(), chunks,
        [&](int64_t rb, int64_t re) { fn(a, b, &c, rb, re); },
        Imbalance().matmult, num_threads);
  };
  // Sparse-A paths split on cumulative row nnz instead of row count so a
  // few dense rows cannot straggle one chunk; output rows stay disjoint, so
  // the weighted boundaries (a pure function of the nnz structure) keep
  // results bit-identical at any thread count.
  auto run_weighted = [&](auto fn) {
    ThreadPool::Global().ParallelForWeighted(
        0, a.Rows(), chunks,
        [&](int64_t i) { return a.SparseData().Row(i).Size() + 1; },
        [&](int64_t rb, int64_t re, int64_t) { fn(a, b, &c, rb, re); },
        Imbalance().matmult, num_threads);
  };
  if (!a.IsSparse() && !b.IsSparse()) {
    run(GemmDenseRows);
  } else if (a.IsSparse() && !b.IsSparse()) {
    run_weighted(GemmSparseDenseRows);
  } else if (!a.IsSparse() && b.IsSparse()) {
    run(GemmDenseSparseRows);
  } else {
    run_weighted(GemmSparseSparseRows);
  }
  c.MarkNnzDirty();
  c.ExamSparsity();
  return c;
}

StatusOr<MatrixBlock> TransposeSelfMatMult(const MatrixBlock& x, bool left,
                                           int num_threads) {
  if (!left) {
    // Right tsmm X %*% t(X): C[i,j] = dot(row_i, row_j), symmetric m x m,
    // computed as per-cell dot products over the upper triangle and then
    // mirrored. Row i costs ~(m - i) dot products — triangular skew — so
    // chunks split on that weight rather than on the row count.
    int64_t m = x.Rows(), k = x.Cols();
    MatrixBlock c = MatrixBlock::Dense(m, m);
    ThreadPool::Global().ParallelForWeighted(
        0, m, PickChunks(m), [m](int64_t i) { return m - i; },
        [&](int64_t rb, int64_t re, int64_t) {
          for (int64_t i = rb; i < re; ++i) {
            for (int64_t j = i; j < m; ++j) {
              double sum = 0.0;
              if (!x.IsSparse()) {
                const double* ri = x.DenseRow(i);
                const double* rj = x.DenseRow(j);
                for (int64_t l = 0; l < k; ++l) sum += ri[l] * rj[l];
              } else {
                const SparseRow& ri = x.SparseData().Row(i);
                const SparseRow& rj = x.SparseData().Row(j);
                int64_t p = 0, q = 0;
                while (p < ri.Size() && q < rj.Size()) {
                  int64_t ci = ri.Indexes()[p], cj = rj.Indexes()[q];
                  if (ci == cj) sum += ri.Values()[p++] * rj.Values()[q++];
                  else if (ci < cj) ++p;
                  else ++q;
                }
              }
              c.DenseRow(i)[j] = sum;
            }
          }
        },
        Imbalance().tsmm, num_threads);
    // Mirror the upper triangle.
    MirrorLowerTriangle(c.DenseData(), m, num_threads);
    c.MarkNnzDirty();
    c.ExamSparsity();
    return c;
  }

  // Left tsmm: C = t(X) %*% X, n x n symmetric. Each chunk of rows
  // accumulates the upper triangle of t(X_chunk) %*% X_chunk (the dense core
  // for dense X), which is then mirrored into the lower triangle.
  int64_t m = x.Rows(), n = x.Cols();
  MatrixBlock c = SumRowChunks(
      m, n, n, x,
      [&](int64_t rb, int64_t re, double* acc) {
        if (!x.IsSparse()) {
          internal::TsmmLeftDense(x.DenseRow(rb), acc, re - rb, n);
          return;
        }
        for (int64_t i = rb; i < re; ++i) {
          const SparseRow& row = x.SparseData().Row(i);
          for (int64_t p = 0; p < row.Size(); ++p) {
            double v = row.Values()[p];
            double* arow = acc + row.Indexes()[p] * n;
            for (int64_t q = p; q < row.Size(); ++q) {
              arow[row.Indexes()[q]] += v * row.Values()[q];
            }
          }
        }
      },
      Imbalance().tsmm, num_threads);
  MirrorLowerTriangle(c.DenseData(), n, num_threads);
  c.MarkNnzDirty();
  c.ExamSparsity();
  return c;
}

StatusOr<MatrixBlock> TransposeLeftMatMult(const MatrixBlock& a,
                                           const MatrixBlock& b,
                                           int num_threads) {
  if (a.Rows() != b.Rows()) {
    return InvalidArgument("t(A)%*%B dimension mismatch: " +
                           std::to_string(a.Rows()) + " vs " +
                           std::to_string(b.Rows()));
  }
  // C = t(A) %*% B as a sum over shared rows (C += a_i b_i^T).
  int64_t m = a.Rows(), n = a.Cols(), l = b.Cols();
  MatrixBlock c = SumRowChunks(
      m, n, l, a,
      [&](int64_t rb, int64_t re, double* acc) {
        if (!a.IsSparse() && !b.IsSparse()) {
          internal::TlmmDense(a.DenseRow(rb), b.DenseRow(rb), acc, re - rb, n,
                              l);
          return;
        }
        for (int64_t i = rb; i < re; ++i) {
          if (a.IsSparse() && !b.IsSparse()) {
            const SparseRow& arow = a.SparseData().Row(i);
            const double* brow = b.DenseRow(i);
            for (int64_t p = 0; p < arow.Size(); ++p) {
              double v = arow.Values()[p];
              double* crow = acc + arow.Indexes()[p] * l;
              for (int64_t q = 0; q < l; ++q) crow[q] += v * brow[q];
            }
          } else if (!a.IsSparse() && b.IsSparse()) {
            const double* arow = a.DenseRow(i);
            const SparseRow& brow = b.SparseData().Row(i);
            // Unified zero-skip rule: skip a zero in A only when B's row i
            // is finite everywhere (0 * Inf must stay NaN, like the dense
            // kernels).
            int brow_finite = -1;
            for (int64_t p = 0; p < n; ++p) {
              double v = arow[p];
              if (v == 0.0) {
                if (brow_finite < 0) {
                  brow_finite = AllFinite(brow.Values(), brow.Size()) ? 1 : 0;
                }
                if (brow_finite == 1) continue;
              }
              double* crow = acc + p * l;
              for (int64_t q = 0; q < brow.Size(); ++q) {
                crow[brow.Indexes()[q]] += v * brow.Values()[q];
              }
            }
          } else {
            const SparseRow& arow = a.SparseData().Row(i);
            const SparseRow& brow = b.SparseData().Row(i);
            for (int64_t p = 0; p < arow.Size(); ++p) {
              double v = arow.Values()[p];
              double* crow = acc + arow.Indexes()[p] * l;
              for (int64_t q = 0; q < brow.Size(); ++q) {
                crow[brow.Indexes()[q]] += v * brow.Values()[q];
              }
            }
          }
        }
      },
      Imbalance().tlmm, num_threads);
  c.MarkNnzDirty();
  c.ExamSparsity();
  return c;
}

}  // namespace sysds
