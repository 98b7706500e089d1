// Bit-identity of the dense matmult core. The oracles below are plain dense
// loops with the unified zero-skip rule: a cache-blocked i-k-j gemm and the
// row-by-row rank-1 updates of left tsmm and dense tlmm. Every
// instruction-set variant the host supports must reproduce them bit for
// bit, through the internal entry points and through the public operators.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "runtime/matrix/lib_datagen.h"
#include "runtime/matrix/lib_matmult.h"

namespace sysds {
namespace {

using internal::MatMultIsa;

bool AllFinite(const double* v, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    if (!std::isfinite(v[i])) return false;
  }
  return true;
}

// Cache-blocked i-k-j gemm: C += A B, skipping a zero of A when B's row is
// finite everywhere.
void OracleGemm(const double* a, const double* b, double* c, int64_t m,
                int64_t n, int64_t k) {
  constexpr int64_t kBlockK = 128;
  constexpr int64_t kBlockJ = 512;
  std::vector<int8_t> b_row_finite;  // -1 unknown, 0 has nonfinite, 1 finite
  auto b_row_all_finite = [&](int64_t l) {
    if (b_row_finite.empty()) b_row_finite.assign(static_cast<size_t>(k), -1);
    int8_t st = b_row_finite[static_cast<size_t>(l)];
    if (st < 0) {
      st = AllFinite(b + l * n, n) ? 1 : 0;
      b_row_finite[static_cast<size_t>(l)] = st;
    }
    return st == 1;
  };
  for (int64_t kk = 0; kk < k; kk += kBlockK) {
    int64_t kend = std::min(k, kk + kBlockK);
    for (int64_t jj = 0; jj < n; jj += kBlockJ) {
      int64_t jend = std::min(n, jj + kBlockJ);
      for (int64_t i = 0; i < m; ++i) {
        const double* arow = a + i * k;
        double* crow = c + i * n;
        for (int64_t l = kk; l < kend; ++l) {
          double aval = arow[l];
          if (aval == 0.0 && b_row_all_finite(l)) continue;
          const double* brow = b + l * n;
          for (int64_t j = jj; j < jend; ++j) crow[j] += aval * brow[j];
        }
      }
    }
  }
}

// Left tsmm rank-1 updates: the upper triangle of acc += t(X) X.
void OracleTsmmLeft(const double* x, double* acc, int64_t m, int64_t n) {
  for (int64_t i = 0; i < m; ++i) {
    const double* row = x + i * n;
    int row_finite = -1;
    for (int64_t p = 0; p < n; ++p) {
      double v = row[p];
      if (v == 0.0) {
        if (row_finite < 0) row_finite = AllFinite(row, n) ? 1 : 0;
        if (row_finite == 1) continue;
      }
      double* arow = acc + p * n;
      for (int64_t q = p; q < n; ++q) arow[q] += v * row[q];
    }
  }
}

// Dense tlmm rank-1 updates: acc += t(A) B.
void OracleTlmm(const double* a, const double* b, double* acc, int64_t m,
                int64_t n, int64_t l) {
  for (int64_t i = 0; i < m; ++i) {
    const double* arow = a + i * n;
    const double* brow = b + i * l;
    int brow_finite = -1;
    for (int64_t p = 0; p < n; ++p) {
      double v = arow[p];
      if (v == 0.0) {
        if (brow_finite < 0) brow_finite = AllFinite(brow, l) ? 1 : 0;
        if (brow_finite == 1) continue;
      }
      double* crow = acc + p * l;
      for (int64_t q = 0; q < l; ++q) crow[q] += v * brow[q];
    }
  }
}

// The public tsmm/tlmm path around the loops: one partial per chunk of the
// kernel's row geometry, reduced pairwise by chunk id.
std::vector<double> ChunkedOracle(
    int64_t m, int64_t len, int64_t chunks,
    const std::function<void(int64_t, int64_t, double*)>& part) {
  std::vector<std::vector<double>> parts(static_cast<size_t>(chunks));
  int64_t chunk_rows = (m + chunks - 1) / chunks;
  for (int64_t c = 0; c < chunks; ++c) {
    int64_t rb = c * chunk_rows, re = std::min(m, rb + chunk_rows);
    if (rb >= re) continue;
    parts[static_cast<size_t>(c)].assign(static_cast<size_t>(len), 0.0);
    part(rb, re, parts[static_cast<size_t>(c)].data());
  }
  for (int64_t stride = 1; stride < chunks; stride *= 2) {
    for (int64_t i = 0; i + stride < chunks; i += 2 * stride) {
      std::vector<double>& dst = parts[static_cast<size_t>(i)];
      std::vector<double>& src = parts[static_cast<size_t>(i + stride)];
      if (src.empty()) continue;
      if (dst.empty()) {
        dst = std::move(src);
      } else {
        for (int64_t x = 0; x < len; ++x) dst[x] += src[x];
      }
      std::vector<double>().swap(src);
    }
  }
  if (parts[0].empty()) parts[0].assign(static_cast<size_t>(len), 0.0);
  return parts[0];
}

uint64_t Bits(double v) {
  uint64_t x;
  std::memcpy(&x, &v, sizeof(x));
  return x;
}

// Compares an r x c row-major result bit for bit; with `upper_only`, only
// the cells on or above the diagonal. A NaN cell must be NaN on both sides,
// but its sign and payload are not compared: where two NaNs meet in one
// addition (e.g. 0 * Inf = -NaN and a +NaN input), IEEE 754 leaves the
// result's payload to the implementation, x86 returns the first operand's,
// and the compiler orders commutative operands as it likes. The oracle loops
// keep the later NaN, the portable kernel the earlier one.
::testing::AssertionResult BitIdentical(const double* want, const double* got,
                                        int64_t rows, int64_t cols,
                                        bool upper_only = false) {
  for (int64_t i = 0; i < rows; ++i) {
    for (int64_t j = upper_only ? i : 0; j < cols; ++j) {
      double w = want[i * cols + j], g = got[i * cols + j];
      bool same = std::isnan(w) ? std::isnan(g) : Bits(w) == Bits(g);
      if (!same) {
        return ::testing::AssertionFailure()
               << "bit mismatch at (" << i << "," << j << "): want " << w
               << " got " << g;
      }
    }
  }
  return ::testing::AssertionSuccess();
}

// Uniform values in [-1, 1) plus the cases the zero-skip rule is about: a
// row with zeros (every third entry), an all-zero column, a +Inf and a NaN.
MatrixBlock Input(int64_t rows, int64_t cols, uint64_t seed) {
  MatrixBlock m = *RandMatrix(rows, cols, -1.0, 1.0, 1.0, seed,
                              RandPdf::kUniform, 1);
  double* d = m.DenseData();
  int64_t zero_row = rows / 2, zero_col = cols / 2;
  for (int64_t j = 0; j < cols; j += 3) d[zero_row * cols + j] = 0.0;
  if (cols > 2) {
    for (int64_t i = 0; i < rows; ++i) d[i * cols + zero_col] = 0.0;
  }
  if (rows > 1) {
    d[(rows / 3) * cols + cols - 1] = std::numeric_limits<double>::infinity();
    d[(rows - 1) * cols] = std::numeric_limits<double>::quiet_NaN();
  }
  return m;
}

std::vector<MatMultIsa> SupportedIsas() {
  std::vector<MatMultIsa> isas;
  for (MatMultIsa isa :
       {MatMultIsa::kGeneric, MatMultIsa::kAvx2, MatMultIsa::kAvx512}) {
    if (internal::IsaSupported(isa)) isas.push_back(isa);
  }
  return isas;
}

std::string Name(MatMultIsa isa) {
  switch (isa) {
    case MatMultIsa::kGeneric:
      return "generic";
    case MatMultIsa::kAvx2:
      return "avx2";
    case MatMultIsa::kAvx512:
      return "avx512";
  }
  return "?";
}

const int64_t kWidths[] = {1, 2, 7, 8, 9, 15, 16, 17, 21, 33, 200};

TEST(MatMultCoreTest, SelectedIsaIsSupported) {
  EXPECT_TRUE(internal::IsaSupported(MatMultIsa::kGeneric));
  EXPECT_TRUE(internal::IsaSupported(internal::SelectedIsa()));
}

TEST(MatMultCoreTest, GemmBitIdenticalToOracleForEveryIsa) {
  for (MatMultIsa isa : SupportedIsas()) {
    for (int64_t n : kWidths) {
      // m = 13 is below one chunk; k = 300 spans two k-blocks of the core.
      for (int64_t m : {13, 203}) {
        for (int64_t k : {5, 300}) {
          MatrixBlock a = Input(m, k, 1), b = Input(k, n, 2);
          std::vector<double> want(static_cast<size_t>(m * n), 0.0);
          std::vector<double> got(want.size(), 0.0);
          OracleGemm(a.DenseData(), b.DenseData(), want.data(), m, n, k);
          internal::GemmDense(a.DenseData(), b.DenseData(), got.data(), m, n,
                              k, isa);
          EXPECT_TRUE(BitIdentical(want.data(), got.data(), m, n))
              << Name(isa) << " m=" << m << " n=" << n << " k=" << k;
        }
      }
    }
  }
}

TEST(MatMultCoreTest, GemmColumnBlocksBitIdenticalForEveryIsa) {
  const int64_t m = 37, n = 530, k = 70;  // n spans two column blocks
  MatrixBlock a = Input(m, k, 3), b = Input(k, n, 4);
  std::vector<double> want(static_cast<size_t>(m * n), 0.0);
  OracleGemm(a.DenseData(), b.DenseData(), want.data(), m, n, k);
  for (MatMultIsa isa : SupportedIsas()) {
    std::vector<double> got(want.size(), 0.0);
    internal::GemmDense(a.DenseData(), b.DenseData(), got.data(), m, n, k,
                        isa);
    EXPECT_TRUE(BitIdentical(want.data(), got.data(), m, n)) << Name(isa);
  }
}

TEST(MatMultCoreTest, TsmmLeftBitIdenticalToOracleForEveryIsa) {
  for (MatMultIsa isa : SupportedIsas()) {
    for (int64_t n : kWidths) {
      // m = 300 spans two k-blocks of the core.
      for (int64_t m : {13, 203, 300}) {
        MatrixBlock x = Input(m, n, 5);
        std::vector<double> want(static_cast<size_t>(n * n), 0.0);
        std::vector<double> got(want.size(), 0.0);
        OracleTsmmLeft(x.DenseData(), want.data(), m, n);
        internal::TsmmLeftDense(x.DenseData(), got.data(), m, n, isa);
        EXPECT_TRUE(BitIdentical(want.data(), got.data(), n, n,
                                 /*upper_only=*/true))
            << Name(isa) << " m=" << m << " n=" << n;
      }
    }
  }
}

TEST(MatMultCoreTest, TlmmBitIdenticalToOracleForEveryIsa) {
  for (MatMultIsa isa : SupportedIsas()) {
    for (int64_t n : kWidths) {
      for (int64_t l : {int64_t{1}, int64_t{9}, n}) {
        for (int64_t m : {13, 300}) {
          MatrixBlock a = Input(m, n, 6), b = Input(m, l, 7);
          std::vector<double> want(static_cast<size_t>(n * l), 0.0);
          std::vector<double> got(want.size(), 0.0);
          OracleTlmm(a.DenseData(), b.DenseData(), want.data(), m, n, l);
          internal::TlmmDense(a.DenseData(), b.DenseData(), got.data(), m, n,
                              l, isa);
          EXPECT_TRUE(BitIdentical(want.data(), got.data(), n, l))
              << Name(isa) << " m=" << m << " n=" << n << " l=" << l;
        }
      }
    }
  }
}

// The public tsmm/tlmm split rows into PickChunksBounded chunks and reduce
// the per-chunk partials pairwise by chunk id, so they equal the oracles run
// the same way. m = 13 is one chunk; m = 203 is not a multiple of its chunk
// size.
TEST(MatMultCoreTest, PublicOperatorsBitIdenticalToChunkedOracles) {
  for (int64_t n : kWidths) {
    for (int64_t m : {13, 203}) {
      MatrixBlock x = Input(m, n, 8), b = Input(m, 9, 9);
      MatrixBlock bg = Input(n, 9, 10);

      std::vector<double> want_gemm(static_cast<size_t>(m * 9), 0.0);
      OracleGemm(x.DenseData(), bg.DenseData(), want_gemm.data(), m, 9, n);

      std::vector<double> want_tsmm = ChunkedOracle(
          m, n * n, PickChunksBounded(m, n * n * 8),
          [&](int64_t rb, int64_t re, double* acc) {
            OracleTsmmLeft(x.DenseRow(rb), acc, re - rb, n);
          });
      for (int64_t i = 0; i < n; ++i) {
        for (int64_t j = 0; j < i; ++j) {
          want_tsmm[i * n + j] = want_tsmm[j * n + i];
        }
      }

      std::vector<double> want_tlmm = ChunkedOracle(
          m, n * 9, PickChunksBounded(m, n * 9 * 8),
          [&](int64_t rb, int64_t re, double* acc) {
            OracleTlmm(x.DenseRow(rb), b.DenseRow(rb), acc, re - rb, n, 9);
          });

      for (int t : {1, 4}) {
        auto gemm = MatMult(x, bg, t);
        auto tsmm = TransposeSelfMatMult(x, /*left=*/true, t);
        auto tlmm = TransposeLeftMatMult(x, b, t);
        ASSERT_TRUE(gemm.ok() && tsmm.ok() && tlmm.ok());
        MatrixBlock g = *gemm, s = *tsmm, tl = *tlmm;
        g.ToDense();
        s.ToDense();
        tl.ToDense();
        EXPECT_TRUE(BitIdentical(want_gemm.data(), g.DenseData(), m, 9))
            << "gemm m=" << m << " n=" << n << " t=" << t;
        EXPECT_TRUE(BitIdentical(want_tsmm.data(), s.DenseData(), n, n))
            << "tsmm m=" << m << " n=" << n << " t=" << t;
        EXPECT_TRUE(BitIdentical(want_tlmm.data(), tl.DenseData(), n, 9))
            << "tlmm m=" << m << " n=" << n << " t=" << t;
      }
    }
  }
}

// Unified zero-skip rule on the dense-A x sparse-B paths: a zero of A may
// only be skipped when B's row is finite, so 0 * Inf gives NaN exactly as
// with dense B. B is 3 x 6 with an Inf at (1, 5); A's middle entry is 0.
MatrixBlock ReproB() {
  const double inf = std::numeric_limits<double>::infinity();
  return MatrixBlock::FromValues(3, 6, {0, 0, 0, 0, 0, 1,  //
                                        0, 0, 4, 0, 0, inf,  //
                                        3, 0, 0, 0, 0, 0});
}

// Half-zero values in dense format.
MatrixBlock HalfZeros(int64_t rows, int64_t cols, uint64_t seed) {
  MatrixBlock m = *RandMatrix(rows, cols, -1.0, 1.0, 0.5, seed,
                              RandPdf::kUniform, 1);
  m.ToDense();
  return m;
}

// 10% nonzeros plus an Inf in row 0 and a NaN in row 7, in dense format.
MatrixBlock SparseValuesWithInfNaN(int64_t rows, int64_t cols) {
  MatrixBlock m = *RandMatrix(rows, cols, -1.0, 1.0, 0.1, 12,
                              RandPdf::kUniform, 1);
  m.ToDense();
  m.Set(0, 3, std::numeric_limits<double>::infinity());
  m.Set(7, 1, std::numeric_limits<double>::quiet_NaN());
  return m;
}

MatrixBlock DenseOf(const MatrixBlock& m) {
  MatrixBlock d = m;
  d.ToDense();
  return d;
}

TEST(ZeroSkipTest, DenseTimesSparseMatchesDenseTimesDense) {
  MatrixBlock a = MatrixBlock::FromValues(1, 3, {1, 0, 2});
  MatrixBlock bd = ReproB(), bs = ReproB();
  bs.ToSparse();
  ASSERT_TRUE(bs.IsSparse());
  MatrixBlock want = DenseOf(*MatMult(a, bd, 1));
  MatrixBlock got = DenseOf(*MatMult(a, bs, 1));
  EXPECT_TRUE(std::isnan(want.Get(0, 5)));
  EXPECT_TRUE(BitIdentical(want.DenseData(), got.DenseData(), 1, 6));

  MatrixBlock ra = HalfZeros(40, 30, 11), rb = SparseValuesWithInfNaN(30, 20);
  MatrixBlock rbs = rb;
  rbs.ToSparse();
  ASSERT_TRUE(rbs.IsSparse());
  for (int t : {1, 4}) {
    MatrixBlock w = DenseOf(*MatMult(ra, rb, t));
    MatrixBlock g = DenseOf(*MatMult(ra, rbs, t));
    EXPECT_TRUE(BitIdentical(w.DenseData(), g.DenseData(), 40, 20))
        << "t=" << t;
  }
}

TEST(ZeroSkipTest, TransposeLeftDenseSparseMatchesDenseDense) {
  MatrixBlock a = MatrixBlock::FromValues(3, 1, {1, 0, 2});
  MatrixBlock bd = ReproB(), bs = ReproB();
  bs.ToSparse();
  ASSERT_TRUE(bs.IsSparse());
  MatrixBlock want = DenseOf(*TransposeLeftMatMult(a, bd, 1));
  MatrixBlock got = DenseOf(*TransposeLeftMatMult(a, bs, 1));
  EXPECT_TRUE(std::isnan(want.Get(0, 5)));
  EXPECT_TRUE(BitIdentical(want.DenseData(), got.DenseData(), 1, 6));

  // t(A) %*% B over 30 shared rows: A is 30 x 40, B is 30 x 20.
  MatrixBlock ra = HalfZeros(30, 40, 13), rb = SparseValuesWithInfNaN(30, 20);
  MatrixBlock rbs = rb;
  rbs.ToSparse();
  ASSERT_TRUE(rbs.IsSparse());
  for (int t : {1, 4}) {
    MatrixBlock w = DenseOf(*TransposeLeftMatMult(ra, rb, t));
    MatrixBlock g = DenseOf(*TransposeLeftMatMult(ra, rbs, t));
    EXPECT_TRUE(BitIdentical(w.DenseData(), g.DenseData(), 40, 20))
        << "t=" << t;
  }
}

}  // namespace
}  // namespace sysds
