#include "runtime/matrix/lib_matmult.h"

#include <gtest/gtest.h>

#include "runtime/matrix/lib_datagen.h"
#include "runtime/matrix/lib_reorg.h"

namespace sysds {
namespace {

// Reference O(n^3) matmult on Get()/Set() only.
MatrixBlock RefMatMult(const MatrixBlock& a, const MatrixBlock& b) {
  MatrixBlock c = MatrixBlock::Dense(a.Rows(), b.Cols());
  for (int64_t i = 0; i < a.Rows(); ++i) {
    for (int64_t j = 0; j < b.Cols(); ++j) {
      double sum = 0;
      for (int64_t k = 0; k < a.Cols(); ++k) {
        sum += a.Get(i, k) * b.Get(k, j);
      }
      c.Set(i, j, sum);
    }
  }
  return c;
}

MatrixBlock Random(int64_t rows, int64_t cols, double sparsity,
                   uint64_t seed) {
  auto m = RandMatrix(rows, cols, -1.0, 1.0, sparsity, seed,
                      RandPdf::kUniform, 1);
  return *m;
}

struct MatMultCase {
  int64_t m, k, n;
  double sp_a, sp_b;
  int threads;
};

class MatMultParamTest : public ::testing::TestWithParam<MatMultCase> {};

TEST_P(MatMultParamTest, MatchesReference) {
  const MatMultCase& c = GetParam();
  MatrixBlock a = Random(c.m, c.k, c.sp_a, 1);
  MatrixBlock b = Random(c.k, c.n, c.sp_b, 2);
  if (c.sp_a < 0.4) a.ToSparse();
  if (c.sp_b < 0.4) b.ToSparse();
  auto result = MatMult(a, b, c.threads);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->EqualsApprox(RefMatMult(a, b), 1e-9));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatMultParamTest,
    ::testing::Values(
        MatMultCase{1, 1, 1, 1.0, 1.0, 1},      // degenerate
        MatMultCase{17, 23, 11, 1.0, 1.0, 1},   // dense odd shapes
        MatMultCase{64, 64, 64, 1.0, 1.0, 4},   // dense threaded
        MatMultCase{40, 60, 50, 0.1, 1.0, 2},   // sparse-dense
        MatMultCase{40, 60, 50, 1.0, 0.1, 2},   // dense-sparse
        MatMultCase{40, 60, 50, 0.1, 0.1, 2},   // sparse-sparse
        MatMultCase{100, 3, 1, 1.0, 1.0, 4},    // matrix-vector
        MatMultCase{1, 50, 50, 1.0, 1.0, 1},    // vector-matrix
        MatMultCase{130, 70, 90, 0.05, 1.0, 8}));

TEST(MatMultTest, DimensionMismatchRejected) {
  MatrixBlock a = MatrixBlock::Dense(2, 3);
  MatrixBlock b = MatrixBlock::Dense(4, 2);
  EXPECT_FALSE(MatMult(a, b, 1).ok());
}

class TsmmParamTest
    : public ::testing::TestWithParam<std::tuple<int64_t, int64_t, double>> {
};

TEST_P(TsmmParamTest, LeftMatchesExplicit) {
  auto [rows, cols, sp] = GetParam();
  MatrixBlock x = Random(rows, cols, sp, 5);
  if (sp < 0.4) x.ToSparse();
  auto fused = TransposeSelfMatMult(x, /*left=*/true, 3);
  ASSERT_TRUE(fused.ok());
  MatrixBlock xt = Transpose(x, 1);
  EXPECT_TRUE(fused->EqualsApprox(RefMatMult(xt, x), 1e-9));
}

TEST_P(TsmmParamTest, RightMatchesExplicit) {
  auto [rows, cols, sp] = GetParam();
  MatrixBlock x = Random(rows, cols, sp, 6);
  if (sp < 0.4) x.ToSparse();
  auto fused = TransposeSelfMatMult(x, /*left=*/false, 3);
  ASSERT_TRUE(fused.ok());
  MatrixBlock xt = Transpose(x, 1);
  EXPECT_TRUE(fused->EqualsApprox(RefMatMult(x, xt), 1e-9));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TsmmParamTest,
    ::testing::Values(std::make_tuple(50, 10, 1.0),
                      std::make_tuple(33, 17, 1.0),
                      std::make_tuple(64, 8, 0.1),
                      std::make_tuple(200, 20, 0.05),
                      std::make_tuple(5, 5, 1.0)));

TEST(TsmmTest, ResultIsSymmetric) {
  MatrixBlock x = Random(40, 12, 1.0, 7);
  auto c = TransposeSelfMatMult(x, true, 2);
  ASSERT_TRUE(c.ok());
  for (int64_t i = 0; i < c->Rows(); ++i) {
    for (int64_t j = 0; j < c->Cols(); ++j) {
      EXPECT_DOUBLE_EQ(c->Get(i, j), c->Get(j, i));
    }
  }
}

class TmmParamTest
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(TmmParamTest, MatchesExplicitTranspose) {
  auto [sp_a, sp_b] = GetParam();
  MatrixBlock a = Random(60, 15, sp_a, 8);
  MatrixBlock b = Random(60, 7, sp_b, 9);
  if (sp_a < 0.4) a.ToSparse();
  if (sp_b < 0.4) b.ToSparse();
  auto fused = TransposeLeftMatMult(a, b, 3);
  ASSERT_TRUE(fused.ok());
  MatrixBlock at = Transpose(a, 1);
  EXPECT_TRUE(fused->EqualsApprox(RefMatMult(at, b), 1e-9));
}

INSTANTIATE_TEST_SUITE_P(SparsityCombos, TmmParamTest,
                         ::testing::Values(std::make_tuple(1.0, 1.0),
                                           std::make_tuple(0.1, 1.0),
                                           std::make_tuple(1.0, 0.1),
                                           std::make_tuple(0.1, 0.1)));

TEST(TmmTest, RowMismatchRejected) {
  MatrixBlock a = MatrixBlock::Dense(5, 2);
  MatrixBlock b = MatrixBlock::Dense(6, 2);
  EXPECT_FALSE(TransposeLeftMatMult(a, b, 1).ok());
}

TEST(MatMultTest, EmptyMatrix) {
  MatrixBlock a = MatrixBlock::Dense(0, 3);
  MatrixBlock b = MatrixBlock::Dense(3, 4);
  auto c = MatMult(a, b, 1);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->Rows(), 0);
  EXPECT_EQ(c->Cols(), 4);
}

}  // namespace
}  // namespace sysds
