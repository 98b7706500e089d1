#include "runtime/matrix/lib_reorg.h"

#include <gtest/gtest.h>
#include <cmath>

#include "runtime/matrix/lib_datagen.h"

namespace sysds {
namespace {

TEST(TransposeTest, DenseAndSparseAgree) {
  auto m = RandMatrix(37, 53, -1, 1, 0.2, 1, RandPdf::kUniform, 1);
  MatrixBlock dense = *m;
  dense.ToDense();
  MatrixBlock sparse = *m;
  sparse.ToSparse();
  MatrixBlock td = Transpose(dense, 2);
  MatrixBlock ts = Transpose(sparse, 2);
  EXPECT_EQ(td.Rows(), 53);
  EXPECT_EQ(td.Cols(), 37);
  EXPECT_TRUE(td.EqualsApprox(ts, 0));
  for (int64_t i = 0; i < 37; ++i) {
    for (int64_t j = 0; j < 53; ++j) {
      EXPECT_DOUBLE_EQ(td.Get(j, i), dense.Get(i, j));
    }
  }
}

TEST(TransposeTest, DoubleTransposeIdentity) {
  auto m = RandMatrix(20, 11, -1, 1, 1.0, 2, RandPdf::kUniform, 1);
  EXPECT_TRUE(Transpose(Transpose(*m, 1), 1).EqualsApprox(*m, 0));
}

TEST(ReverseTest, ReversesRowOrder) {
  MatrixBlock m = MatrixBlock::FromValues(3, 2, {1, 2, 3, 4, 5, 6});
  MatrixBlock r = ReverseRows(m);
  EXPECT_DOUBLE_EQ(r.Get(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(r.Get(2, 1), 2.0);
}

TEST(DiagTest, VectorToMatrixAndBack) {
  MatrixBlock v = MatrixBlock::FromValues(3, 1, {1, 0, 3});
  auto d = Diag(v);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->Rows(), 3);
  EXPECT_EQ(d->Cols(), 3);
  EXPECT_DOUBLE_EQ(d->Get(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(d->Get(2, 2), 3.0);
  EXPECT_DOUBLE_EQ(d->Get(0, 1), 0.0);
  auto back = Diag(*d);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->EqualsApprox(v, 0));
}

TEST(DiagTest, RejectsRectangular) {
  MatrixBlock m = MatrixBlock::Dense(2, 3);
  EXPECT_FALSE(Diag(m).ok());
}

TEST(CBindRBindTest, Basic) {
  MatrixBlock a = MatrixBlock::FromValues(2, 2, {1, 2, 3, 4});
  MatrixBlock b = MatrixBlock::FromValues(2, 1, {5, 6});
  auto c = CBind({&a, &b});
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->Cols(), 3);
  EXPECT_DOUBLE_EQ(c->Get(0, 2), 5.0);
  EXPECT_DOUBLE_EQ(c->Get(1, 2), 6.0);

  MatrixBlock d = MatrixBlock::FromValues(1, 2, {7, 8});
  auto r = RBind({&a, &d});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->Rows(), 3);
  EXPECT_DOUBLE_EQ(r->Get(2, 0), 7.0);
}

TEST(CBindRBindTest, ShapeMismatchRejected) {
  MatrixBlock a = MatrixBlock::Dense(2, 2);
  MatrixBlock b = MatrixBlock::Dense(3, 2);
  EXPECT_FALSE(CBind({&a, &b}).ok());
  MatrixBlock c = MatrixBlock::Dense(2, 3);
  EXPECT_FALSE(RBind({&a, &c}).ok());
}

TEST(CBindTest, ThreeInputsIncludingSparse) {
  MatrixBlock a = MatrixBlock::FromValues(2, 1, {1, 2});
  MatrixBlock b = MatrixBlock::Sparse(2, 2);
  b.Set(1, 1, 9.0);
  MatrixBlock c = MatrixBlock::FromValues(2, 1, {3, 4});
  auto out = CBind({&a, &b, &c});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->Cols(), 4);
  EXPECT_DOUBLE_EQ(out->Get(1, 2), 9.0);
  EXPECT_DOUBLE_EQ(out->Get(1, 3), 4.0);
}

// cbind(inputs) must hold every input cell in place, carry the nnz a
// recount gives, and be in the format ExamSparsity() picks on that recount.
void ExpectCBindOf(const std::vector<const MatrixBlock*>& inputs) {
  auto out = CBind(inputs);
  ASSERT_TRUE(out.ok()) << out.status();
  int64_t coff = 0, mismatches = 0;
  for (const MatrixBlock* m : inputs) {
    for (int64_t r = 0; r < m->Rows(); ++r) {
      for (int64_t j = 0; j < m->Cols(); ++j) {
        mismatches += out->Get(r, coff + j) != m->Get(r, j);
      }
    }
    coff += m->Cols();
  }
  EXPECT_EQ(out->Rows(), inputs[0]->Rows());
  EXPECT_EQ(out->Cols(), coff);
  EXPECT_EQ(mismatches, 0);
  MatrixBlock recount = *out;
  recount.ExamSparsity();
  EXPECT_EQ(out->NonZeros(), recount.NonZeros());
  EXPECT_EQ(out->IsSparse(), recount.IsSparse());
}

MatrixBlock RandIn(int64_t rows, int64_t cols, double sparsity, int seed,
                   bool sparse) {
  MatrixBlock m = *RandMatrix(rows, cols, -1, 1, sparsity, seed,
                              RandPdf::kUniform, 1);
  if (sparse) {
    m.ToSparse();
  } else {
    m.ToDense();
  }
  return m;
}

TEST(CBindTest, DenseDense) {
  MatrixBlock a = RandIn(300, 7, 1.0, 1, false);
  MatrixBlock b = RandIn(300, 5, 0.5, 2, false);
  ExpectCBindOf({&a, &b});
  EXPECT_FALSE(CBind({&a, &b})->IsSparse());
}

TEST(CBindTest, DenseSparse) {
  // Dense-dominated: the sparse input is scattered into a dense output.
  MatrixBlock a = RandIn(300, 20, 1.0, 3, false);
  MatrixBlock b = RandIn(300, 10, 0.1, 4, true);
  ExpectCBindOf({&a, &b});
  ExpectCBindOf({&b, &a});
  EXPECT_FALSE(CBind({&a, &b})->IsSparse());
  // Sparse-dominated: the dense input's nonzeros go into a sparse output.
  MatrixBlock narrow = RandIn(300, 2, 1.0, 5, false);
  MatrixBlock wide = RandIn(300, 40, 0.05, 6, true);
  ExpectCBindOf({&narrow, &wide});
  ExpectCBindOf({&wide, &narrow});
  EXPECT_TRUE(CBind({&wide, &narrow})->IsSparse());
}

TEST(CBindTest, SparseSparseStaysSparse) {
  MatrixBlock a = RandIn(200, 30, 0.1, 7, true);
  MatrixBlock b = RandIn(200, 30, 0.1, 8, true);
  ExpectCBindOf({&a, &b});
  EXPECT_TRUE(CBind({&a, &b})->IsSparse());
}

TEST(CBindTest, OneColumnAppend) {
  // The steplm candidate shape: cbind(Xg, X[, i]), with zeros in the
  // appended column.
  MatrixBlock xg = RandIn(500, 6, 1.0, 9, false);
  MatrixBlock v = RandIn(500, 1, 0.7, 10, false);
  ExpectCBindOf({&xg, &v});
  auto out = CBind({&xg, &v});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->Cols(), 7);
  EXPECT_EQ(out->NonZeros(), xg.NonZeros() + v.NonZeros());
}

TEST(SliceTest, RangesAndBoundsChecks) {
  MatrixBlock m = MatrixBlock::FromValues(4, 4, {1, 2, 3, 4,
                                                 5, 6, 7, 8,
                                                 9, 10, 11, 12,
                                                 13, 14, 15, 16});
  auto s = SliceMatrix(m, 1, 2, 1, 3);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->Rows(), 2);
  EXPECT_EQ(s->Cols(), 3);
  EXPECT_DOUBLE_EQ(s->Get(0, 0), 6.0);
  EXPECT_DOUBLE_EQ(s->Get(1, 2), 12.0);
  EXPECT_FALSE(SliceMatrix(m, 0, 4, 0, 0).ok());  // row out of bounds
  EXPECT_FALSE(SliceMatrix(m, 2, 1, 0, 0).ok());  // inverted range
}

TEST(SliceTest, SparseSlice) {
  MatrixBlock m = MatrixBlock::Sparse(100, 100);
  m.Set(10, 10, 1.0);
  m.Set(10, 50, 2.0);
  m.Set(60, 10, 3.0);
  auto s = SliceMatrix(m, 0, 49, 0, 19);
  ASSERT_TRUE(s.ok());
  EXPECT_DOUBLE_EQ(s->Get(10, 10), 1.0);
  EXPECT_EQ(s->NonZeros(), 1);
}

TEST(LeftIndexTest, OverwritesRegion) {
  MatrixBlock m = MatrixBlock::Dense(3, 3, 1.0);
  MatrixBlock rhs = MatrixBlock::FromValues(2, 2, {7, 8, 9, 10});
  auto out = LeftIndex(m, rhs, 1, 2, 0, 1);
  ASSERT_TRUE(out.ok());
  EXPECT_DOUBLE_EQ(out->Get(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(out->Get(1, 0), 7.0);
  EXPECT_DOUBLE_EQ(out->Get(2, 1), 10.0);
  // Original untouched (copy semantics).
  EXPECT_DOUBLE_EQ(m.Get(1, 0), 1.0);
}

TEST(LeftIndexTest, ShapeMismatchRejected) {
  MatrixBlock m = MatrixBlock::Dense(3, 3);
  MatrixBlock rhs = MatrixBlock::Dense(2, 3);
  EXPECT_FALSE(LeftIndex(m, rhs, 0, 1, 0, 1).ok());
}

TEST(ReshapeTest, RowMajorOrderPreserved) {
  MatrixBlock m = MatrixBlock::FromValues(2, 3, {1, 2, 3, 4, 5, 6});
  auto r = Reshape(m, 3, 2);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->Get(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(r->Get(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(r->Get(1, 0), 3.0);
  EXPECT_DOUBLE_EQ(r->Get(2, 1), 6.0);
  EXPECT_FALSE(Reshape(m, 4, 2).ok());
}

TEST(OrderTest, SortsByColumnStable) {
  MatrixBlock m = MatrixBlock::FromValues(4, 2, {3, 1, 1, 2, 3, 3, 2, 4});
  auto asc = OrderByColumn(m, 0, false, false);
  ASSERT_TRUE(asc.ok());
  EXPECT_DOUBLE_EQ(asc->Get(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(asc->Get(0, 1), 2.0);
  // Stability: the two rows with key 3 keep original relative order.
  EXPECT_DOUBLE_EQ(asc->Get(2, 1), 1.0);
  EXPECT_DOUBLE_EQ(asc->Get(3, 1), 3.0);
  auto idx = OrderByColumn(m, 0, true, true);
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(idx->Cols(), 1);
  EXPECT_DOUBLE_EQ(idx->Get(0, 0), 1.0);  // first row (value 3) first
}

TEST(RemoveEmptyTest, RowsAndCols) {
  MatrixBlock m = MatrixBlock::Dense(3, 3);
  m.Set(0, 0, 1.0);
  m.Set(2, 2, 2.0);
  MatrixBlock rows = RemoveEmpty(m, true);
  EXPECT_EQ(rows.Rows(), 2);
  MatrixBlock cols = RemoveEmpty(m, false);
  EXPECT_EQ(cols.Cols(), 2);
  MatrixBlock empty = MatrixBlock::Dense(3, 3);
  MatrixBlock none = RemoveEmpty(empty, true);
  EXPECT_EQ(none.Rows(), 1);  // SystemDS returns a 1x1 zero matrix
}

TEST(CTableTest, ContingencyCounts) {
  MatrixBlock a = MatrixBlock::FromValues(5, 1, {1, 2, 1, 3, 2});
  MatrixBlock b = MatrixBlock::FromValues(5, 1, {2, 1, 2, 1, 1});
  auto t = CTable(a, b);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->Rows(), 3);
  EXPECT_EQ(t->Cols(), 2);
  EXPECT_DOUBLE_EQ(t->Get(0, 1), 2.0);  // (1,2) twice
  EXPECT_DOUBLE_EQ(t->Get(1, 0), 2.0);  // (2,1) twice
  EXPECT_DOUBLE_EQ(t->Get(2, 0), 1.0);  // (3,1) once
  MatrixBlock bad = MatrixBlock::FromValues(5, 1, {0, 1, 1, 1, 1});
  EXPECT_FALSE(CTable(bad, b).ok());  // zero entry invalid
}

TEST(ReplaceTest, ExactAndNaN) {
  MatrixBlock m = MatrixBlock::FromValues(1, 4, {1, 0, 1, 2});
  MatrixBlock r = ReplaceValues(m, 1.0, 9.0);
  EXPECT_DOUBLE_EQ(r.Get(0, 0), 9.0);
  EXPECT_DOUBLE_EQ(r.Get(0, 2), 9.0);
  EXPECT_DOUBLE_EQ(r.Get(0, 3), 2.0);
  MatrixBlock n = MatrixBlock::FromValues(1, 2, {std::nan(""), 3});
  MatrixBlock rn = ReplaceValues(n, std::nan(""), 0.0);
  EXPECT_DOUBLE_EQ(rn.Get(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(rn.Get(0, 1), 3.0);
}

}  // namespace
}  // namespace sysds
