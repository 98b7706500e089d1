#include <gtest/gtest.h>

#include "api/systemds_context.h"
#include "obs/metrics.h"
#include "runtime/dist/blocked_matrix.h"
#include "runtime/matrix/lib_datagen.h"
#include "runtime/matrix/lib_elementwise.h"
#include "runtime/matrix/lib_matmult.h"

namespace sysds {
namespace {

MatrixBlock Random(int64_t rows, int64_t cols, double sp, uint64_t seed) {
  return *RandMatrix(rows, cols, -1, 1, sp, seed, RandPdf::kUniform, 1);
}

TEST(BlockedMatrixTest, RoundtripAndZeroBlockSuppression) {
  MatrixBlock m = MatrixBlock::Dense(300, 200);
  m.Set(10, 10, 1.0);
  m.Set(250, 150, 2.0);
  m.MarkNnzDirty();
  BlockedMatrix bm = BlockedMatrix::FromMatrix(m, 128);
  // Only blocks containing nonzeros are materialized.
  EXPECT_EQ(bm.Blocks().size(), 2u);
  EXPECT_EQ(bm.RowBlocks(), 3);
  EXPECT_EQ(bm.ColBlocks(), 2);
  MatrixBlock back = bm.ToMatrix();
  EXPECT_TRUE(back.EqualsApprox(m, 0));
}

TEST(BlockedMatrixTest, DistMatMultMatchesLocal) {
  MatrixBlock a = Random(130, 90, 1.0, 1);
  MatrixBlock b = Random(90, 110, 1.0, 2);
  auto local = MatMult(a, b, 1);
  BlockedMatrix ba = BlockedMatrix::FromMatrix(a, 64);
  BlockedMatrix bb = BlockedMatrix::FromMatrix(b, 64);
  auto dist = DistMatMult(ba, bb);
  ASSERT_TRUE(dist.ok());
  EXPECT_TRUE(dist->ToMatrix().EqualsApprox(*local, 1e-9));
}

TEST(BlockedMatrixTest, DistMatMultSparse) {
  MatrixBlock a = Random(100, 100, 0.05, 3);
  a.ToSparse();
  MatrixBlock b = Random(100, 100, 0.05, 4);
  auto local = MatMult(a, b, 1);
  auto dist = DistMatMult(BlockedMatrix::FromMatrix(a, 32),
                          BlockedMatrix::FromMatrix(b, 32));
  ASSERT_TRUE(dist.ok());
  EXPECT_TRUE(dist->ToMatrix().EqualsApprox(*local, 1e-9));
}

TEST(BlockedMatrixTest, DistTsmmMatchesLocal) {
  MatrixBlock x = Random(200, 60, 1.0, 5);
  auto local = TransposeSelfMatMult(x, true, 1);
  auto dist = DistTsmmLeft(BlockedMatrix::FromMatrix(x, 64));
  ASSERT_TRUE(dist.ok());
  EXPECT_TRUE(dist->ToMatrix().EqualsApprox(*local, 1e-8));
}

TEST(BlockedMatrixTest, DistBinaryAlignedJoin) {
  MatrixBlock a = Random(90, 90, 1.0, 6);
  MatrixBlock b = Random(90, 90, 1.0, 7);
  auto local = BinaryMatrixMatrix(BinaryOpCode::kMul, a, b, 1);
  auto dist = DistBinary(BlockedMatrix::FromMatrix(a, 32),
                         BlockedMatrix::FromMatrix(b, 32), "*");
  ASSERT_TRUE(dist.ok());
  EXPECT_TRUE(dist->ToMatrix().EqualsApprox(*local, 1e-12));
  // Misaligned block sizes rejected.
  auto bad = DistBinary(BlockedMatrix::FromMatrix(a, 32),
                        BlockedMatrix::FromMatrix(b, 64), "+");
  EXPECT_FALSE(bad.ok());
}

TEST(BlockedMatrixTest, DistAggSumMatchesLocal) {
  MatrixBlock a = Random(77, 33, 0.5, 8);
  auto dist = DistAggSum(BlockedMatrix::FromMatrix(a, 32));
  ASSERT_TRUE(dist.ok());
  double local = 0;
  for (int64_t i = 0; i < a.Rows(); ++i) {
    for (int64_t j = 0; j < a.Cols(); ++j) local += a.Get(i, j);
  }
  EXPECT_NEAR(dist->Get(0, 0), local, 1e-9);
}

// End-to-end: force the compiler to select SPARK operators and check that
// script results match CP execution exactly.
TEST(SparkExecutionTest, ForcedSparkMatchesCp) {
  const char* script =
      "X = rand(rows=150, cols=40, seed=9)\n"
      "y = rand(rows=150, cols=1, seed=10)\n"
      "A = t(X) %*% X\n"
      "s = sum(A)\n"
      "Z = X * 2 + 1\n"
      "z = sum(Z)\n";
  DMLConfig cp_config;
  SystemDSContext cp(cp_config);
  auto r1 = cp.Execute(script, Inputs(), Outputs("s", "z"));
  ASSERT_TRUE(r1.ok()) << r1.status();

  DMLConfig spark_config;
  spark_config.force_spark = true;
  spark_config.block_size = 64;
  SystemDSContext spark(spark_config);
  obs::MetricsDiff diff;
  auto r2 = spark.Execute(script, Inputs(), Outputs("s", "z"));
  ASSERT_TRUE(r2.ok()) << r2.status();

  EXPECT_NEAR(*r1->GetDouble("s"), *r2->GetDouble("s"), 1e-6);
  EXPECT_NEAR(*r1->GetDouble("z"), *r2->GetDouble("z"), 1e-6);
  // Spark path actually ran (reblocks recorded).
  EXPECT_GT(diff.Counter("spark.reblocks"), 0);
}

TEST(SparkExecutionTest, MemoryBudgetTriggersSparkSelection) {
  // A tiny CP budget forces large operations to the distributed backend.
  DMLConfig config;
  config.cp_memory_budget = 1024;  // 1KB: everything big goes SPARK
  config.block_size = 64;
  SystemDSContext ctx(config);
  obs::MetricsDiff diff;
  auto r = ctx.Execute(
      "X = rand(rows=200, cols=50, seed=1)\n"
      "A = t(X) %*% X\n"
      "s = sum(A)\n",
      Inputs(), Outputs("s"));
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_GT(diff.Counter("spark.reblocks"), 0);
}

}  // namespace
}  // namespace sysds
