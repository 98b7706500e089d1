// End-to-end integration of compressed linear algebra: the compiler rewrite
// injects compress() before loops, instructions dispatch to compressed
// kernels, and the buffer pool spills/restores the compressed form. Every
// script runs in a compression-enabled and a compression-disabled context
// and the outputs must agree (identical where the compressed kernel is
// bit-exact, tight tolerance where it reassociates).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>

#include "api/systemds_context.h"
#include "obs/metrics.h"
#include "runtime/compress/compressed_block.h"
#include "runtime/controlprog/data.h"

namespace sysds {
namespace {

// Low-cardinality input: the planner should always find this worthwhile.
MatrixBlock Categorical(int64_t rows, int64_t cols, int card, uint64_t seed) {
  MatrixBlock m = MatrixBlock::Dense(rows, cols);
  uint64_t state = seed * 6364136223846793005ULL + 1442695040888963407ULL;
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < cols; ++c) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      m.DenseRow(r)[c] = static_cast<double>((state >> 33) % card);
    }
  }
  m.MarkNnzDirty();
  return m;
}

std::unique_ptr<SystemDSContext> MakeCtx(bool compression) {
  return SystemDSContext::Builder()
      .Compression(compression)
      .CompressionMinSize(1024)  // test matrices are small
      .Build();
}

// The lmDS-style pattern from the paper: a sweep loop re-using one
// read-only dataset. X %*% w is bit-exact under compression, so the
// accumulated scalar must be *identical*, not just close.
TEST(CompressIntegrationTest, ForLoopSweepMatchesUncompressedExactly) {
  const std::string script =
      "acc = 0\n"
      "for (i in 1:6) {\n"
      "  p = X %*% w\n"
      "  acc = acc + sum(p) * i\n"
      "}\n";
  MatrixBlock x = Categorical(600, 8, 5, 7);
  MatrixBlock w = Categorical(8, 1, 9, 8);
  Inputs inputs;
  inputs.Matrix("X", x).Matrix("w", w);
  Outputs outs("acc");

  obs::MetricsDiff diff;
  auto rc = MakeCtx(true)->Execute(script, inputs, outs);
  const int64_t blocks = diff.Counter("compress.compressed_blocks");
  const int64_t hits = diff.Counter("compress.dispatch_hits");
  auto ru = MakeCtx(false)->Execute(script, inputs, outs);
  ASSERT_TRUE(rc.ok()) << rc.status();
  ASSERT_TRUE(ru.ok()) << ru.status();

  auto vc = rc->GetDouble("acc");
  auto vu = ru->GetDouble("acc");
  ASSERT_TRUE(vc.ok()) << vc.status();
  ASSERT_TRUE(vu.ok()) << vu.status();
  EXPECT_EQ(*vc, *vu);
  // The rewrite must have compressed X and dispatched the multiplies
  // through the compressed kernel — otherwise this test is vacuous.
  EXPECT_GT(blocks, 0);
  EXPECT_GT(hits, 0);
}

TEST(CompressIntegrationTest, WhileLoopSweepMatchesUncompressedExactly) {
  const std::string script =
      "acc = 0\n"
      "i = 0\n"
      "while (i < 4) {\n"
      "  p = X %*% w\n"
      "  acc = acc + sum(p)\n"
      "  i = i + 1\n"
      "}\n";
  MatrixBlock x = Categorical(500, 6, 4, 9);
  MatrixBlock w = Categorical(6, 1, 7, 10);
  Inputs inputs;
  inputs.Matrix("X", x).Matrix("w", w);
  Outputs outs("acc");

  obs::MetricsDiff diff;
  auto rc = MakeCtx(true)->Execute(script, inputs, outs);
  const int64_t hits = diff.Counter("compress.dispatch_hits");
  auto ru = MakeCtx(false)->Execute(script, inputs, outs);
  ASSERT_TRUE(rc.ok()) << rc.status();
  ASSERT_TRUE(ru.ok()) << ru.status();
  EXPECT_EQ(*rc->GetDouble("acc"), *ru->GetDouble("acc"));
  EXPECT_GT(hits, 0);
}

// t(X) %*% X and sum(X) reassociate adds in the compressed kernels: the
// sweep must still agree to tight tolerance and actually hit the
// compressed tsmm/aggregate paths.
TEST(CompressIntegrationTest, TsmmAndAggregateSweepWithinTolerance) {
  const std::string script =
      "acc = 0\n"
      "for (i in 1:4) {\n"
      "  G = t(X) %*% X\n"
      "  acc = acc + sum(G) + sum(X)\n"
      "}\n"
      "R = G\n";
  MatrixBlock x = Categorical(800, 6, 5, 11);
  Inputs inputs;
  inputs.Matrix("X", x);
  Outputs outs = Outputs::FromVector({"acc", "R"});

  obs::MetricsDiff diff;
  auto rc = MakeCtx(true)->Execute(script, inputs, outs);
  const int64_t hits = diff.Counter("compress.dispatch_hits");
  auto ru = MakeCtx(false)->Execute(script, inputs, outs);
  ASSERT_TRUE(rc.ok()) << rc.status();
  ASSERT_TRUE(ru.ok()) << ru.status();
  double vc = *rc->GetDouble("acc"), vu = *ru->GetDouble("acc");
  EXPECT_NEAR(vc, vu, 1e-9 * (1.0 + std::fabs(vu)));
  auto mc = rc->GetMatrix("R");
  auto mu = ru->GetMatrix("R");
  ASSERT_TRUE(mc.ok()) << mc.status();
  ASSERT_TRUE(mu.ok()) << mu.status();
  EXPECT_TRUE(mc->EqualsApprox(*mu, 1e-9));
  EXPECT_GT(hits, 0);
}

// High-cardinality input: the planner's min-ratio gate rejects it, the
// injected compress() passes through, and the script still runs correctly.
TEST(CompressIntegrationTest, NotWorthwhileInputPassesThrough) {
  const std::string script =
      "acc = 0\n"
      "for (i in 1:3) {\n"
      "  acc = acc + sum(X %*% w)\n"
      "}\n";
  MatrixBlock x = MatrixBlock::Dense(400, 4);
  for (int64_t r = 0; r < 400; ++r) {
    for (int64_t c = 0; c < 4; ++c) {
      x.DenseRow(r)[c] = static_cast<double>(r * 4 + c) * 1.0000001;
    }
  }
  x.MarkNnzDirty();
  MatrixBlock w = Categorical(4, 1, 5, 12);
  Inputs inputs;
  inputs.Matrix("X", x).Matrix("w", w);
  Outputs outs("acc");

  obs::MetricsDiff diff;
  auto rc = MakeCtx(true)->Execute(script, inputs, outs);
  const int64_t skipped = diff.Counter("compress.skipped_not_worthwhile");
  auto ru = MakeCtx(false)->Execute(script, inputs, outs);
  ASSERT_TRUE(rc.ok()) << rc.status();
  ASSERT_TRUE(ru.ok()) << ru.status();
  EXPECT_EQ(*rc->GetDouble("acc"), *ru->GetDouble("acc"));
  EXPECT_GT(skipped, 0);
}

// Satellite regression: a NaN column routes to the uncompressed fallback
// group and flows through the compressed dispatch losslessly.
TEST(CompressIntegrationTest, NanColumnSurvivesCompressedSweep) {
  const std::string script =
      "for (i in 1:3) {\n"
      "  P = X %*% w\n"
      "}\n";
  MatrixBlock x = Categorical(300, 4, 5, 13);
  x.DenseRow(42)[2] = std::nan("");
  x.MarkNnzDirty();
  MatrixBlock w = Categorical(4, 1, 6, 14);
  Inputs inputs;
  inputs.Matrix("X", x).Matrix("w", w);
  Outputs outs("P");

  auto rc = MakeCtx(true)->Execute(script, inputs, outs);
  auto ru = MakeCtx(false)->Execute(script, inputs, outs);
  ASSERT_TRUE(rc.ok()) << rc.status();
  ASSERT_TRUE(ru.ok()) << ru.status();
  auto mc = rc->GetMatrix("P");
  auto mu = ru->GetMatrix("P");
  ASSERT_TRUE(mc.ok()) << mc.status();
  ASSERT_TRUE(mu.ok()) << mu.status();
  ASSERT_EQ(mc->Rows(), mu->Rows());
  for (int64_t r = 0; r < mu->Rows(); ++r) {
    double g = mc->Get(r, 0), want = mu->Get(r, 0);
    if (std::isnan(want)) {
      EXPECT_TRUE(std::isnan(g)) << "row " << r;
    } else {
      EXPECT_DOUBLE_EQ(g, want) << "row " << r;
    }
  }
}

// Buffer-pool integration: a compressed MatrixObject spills in compressed
// form and restores losslessly, both through AcquireCompressed and through
// the decompress-on-read path.
TEST(CompressIntegrationTest, CompressedSpillAndRestore) {
  MatrixBlock m = Categorical(500, 5, 6, 15);
  CompressedMatrixBlock c = CompressedMatrixBlock::Compress(m);
  ASSERT_GT(c.NumCompressedColumns(), 0);
  int64_t compressed_size = c.EstimateSizeInBytes();
  MatrixObject obj(std::move(c));
  EXPECT_TRUE(obj.HasCompressed());
  // Accounted at compressed size, far below the dense size.
  EXPECT_LT(obj.EstimateSizeInBytes(), m.EstimateSizeInBytes());
  EXPECT_EQ(obj.EstimateSizeInBytes(), compressed_size);

  std::string path = ::testing::TempDir() + "sysds_compress_spill_test.bin";
  auto evicted = obj.EvictTo(path);
  ASSERT_TRUE(evicted.ok()) << evicted.status();
  EXPECT_TRUE(*evicted);
  EXPECT_TRUE(obj.HasCompressed());  // spilled compressed form

  // Restore the compressed representation directly.
  auto comp = obj.AcquireCompressed();
  ASSERT_TRUE(comp.ok()) << comp.status();
  EXPECT_TRUE((*comp)->Decompress().EqualsApprox(m, 0));
  obj.Release();

  // Decompress-on-read also reproduces the original block.
  auto read = obj.AcquireRead();
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_TRUE((*read)->EqualsApprox(m, 0));
  obj.Release();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sysds
