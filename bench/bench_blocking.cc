// Ablation A3 (§2.4): the n-dimensional blocking scheme with exponentially
// decreasing block sides (1024², 128³, 32⁴, …) and its local reblocking
// property, plus distributed (SPARK-sim) operations over block-partitioned
// matrices vs. local CP execution and the block-size trade-off.

#include <cstdio>

#include "bench/bench_common.h"
#include "common/util.h"
#include "obs/metrics.h"
#include "runtime/dist/blocked_matrix.h"
#include "runtime/matrix/lib_datagen.h"
#include "runtime/matrix/lib_matmult.h"
#include "runtime/tensor/blocking.h"

using namespace sysds;

int main() {
  using namespace sysds_bench;
  Scale scale = GetScale();

  // (1) Tensor blocking/reblocking: a 2D tensor blocked at the rank-2 side
  //     (1024), then locally converted to the rank-3 scheme side (128).
  {
    int64_t n = std::min<int64_t>(scale.rows / 4, 2048);
    TensorBlock t({n, 256}, ValueType::kFP64);
    for (int64_t i = 0; i < t.CellCount(); ++i) {
      t.SetDoubleLinear(i, static_cast<double>(i % 97));
    }
    std::printf("# A3.1 tensor blocking scheme (dims %lldx256)\n",
                static_cast<long long>(n));
    std::printf("%-30s%10s%14s\n", "operation", "blocks", "seconds");
    Timer t1;
    auto blocked = BlockedTensor::FromTensor(t);  // rank-2 side: 1024
    std::printf("%-30s%10lld%14.4f\n", "block (side 1024)",
                static_cast<long long>(blocked->NumBlocks()),
                t1.ElapsedSeconds());
    Timer t2;
    auto reblocked = blocked->Reblock(128);  // rank-3 side: local split
    std::printf("%-30s%10lld%14.4f\n", "reblock to side 128",
                static_cast<long long>(reblocked->NumBlocks()),
                t2.ElapsedSeconds());
    Timer t3;
    auto roundtrip = reblocked->ToTensor();
    std::printf("%-30s%10s%14.4f\n", "collect", "-", t3.ElapsedSeconds());
    if (!roundtrip->EqualsApprox(t)) {
      std::fprintf(stderr, "reblock roundtrip mismatch!\n");
      return 1;
    }
  }

  // (2) Distributed matmult over blocked matrices: block-size sweep.
  {
    int64_t n = std::min<int64_t>(scale.rows / 8, 1024);
    auto a = RandMatrix(n, n, 0.0, 1.0, 1.0, 1, RandPdf::kUniform, 1);
    auto b = RandMatrix(n, n, 0.0, 1.0, 1.0, 2, RandPdf::kUniform, 1);
    std::printf(
        "\n# A3.2 distributed matmult (%lldx%lld), block-size sweep\n",
        static_cast<long long>(n), static_cast<long long>(n));
    std::printf("%-14s%14s%18s\n", "block_size", "seconds",
                "shuffled_blocks");
    Timer tl;
    auto local = MatMult(*a, *b, 1);
    std::printf("%-14s%14.4f%18s\n", "local CP", tl.ElapsedSeconds(), "-");
    for (int64_t bs : {64, 128, 256, 512}) {
      obs::MetricsDiff diff;
      Timer td;
      BlockedMatrix ba = BlockedMatrix::FromMatrix(*a, bs);
      BlockedMatrix bb = BlockedMatrix::FromMatrix(*b, bs);
      auto c = DistMatMult(ba, bb);
      MatrixBlock collected = c->ToMatrix();
      double secs = td.ElapsedSeconds();
      if (!collected.EqualsApprox(*local, 1e-6)) {
        std::fprintf(stderr, "distributed result mismatch!\n");
        return 1;
      }
      std::printf("%-14lld%14.4f%18lld\n", static_cast<long long>(bs), secs,
                  static_cast<long long>(
                      diff.Counter("spark.shuffled_blocks")));
    }
  }
  return 0;
}
