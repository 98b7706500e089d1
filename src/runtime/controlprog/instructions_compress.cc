#include <algorithm>

#include "obs/trace.h"
#include "runtime/bufferpool/buffer_pool.h"
#include "runtime/compress/compress_metrics.h"
#include "runtime/compress/compressed_block.h"
#include "runtime/compress/planner.h"
#include "runtime/controlprog/execution_context.h"
#include "runtime/controlprog/instructions_cp.h"

namespace sysds {

// compress(X) — workload-aware compression (§3.4). Lenient by design: every
// early-out passes the input through unchanged so a rewrite-injected
// compress can never break a previously-working script.
Status CompressInstr::Execute(ExecutionContext* ec) {
  DataPtr in = ec->Vars().GetOrNull(inputs()[0].name);
  auto pass_through = [&]() {
    if (in != nullptr && inputs()[0].name != outputs()[0].name) {
      ec->SetOutput(outputs()[0], in);
    }
    return Status::Ok();
  };
  if (in == nullptr || in->GetDataType() != DataType::kMatrix) {
    return pass_through();
  }
  auto* m = static_cast<MatrixObject*>(in.get());
  if (m->HasCompressed()) return pass_through();

  const DMLConfig& cfg = ec->Config();
  const int64_t size = m->EstimateSizeInBytes();
  if (size < cfg.compression_min_size_bytes) {
    // Pressure-aware admission (§2.3(3)): under real memory pressure —
    // pool headroom below a few multiples of this matrix — compress even
    // below the static size gate; shrinking live data is cheaper than
    // spilling it.
    BufferPool* pool = ec->Pool();
    bool pressured = pool != nullptr && pool->UnderPressure(4 * size);
    if (!pressured) {
      compress_metrics::Get().skipped_small->Add(1);
      return pass_through();
    }
    compress_metrics::Get().pressure_compressions->Add(1);
  }

  SYSDS_SPAN("compress", "compress_instr");
  SYSDS_ACQUIRE_READ(x, m);
  CompressionSettings settings;
  compress_metrics::Get().planner_invocations->Add(1);
  CompressionPlan plan = CompressionPlanner::Plan(x, settings);
  if (!plan.worthwhile) {
    m->Release();
    compress_metrics::Get().skipped_not_worthwhile->Add(1);
    return pass_through();
  }
  CompressedMatrixBlock compressed =
      CompressedMatrixBlock::Compress(x, plan, ec->NumThreads());
  // The exact scan can fall short of the sampled estimate (NaN columns,
  // underestimated distinct counts): re-check the achieved ratio before
  // replacing the block.
  double achieved = static_cast<double>(x.EstimateSizeInBytes()) /
                    std::max<int64_t>(1, compressed.EstimateSizeInBytes());
  m->Release();
  if (compressed.NumCompressedColumns() == 0 ||
      achieved < settings.min_ratio) {
    compress_metrics::Get().skipped_not_worthwhile->Add(1);
    return pass_through();
  }
  compress_metrics::Get().compressed_blocks->Add(1);
  compress_metrics::Get().ratio_x100->Observe(
      static_cast<int64_t>(achieved * 100.0));
  ec->SetOutput(outputs()[0],
                std::make_shared<MatrixObject>(std::move(compressed)));
  return Status::Ok();
}

Status DecompressInstr::Execute(ExecutionContext* ec) {
  SYSDS_ASSIGN_OR_RETURN(MatrixObject * m, ec->GetMatrix(inputs()[0]));
  if (!m->HasCompressed()) {
    if (inputs()[0].name != outputs()[0].name) {
      SYSDS_ASSIGN_OR_RETURN(DataPtr in, ec->Resolve(inputs()[0]));
      ec->SetOutput(outputs()[0], std::move(in));
    }
    return Status::Ok();
  }
  SYSDS_SPAN("compress", "decompress_instr");
  // AcquireRead materializes the uncompressed block from the compressed
  // representation; copy it into a plain MatrixObject.
  SYSDS_ACQUIRE_READ(x, m);
  MatrixBlock plain = x;
  m->Release();
  ec->SetOutput(outputs()[0],
                std::make_shared<MatrixObject>(std::move(plain)));
  return Status::Ok();
}

}  // namespace sysds
