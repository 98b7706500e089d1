#include "runtime/controlprog/data.h"

#include <atomic>
#include <chrono>
#include <sstream>

#include "common/faults.h"
#include "io/atomic_file.h"
#include "io/io.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/bufferpool/buffer_pool.h"
#include "runtime/compress/compress_io.h"

namespace sysds {

namespace {
std::atomic<int64_t> g_next_object_id{1};

struct DataMetrics {
  // Acquire-path hit/miss accounting: a miss means the block was evicted
  // and had to be restored from its spill file.
  obs::Counter* pool_hits;
  obs::Counter* pool_misses;
  // An acquire found the payload resident because a prefetch restored it
  // ahead of demand (the prefetcher's success metric).
  obs::Counter* prefetch_hits;
  obs::Counter* prefetch_failures;
  obs::Counter* restore_retries;
  obs::Counter* restore_failures;
  // A kernel without a compressed implementation forced an on-demand
  // decompression of a compressed object.
  obs::Counter* decompress_fallbacks;
  obs::Histogram* restore_ns;
};

DataMetrics& Metrics() {
  auto& r = obs::MetricsRegistry::Get();
  static DataMetrics m = {
      r.GetCounter("bufferpool.hits"),
      r.GetCounter("bufferpool.misses"),
      r.GetCounter("bufferpool.prefetch_hits"),
      r.GetCounter("fault.bufferpool.prefetch_failures"),
      r.GetCounter("fault.bufferpool.restore_retries"),
      r.GetCounter("fault.bufferpool.restore_failures"),
      r.GetCounter("compress.decompress_fallbacks"),
      r.GetHistogram("bufferpool.restore_ns"),
  };
  return m;
}

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

Data::Data()
    : object_id_(g_next_object_id.fetch_add(1, std::memory_order_relaxed)) {}

DataPtr ScalarObject::MakeDouble(double v) {
  auto s = std::make_shared<ScalarObject>();
  s->vt_ = ValueType::kFP64;
  s->dval_ = v;
  return s;
}

DataPtr ScalarObject::MakeInt(int64_t v) {
  auto s = std::make_shared<ScalarObject>();
  s->vt_ = ValueType::kInt64;
  s->ival_ = v;
  return s;
}

DataPtr ScalarObject::MakeBool(bool v) {
  auto s = std::make_shared<ScalarObject>();
  s->vt_ = ValueType::kBoolean;
  s->bval_ = v;
  return s;
}

DataPtr ScalarObject::MakeString(std::string v) {
  auto s = std::make_shared<ScalarObject>();
  s->vt_ = ValueType::kString;
  s->sval_ = std::move(v);
  return s;
}

double ScalarObject::AsDouble() const {
  switch (vt_) {
    case ValueType::kFP64: return dval_;
    case ValueType::kInt64: return static_cast<double>(ival_);
    case ValueType::kBoolean: return bval_ ? 1.0 : 0.0;
    case ValueType::kString: return sval_.empty() ? 0.0 : std::stod(sval_);
    default: return 0.0;
  }
}

int64_t ScalarObject::AsInt() const {
  switch (vt_) {
    case ValueType::kFP64: return static_cast<int64_t>(dval_);
    case ValueType::kInt64: return ival_;
    case ValueType::kBoolean: return bval_ ? 1 : 0;
    case ValueType::kString: return sval_.empty() ? 0 : std::stoll(sval_);
    default: return 0;
  }
}

bool ScalarObject::AsBool() const {
  switch (vt_) {
    case ValueType::kFP64: return dval_ != 0.0;
    case ValueType::kInt64: return ival_ != 0;
    case ValueType::kBoolean: return bval_;
    case ValueType::kString: return sval_ == "TRUE" || sval_ == "true";
    default: return false;
  }
}

std::string ScalarObject::AsString() const {
  switch (vt_) {
    case ValueType::kFP64: {
      std::ostringstream os;
      os << dval_;
      return os.str();
    }
    case ValueType::kInt64: return std::to_string(ival_);
    case ValueType::kBoolean: return bval_ ? "TRUE" : "FALSE";
    case ValueType::kString: return sval_;
    default: return "";
  }
}

MatrixObject::MatrixObject(MatrixBlock block) {
  rows_ = block.Rows();
  cols_ = block.Cols();
  nnz_ = block.NonZeros();
  block_ = std::make_shared<MatrixBlock>(std::move(block));
}

MatrixObject::MatrixObject(CompressedMatrixBlock block) {
  rows_ = block.Rows();
  cols_ = block.Cols();
  nnz_ = block.NonZeros();
  compressed_ =
      std::make_shared<const CompressedMatrixBlock>(std::move(block));
}

MatrixObject::~MatrixObject() {
  if (pool_ != nullptr) pool_->Unregister(this);
  if (!evicted_path_.empty()) std::remove(evicted_path_.c_str());
}

void MatrixObject::BindPool(std::shared_ptr<BufferPool> pool) {
  BufferPool* bound;
  int64_t size;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (pool_ != nullptr || pool == nullptr) return;
    pool_ = std::move(pool);
    bound = pool_.get();
    // Compressed blocks are accounted at their compressed size — the point
    // of §3.4: more live data fits under the same memory budget.
    size = EstimateSizeLocked();
  }
  // Outside the object lock (lock order is pool -> object). Register reads
  // the pin count itself, so a pin taken concurrently is not lost.
  bound->Register(this, size);
}

template <typename T, typename Select>
StatusOr<const T*> MatrixObject::Acquire(Select select) {
  // Pin BEFORE any pool interaction: a re-registration below may trigger
  // evictions, and an unpinned freshly-restored block could be chosen as
  // its own victim (returning a dangling reference).
  const T* result;
  bool restored = false;
  bool prefetch_hit = false;
  bool first_pin = false;
  int64_t size = 0;
  BufferPool* pool = nullptr;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    ++pin_count_;
    first_pin = pin_count_ == 1;
    if (block_ == nullptr && compressed_ == nullptr) {
      SYSDS_SPAN("bufferpool", "restore");
      Status s = EnsureRestoredLocked(lock);
      if (!s.ok()) {
        // The acquire failed: undo the pin and surface the error instead
        // of substituting data the script would silently compute with.
        // The spill file is kept, so a later acquire can retry.
        --pin_count_;
        Metrics().pool_misses->Add(1);
        return s;
      }
      // A prefetch that finished while this acquire waited for it served
      // the read (the prefetcher registers the block).
      restored = !prefetched_;
    }
    StatusOr<const T*> selected = select(restored);
    if (!selected.ok()) {
      --pin_count_;
      Metrics().pool_misses->Add(1);
      return selected.status();
    }
    prefetch_hit = !restored && prefetched_;
    prefetched_ = false;
    if (restored || first_pin) size = EstimateSizeLocked();
    result = *selected;
    pool = pool_.get();
  }
  if (restored) {
    Metrics().pool_misses->Add(1);
  } else {
    Metrics().pool_hits->Add(1);
  }
  if (prefetch_hit) Metrics().prefetch_hits->Add(1);
  if (pool != nullptr) {
    if (restored) pool->Register(this, size);
    pool->Touch(this);
    if (first_pin) pool->NotePinned(this, true);
  }
  return result;
}

StatusOr<const MatrixBlock*> MatrixObject::AcquireRead() {
  return Acquire<MatrixBlock>([this](bool& restored) -> const MatrixBlock* {
    if (block_ == nullptr) {
      // Materialize an uncompressed view for kernels without a compressed
      // implementation. The compressed form stays authoritative — eviction
      // spills it, not the decompressed copy.
      SYSDS_SPAN("compress", "decompress_on_read");
      block_ = std::make_shared<MatrixBlock>(compressed_->Decompress());
      Metrics().decompress_fallbacks->Add(1);
      restored = true;
    }
    return block_.get();
  });
}

void MatrixObject::Release() {
  BufferPool* pool = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (pin_count_ > 0) {
      --pin_count_;
      if (pin_count_ == 0) pool = pool_.get();
    }
  }
  if (pool != nullptr) pool->NotePinned(this, false);
}

StatusOr<const CompressedMatrixBlock*> MatrixObject::AcquireCompressed() {
  // The representation is fixed at construction, so this check needs no
  // pin: a compressed object stays compressed, resident or spilled.
  if (!HasCompressed()) {
    return Internal("matrix has no compressed representation");
  }
  return Acquire<CompressedMatrixBlock>(
      [this](bool&) -> StatusOr<const CompressedMatrixBlock*> {
        if (compressed_ == nullptr) {
          return Internal("compressed restore produced no block");
        }
        return compressed_.get();
      });
}

StatusOr<bool> MatrixObject::EvictTo(const std::string& path) {
  // Write (a no-op when the object is already clean), then drop. A pin taken
  // between the two keeps the block resident, now clean.
  StatusOr<bool> wrote = WriteBack(path);
  if (!wrote.ok()) return wrote.status();
  return DropIfClean();
}

StatusOr<bool> MatrixObject::WriteBack(const std::string& path) {
  // Snapshot the payload under the lock, write outside it: blocks are
  // immutable, so the shared_ptr copies stay valid while acquires proceed.
  std::shared_ptr<MatrixBlock> block;
  std::shared_ptr<const CompressedMatrixBlock> compressed;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (clean_spill_ || spilling_ ||
        (block_ == nullptr && compressed_ == nullptr)) {
      return false;
    }
    spilling_ = true;
    block = block_;
    compressed = compressed_;
  }
  Status written;
  if (FaultInjector::Get().ShouldInject(FaultLayer::kBufferPool, 0,
                                        FaultKind::kSpillIoError)) {
    written =
        IoError("bufferpool: injected writeback error (" + path + ")");
  } else if (compressed != nullptr) {
    // Spill in compressed form (§3.4): the file is a fraction of the dense
    // block and a restore skips re-running the planner. The decompressed
    // copy, if any, is not written — it can be rebuilt from the spill.
    const CompressedMatrixBlock& cb = *compressed;
    written = io::WriteAtomic(path, [&cb](std::ostream& out) {
      return WriteCompressedStream(cb, out);
    });
  } else {
    const MatrixBlock& mb = *block;
    written = io::WriteAtomic(path, [&mb](std::ostream& out) {
      return io::WriteMatrixBinaryStream(mb, out);
    });
  }
  std::lock_guard<std::mutex> lock(mutex_);
  spilling_ = false;
  if (!written.ok()) return written;  // stays dirty: retried next pass
  evicted_path_ = path;
  spilled_compressed_ = compressed != nullptr;
  clean_spill_ = true;
  return true;
}

bool MatrixObject::DropIfClean() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (pin_count_ > 0 || !clean_spill_ || evicted_path_.empty() ||
      (block_ == nullptr && compressed_ == nullptr)) {
    return false;
  }
  block_.reset();
  compressed_.reset();
  prefetched_ = false;
  return true;
}

void MatrixObject::PrefetchRestore() {
  std::unique_lock<std::mutex> lock(mutex_);
  if (block_ != nullptr || compressed_ != nullptr || restoring_ ||
      evicted_path_.empty()) {
    return;
  }
  Status s = EnsureRestoredLocked(lock);
  if (s.ok()) {
    prefetched_ = true;
  } else {
    // Silent by design: the next demand acquire retries the read and
    // surfaces the error with full context.
    Metrics().prefetch_failures->Add(1);
  }
}

Status MatrixObject::EnsureRestoredLocked(std::unique_lock<std::mutex>& lock) {
  // Single-flight: if another thread is mid-restore, wait for it instead
  // of issuing a second disk read for the same bytes.
  while (restoring_) restore_cv_.wait(lock);
  if (block_ != nullptr || compressed_ != nullptr) return Status::Ok();
  if (evicted_path_.empty()) {
    return Internal("bufferpool: restore without a spill file");
  }
  restoring_ = true;
  const std::string path = evicted_path_;
  const bool compressed_format = spilled_compressed_;
  lock.unlock();

  const int64_t t0 = NowNanos();
  Status last;
  std::shared_ptr<MatrixBlock> new_block;
  std::shared_ptr<const CompressedMatrixBlock> new_compressed;
  for (int attempt = 0; attempt < 2; ++attempt) {
    if (attempt > 0) Metrics().restore_retries->Add(1);
    if (FaultInjector::Get().ShouldInject(FaultLayer::kBufferPool, 0,
                                          FaultKind::kSpillIoError)) {
      last = IoError("bufferpool: injected evict-read error (" + path + ")");
      continue;
    }
    // The spill file streams straight into the new block; the block is
    // kept only when the file's size and CRC verify. A torn or bit-flipped
    // spill surfaces as kCorrupt — retryable, and the spill file is kept so
    // a later acquire can retry — never as garbage in a block.
    Status read = io::ReadVerified(
        path, [&](std::istream& in, int64_t size) -> Status {
          if (compressed_format) {
            SYSDS_ASSIGN_OR_RETURN(CompressedMatrixBlock c,
                                   ReadCompressedStream(in, size));
            new_compressed =
                std::make_shared<const CompressedMatrixBlock>(std::move(c));
          } else {
            SYSDS_ASSIGN_OR_RETURN(MatrixBlock m,
                                   io::ReadMatrixBinaryStream(in, size));
            new_block = std::make_shared<MatrixBlock>(std::move(m));
          }
          return Status::Ok();
        });
    if (!read.ok()) {
      new_block.reset();
      new_compressed.reset();
      last = read;
      continue;
    }
    break;
  }
  Metrics().restore_ns->Observe(NowNanos() - t0);

  lock.lock();
  restoring_ = false;
  restore_cv_.notify_all();
  if (new_block == nullptr && new_compressed == nullptr) {
    // Keep the spill file: the data still exists on disk, so the failure
    // is retryable on the next acquire instead of a permanent loss.
    Metrics().restore_failures->Add(1);
    return last;
  }
  // Keep the spill file on success too — blocks are immutable, so the
  // file stays a valid copy and the next eviction is a free drop.
  if (new_compressed != nullptr) {
    compressed_ = std::move(new_compressed);
  } else {
    block_ = std::move(new_block);
  }
  clean_spill_ = true;
  return Status::Ok();
}

int64_t MatrixObject::EstimateSizeLocked() const {
  if (block_ == nullptr && compressed_ == nullptr) {
    return MatrixBlock::EstimateSizeInBytes(
        rows_, cols_,
        rows_ * cols_ > 0 ? static_cast<double>(nnz_) / (rows_ * cols_)
                          : 0.0);
  }
  int64_t total = 0;
  if (block_) total += block_->EstimateSizeInBytes();
  if (compressed_) total += compressed_->EstimateSizeInBytes();
  return total;
}

int64_t MatrixObject::EstimateSizeInBytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return EstimateSizeLocked();
}

std::string MatrixObject::DebugString() const {
  std::ostringstream os;
  os << "matrix " << rows_ << "x" << cols_ << " nnz=" << nnz_;
  std::lock_guard<std::mutex> lock(mutex_);
  if (compressed_) os << " (compressed)";
  os << (block_ || compressed_ ? " (cached)" : " (evicted)");
  return os.str();
}

StatusOr<DataPtr> ListObject::GetByName(const std::string& name) const {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return items_[i];
  }
  return NotFound("list element '" + name + "' not found");
}

std::string ListObject::DebugString() const {
  std::ostringstream os;
  os << "list(" << items_.size() << " elements)";
  return os.str();
}

StatusOr<ScalarObject*> AsScalar(const DataPtr& d, const std::string& what) {
  if (d == nullptr) return RuntimeError(what + ": variable not initialized");
  auto* s = dynamic_cast<ScalarObject*>(d.get());
  if (s == nullptr) {
    return RuntimeError(what + ": expected scalar, got " +
                        DataTypeName(d->GetDataType()));
  }
  return s;
}

StatusOr<MatrixObject*> AsMatrix(const DataPtr& d, const std::string& what) {
  if (d == nullptr) return RuntimeError(what + ": variable not initialized");
  auto* m = dynamic_cast<MatrixObject*>(d.get());
  if (m == nullptr) {
    return RuntimeError(what + ": expected matrix, got " +
                        DataTypeName(d->GetDataType()));
  }
  return m;
}

StatusOr<FrameObject*> AsFrame(const DataPtr& d, const std::string& what) {
  if (d == nullptr) return RuntimeError(what + ": variable not initialized");
  auto* f = dynamic_cast<FrameObject*>(d.get());
  if (f == nullptr) {
    return RuntimeError(what + ": expected frame, got " +
                        DataTypeName(d->GetDataType()));
  }
  return f;
}

}  // namespace sysds
