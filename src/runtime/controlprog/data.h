#ifndef SYSDS_RUNTIME_CONTROLPROG_DATA_H_
#define SYSDS_RUNTIME_CONTROLPROG_DATA_H_

#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "runtime/compress/compressed_block.h"
#include "runtime/frame/frame_block.h"
#include "runtime/matrix/matrix_block.h"
#include "runtime/tensor/tensor_block.h"

namespace sysds {

class BufferPool;
class FederatedMatrix;

/// Base of all language-level runtime values held in symbol tables.
class Data {
 public:
  Data();
  virtual ~Data() = default;
  virtual DataType GetDataType() const = 0;
  virtual ValueType GetValueType() const = 0;
  virtual std::string DebugString() const = 0;

  /// Process-unique identity, assigned at construction. Lineage tracing
  /// uses it to identify bound in-memory inputs: two executions that bind
  /// the same object trace the same leaf (and may reuse each other's
  /// intermediates), while distinct objects — even with equal contents —
  /// never alias.
  int64_t ObjectId() const { return object_id_; }

 private:
  int64_t object_id_;
};

using DataPtr = std::shared_ptr<Data>;

/// A scalar value of one of the four scalar value types.
class ScalarObject final : public Data {
 public:
  static DataPtr MakeDouble(double v);
  static DataPtr MakeInt(int64_t v);
  static DataPtr MakeBool(bool v);
  static DataPtr MakeString(std::string v);

  DataType GetDataType() const override { return DataType::kScalar; }
  ValueType GetValueType() const override { return vt_; }

  double AsDouble() const;
  int64_t AsInt() const;
  bool AsBool() const;
  /// String rendering (used by print/toString and operand encoding).
  std::string AsString() const;

  std::string DebugString() const override { return AsString(); }

 private:
  ValueType vt_ = ValueType::kFP64;
  double dval_ = 0.0;
  int64_t ival_ = 0;
  bool bval_ = false;
  std::string sval_;
};

/// A matrix variable: metadata plus the cached MatrixBlock. Participates in
/// the buffer pool: the block may be evicted to disk and restored on
/// acquire (paper §2.3(3), multi-level buffer pool).
class MatrixObject final : public Data {
 public:
  explicit MatrixObject(MatrixBlock block);
  /// Wraps a compressed block (paper §3.4). The compressed form stays
  /// authoritative: AcquireRead materializes an uncompressed copy on demand
  /// for kernels without a compressed implementation, while AcquireCompressed
  /// serves the transparent compressed dispatch in the instructions.
  explicit MatrixObject(CompressedMatrixBlock block);
  ~MatrixObject() override;

  DataType GetDataType() const override { return DataType::kMatrix; }
  ValueType GetValueType() const override { return ValueType::kFP64; }

  int64_t Rows() const { return rows_; }
  int64_t Cols() const { return cols_; }
  int64_t NonZeros() const { return nnz_; }

  /// Pins the block in memory (restoring from disk if evicted) and returns
  /// it. Callers must not mutate; Release() unpins. Fails (kIoError /
  /// kCorrupt) when an evicted block cannot be restored from its spill
  /// file even after a retry; the object is left unpinned with the spill
  /// file intact, so a later acquire can try again once the I/O fault
  /// clears. Callers must propagate the error — never substitute data.
  StatusOr<const MatrixBlock*> AcquireRead();
  void Release();

  /// True when this object carries a compressed representation (in memory
  /// or spilled in compressed form). Instructions consult this before
  /// attempting compressed dispatch.
  bool HasCompressed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return compressed_ != nullptr || spilled_compressed_;
  }

  /// Pins the compressed block (restoring a compressed spill file if
  /// needed) and returns it; Release() unpins. Fails when the object holds
  /// no compressed representation — gate on HasCompressed().
  StatusOr<const CompressedMatrixBlock*> AcquireCompressed();

  /// True if the in-memory block is currently present.
  bool IsCached() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return block_ != nullptr;
  }
  /// True if any in-memory representation (dense or compressed) is present
  /// — the buffer pool's notion of "resident".
  bool HasPayload() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return block_ != nullptr || compressed_ != nullptr;
  }
  int64_t PinCount() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return pin_count_;
  }
  /// True while a payload restored by a prefetch waits for its first
  /// acquire.
  bool PrefetchPending() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return prefetched_;
  }

  /// Buffer-pool hook for the synchronous spill: WriteBack(path), then
  /// DropIfClean(). When the object is already clean (its spill file holds
  /// the payload — blocks are immutable, so a spill file once written stays
  /// valid), the drop is free and no I/O happens. Returns true if the block
  /// was evicted, false if the drop was skipped (pinned — then the block
  /// stays resident and clean — already evicted, or a write-behind spill is
  /// in flight), or an error when the spill write failed (the block stays
  /// safely in memory; the pool retries once, then re-pins).
  StatusOr<bool> EvictTo(const std::string& path);

  /// Write-behind hook: writes the payload to `path` without dropping it,
  /// marking the object clean so a later eviction is a free drop. Returns
  /// false when there is nothing to do (already clean, no payload, or a
  /// concurrent spill of the same file is in flight). The write runs
  /// outside the object lock — acquires proceed concurrently.
  StatusOr<bool> WriteBack(const std::string& path);

  /// Drops the in-memory payload iff the object is clean and unpinned
  /// (free eviction — no I/O). Returns true when the payload was dropped.
  bool DropIfClean();

  /// Prefetch hook (background thread): restores a spilled payload ahead
  /// of demand. Failures are silent — the next AcquireRead retries and
  /// surfaces the error. Single-flight with demand restores: whichever
  /// starts first reads the file, the other waits or bails.
  void PrefetchRestore();

  int64_t EstimateSizeInBytes() const;

  std::string DebugString() const override;

  /// Binds this object to `pool` and registers its resident payload there.
  /// An object belongs to at most one pool for its whole life: once bound,
  /// further calls are no-ops, so an object shared across contexts stays
  /// in the pool that stored it first. The object keeps a shared reference
  /// to its pool, so the pool outlives every object registered in it.
  /// ExecutionContext::SetVar calls this on every matrix it stores.
  void BindPool(std::shared_ptr<BufferPool> pool);

  /// The pool this object is bound to (nullptr while unbound).
  BufferPool* Pool() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return pool_.get();
  }

 private:
  // Single-flight restore. Requires `lock` held on entry; drops it around
  // the disk read and re-acquires before returning. Concurrent callers
  // coalesce: one performs the read, the rest wait on restore_cv_. Retries
  // a failed read once (fault.bufferpool.restore_retries). Performs no
  // buffer-pool calls (lock ordering: the pool locks pool->object, the
  // acquire path must never nest object->pool). On final failure the
  // error is returned and the spill file is kept so the next acquire can
  // retry (fault.bufferpool.restore_failures). On success the spill file
  // is also kept and the object stays clean: blocks are immutable, so the
  // file remains valid and re-eviction is a free drop.
  Status EnsureRestoredLocked(std::unique_lock<std::mutex>& lock);

  // The acquire path of AcquireRead and AcquireCompressed: pins, restores a
  // spilled payload, then calls `select(restored)` under the lock to pick
  // the representation to return. `select` sets `restored` when it had to
  // build that representation (decompress-on-read counts as a miss); an
  // error it returns undoes the pin. Then counts the hit or miss (and a
  // prefetch hit) and runs the pool tail: Register after a miss, Touch, and
  // NotePinned on the first pin.
  template <typename T, typename Select>
  StatusOr<const T*> Acquire(Select select);

  // Sum of the in-memory representations (caller holds mutex_); falls back
  // to the metadata estimate when everything is evicted.
  int64_t EstimateSizeLocked() const;

  mutable std::mutex mutex_;
  std::shared_ptr<MatrixBlock> block_;
  // Compressed representation (§3.4). May coexist with block_ after a
  // decompress-on-demand; eviction then spills only the compressed form.
  std::shared_ptr<const CompressedMatrixBlock> compressed_;
  // True while evicted_path_ holds the compressed serialization format.
  bool spilled_compressed_ = false;
  // True while evicted_path_ holds a valid, current copy of the payload
  // (written by eviction, write-behind, or a kept file after restore).
  bool clean_spill_ = false;
  // True while a thread is reading the spill file (single-flight guard).
  bool restoring_ = false;
  // True while a write-behind thread is writing the spill file (prevents
  // two writers racing on the same temp file).
  bool spilling_ = false;
  // Set by a successful PrefetchRestore, cleared by the next acquire:
  // attributes the avoided miss to the prefetcher (prefetch_hits).
  bool prefetched_ = false;
  std::condition_variable restore_cv_;
  std::string evicted_path_;
  // Set once by BindPool, never reset: Register/Touch/NotePinned/
  // Unregister all go to this pool.
  std::shared_ptr<BufferPool> pool_;
  int64_t rows_ = 0, cols_ = 0, nnz_ = 0;
  int64_t pin_count_ = 0;
};

class FrameObject final : public Data {
 public:
  explicit FrameObject(FrameBlock frame) : frame_(std::move(frame)) {}
  DataType GetDataType() const override { return DataType::kFrame; }
  ValueType GetValueType() const override { return ValueType::kString; }
  const FrameBlock& Frame() const { return frame_; }
  FrameBlock& MutableFrame() { return frame_; }
  std::string DebugString() const override { return frame_.ToString(); }

 private:
  FrameBlock frame_;
};

class TensorObject final : public Data {
 public:
  explicit TensorObject(TensorBlock tensor) : tensor_(std::move(tensor)) {}
  DataType GetDataType() const override { return DataType::kTensor; }
  ValueType GetValueType() const override { return tensor_.GetValueType(); }
  const TensorBlock& Tensor() const { return tensor_; }
  std::string DebugString() const override { return tensor_.ToString(); }

 private:
  TensorBlock tensor_;
};

class ListObject final : public Data {
 public:
  DataType GetDataType() const override { return DataType::kList; }
  ValueType GetValueType() const override { return ValueType::kUnknown; }
  void Append(DataPtr item, std::string name = "") {
    items_.push_back(std::move(item));
    names_.push_back(std::move(name));
  }
  int64_t Size() const { return static_cast<int64_t>(items_.size()); }
  const DataPtr& Get(int64_t i) const { return items_[static_cast<size_t>(i)]; }
  StatusOr<DataPtr> GetByName(const std::string& name) const;
  std::string DebugString() const override;

 private:
  std::vector<DataPtr> items_;
  std::vector<std::string> names_;
};

// Convenience casts with error reporting.
StatusOr<ScalarObject*> AsScalar(const DataPtr& d, const std::string& what);
StatusOr<MatrixObject*> AsMatrix(const DataPtr& d, const std::string& what);
StatusOr<FrameObject*> AsFrame(const DataPtr& d, const std::string& what);

// Pins `obj` for reading and binds `ref` (a const MatrixBlock&) to the
// pinned block, propagating restore failures to the caller. The _CLEANUP
// variant runs `cleanup` before returning on failure — use it to Release()
// pins acquired earlier in the same scope.
#define SYSDS_ACQUIRE_READ_CLEANUP(ref, obj, cleanup)            \
  auto SYSDS_CONCAT(_acquire_, __LINE__) = (obj)->AcquireRead(); \
  if (!SYSDS_CONCAT(_acquire_, __LINE__).ok()) {                 \
    cleanup;                                                     \
    return SYSDS_CONCAT(_acquire_, __LINE__).status();           \
  }                                                              \
  const ::sysds::MatrixBlock& ref = **SYSDS_CONCAT(_acquire_, __LINE__)

#define SYSDS_ACQUIRE_READ(ref, obj) \
  SYSDS_ACQUIRE_READ_CLEANUP(ref, obj, (void)0)

}  // namespace sysds

#endif  // SYSDS_RUNTIME_CONTROLPROG_DATA_H_
