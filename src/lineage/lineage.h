#ifndef SYSDS_LINEAGE_LINEAGE_H_
#define SYSDS_LINEAGE_LINEAGE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/status.h"
#include "runtime/controlprog/data.h"
#include "runtime/controlprog/instruction.h"

namespace sysds {

class ExecutionContext;

/// A node of the lineage DAG (paper §3.1): one logical operation with its
/// literal inputs and references to the lineage of its operand variables.
/// Items are immutable; the 64-bit hash is computed structurally on
/// construction and identifies the full sub-DAG (used as the reuse-cache
/// key).
class LineageItem {
 public:
  static std::shared_ptr<LineageItem> Leaf(const std::string& opcode,
                                           const std::string& data);
  static std::shared_ptr<LineageItem> Node(
      const std::string& opcode,
      std::vector<std::shared_ptr<LineageItem>> inputs);

  uint64_t hash() const { return hash_; }
  const std::string& opcode() const { return opcode_; }
  const std::string& data() const { return data_; }
  const std::vector<std::shared_ptr<LineageItem>>& inputs() const {
    return inputs_;
  }

  /// Structural equality (used to guard against hash collisions).
  bool Equals(const LineageItem& other) const;

  /// Serializes the DAG rooted here ("(id) opcode data (inputs...)" lines),
  /// the debugging/query surface over traces.
  std::string Serialize() const;

  /// Total number of distinct nodes in this DAG.
  int64_t NodeCount() const;

 private:
  LineageItem() = default;

  uint64_t hash_ = 0;
  std::string opcode_;
  std::string data_;
  std::vector<std::shared_ptr<LineageItem>> inputs_;
};

using LineageItemPtr = std::shared_ptr<LineageItem>;

/// Per-scope map of live variables to their lineage DAG roots.
class LineageMap {
 public:
  /// Lineage of a variable; creates an input leaf on first access (script
  /// inputs are traced by name, §3.1).
  LineageItemPtr GetOrCreate(const std::string& var);
  LineageItemPtr GetOrNull(const std::string& var) const;
  void Set(const std::string& var, LineageItemPtr item);
  void Remove(const std::string& var);

  /// Builds the output lineage item of an instruction: literals become
  /// leaves, variable operands resolve through this map. Non-determinism
  /// (datagen seeds) is captured because the seed is a literal operand.
  LineageItemPtr CreateItemForInstruction(const Instruction& instr);

  int64_t TotalNodeCount() const;

  const std::map<std::string, LineageItemPtr>& Items() const {
    return items_;
  }

 private:
  std::map<std::string, LineageItemPtr> items_;
};

/// Structural signature of `item`'s sub-DAG with the given boundary items
/// replaced by positional placeholders and literal *values* ignored: two
/// loop iterations that executed the same operations over the loop-carried
/// state produce the same patch hash — the "distinct control flow path"
/// identity used for lineage loop deduplication (§3.1).
uint64_t LineagePatchHash(
    const LineageItem& item,
    const std::map<const LineageItem*, int>& boundary);

/// Cache statistics for benchmarks and tests.
struct LineageCacheStats {
  int64_t probes = 0;
  int64_t full_hits = 0;
  int64_t partial_hits = 0;
  int64_t puts = 0;
  int64_t evictions = 0;
  int64_t bytes = 0;
};

/// The lineage-based reuse cache (paper §3.1): intermediates keyed by the
/// hash of their lineage DAG, with full reuse and compensation-plan based
/// partial reuse (column-augmented tsmm/tmm, the steplm pattern).
///
/// Thread-safe for concurrent scoring (src/serve/): entries are sharded by
/// lineage hash with one mutex per shard, so probes/puts for different
/// sub-DAGs proceed in parallel. The hot miss path takes no lock at all:
/// each shard maintains an atomic generation counter (number of inserts
/// ever) and a 64-bit resident-hash summary; a zero generation or a clear
/// summary bit proves the hash is not resident, and only summary false
/// positives fall through to the locked lookup. Eviction approximates a
/// global LRU: a logical clock orders hits across shards and the eviction
/// sweep removes the globally oldest entry until under the byte limit.
class LineageCache {
 public:
  static constexpr int kShardBits = 4;
  static constexpr int kNumShards = 1 << kShardBits;

  LineageCache(int64_t limit_bytes, ReusePolicy policy);

  ReusePolicy policy() const { return policy_; }

  /// Full reuse probe. Returns the cached value or nullptr.
  DataPtr Probe(const LineageItemPtr& item);

  /// Partial-reuse probe for instruction `instr` with output lineage
  /// `item`: recognizes tsmm/tmm over cbind(A, v) when the result for A is
  /// cached, and computes the output via a compensation plan over the
  /// cached block plus the new column. Returns nullptr if not applicable.
  /// The compensation plan itself runs outside any shard lock.
  StatusOr<DataPtr> ProbePartial(const Instruction& instr,
                                 const LineageItemPtr& item,
                                 ExecutionContext* ec);

  /// Inserts a computed value (matrices only; respects the byte limit with
  /// LRU eviction).
  void Put(const LineageItemPtr& item, const DataPtr& value);

  /// Aggregated snapshot over all shards (counters are exact and only
  /// grow, so a run's activity is the difference of two snapshots; `bytes`
  /// is the current occupancy).
  LineageCacheStats Stats() const;
  void Clear();

 private:
  struct Entry {
    LineageItemPtr item;
    DataPtr value;
    int64_t size = 0;
    int64_t last_use = 0;
  };

  // Sized and aligned to keep each shard's mutex and map on distinct cache
  // lines under concurrent executors.
  struct alignas(64) Shard {
    mutable std::mutex mutex;
    std::map<uint64_t, Entry> entries;
    // Guarded by `mutex`.
    int64_t puts = 0;
    int64_t evictions = 0;
    // Lock-free probe summaries: `generation` counts inserts ever made into
    // the shard (0 = provably empty); `summary` has a bit set for every
    // hash that may be resident (rebuilt under the mutex on eviction).
    std::atomic<uint64_t> generation{0};
    std::atomic<uint64_t> summary{0};
  };

  Shard& ShardFor(uint64_t hash) {
    return shards_[hash & static_cast<uint64_t>(kNumShards - 1)];
  }
  static uint64_t SummaryBit(uint64_t hash) {
    return 1ULL << ((hash >> kShardBits) & 63);
  }
  /// True if `hash` may be resident; lock-free, no false negatives.
  bool MayContain(uint64_t hash);
  /// Locks shards one at a time to evict the globally oldest entry until
  /// total occupancy is back under the limit.
  void EvictIfNeeded();
  /// Looks up `hash` in its shard and returns the value (bumping LRU) or
  /// nullptr; `expected` guards against hash collisions. Counting the hit
  /// is left to the caller (the partial path only counts after its
  /// compensation plan actually served the result).
  DataPtr LockedLookup(uint64_t hash, const LineageItem& expected);

  int64_t limit_bytes_;
  ReusePolicy policy_;
  std::atomic<int64_t> clock_{0};
  std::atomic<int64_t> bytes_{0};
  std::atomic<int64_t> probes_{0};
  std::atomic<int64_t> full_hits_{0};
  std::atomic<int64_t> partial_hits_{0};
  std::array<Shard, kNumShards> shards_;
};

}  // namespace sysds

#endif  // SYSDS_LINEAGE_LINEAGE_H_
