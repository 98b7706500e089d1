#include "lineage/lineage.h"

#include <algorithm>
#include <limits>
#include <set>
#include <sstream>

#include "common/util.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/controlprog/data.h"
#include "runtime/controlprog/execution_context.h"
#include "runtime/matrix/lib_matmult.h"
#include "runtime/matrix/lib_reorg.h"

namespace sysds {

namespace {
struct LineageMetrics {
  obs::Counter* cache_misses;
  obs::Counter* cache_puts;
};

LineageMetrics& Metrics() {
  auto& r = obs::MetricsRegistry::Get();
  static LineageMetrics m = {
      r.GetCounter("lineage.cache_misses"),
      r.GetCounter("lineage.cache_puts"),
  };
  return m;
}

uint64_t ComputeHash(const std::string& opcode, const std::string& data,
                     const std::vector<LineageItemPtr>& inputs) {
  uint64_t h = HashCombine(HashString(opcode), HashString(data));
  for (const LineageItemPtr& in : inputs) h = HashCombine(h, in->hash());
  return h;
}
}  // namespace

LineageItemPtr LineageItem::Leaf(const std::string& opcode,
                                 const std::string& data) {
  auto item = std::shared_ptr<LineageItem>(new LineageItem());
  item->opcode_ = opcode;
  item->data_ = data;
  item->hash_ = ComputeHash(opcode, data, {});
  return item;
}

LineageItemPtr LineageItem::Node(const std::string& opcode,
                                 std::vector<LineageItemPtr> inputs) {
  auto item = std::shared_ptr<LineageItem>(new LineageItem());
  item->opcode_ = opcode;
  item->inputs_ = std::move(inputs);
  item->hash_ = ComputeHash(opcode, "", item->inputs_);
  return item;
}

bool LineageItem::Equals(const LineageItem& other) const {
  if (hash_ != other.hash_ || opcode_ != other.opcode_ ||
      data_ != other.data_ || inputs_.size() != other.inputs_.size()) {
    return false;
  }
  for (size_t i = 0; i < inputs_.size(); ++i) {
    if (inputs_[i].get() == other.inputs_[i].get()) continue;
    if (!inputs_[i]->Equals(*other.inputs_[i])) return false;
  }
  return true;
}

namespace {
void SerializeVisit(const LineageItem* item,
                    std::set<const LineageItem*>* seen, std::ostream& os) {
  if (!seen->insert(item).second) return;
  for (const LineageItemPtr& in : item->inputs()) {
    SerializeVisit(in.get(), seen, os);
  }
  os << "(" << std::hex << item->hash() << std::dec << ") "
     << item->opcode();
  if (!item->data().empty()) os << " " << item->data();
  if (!item->inputs().empty()) {
    os << " <-";
    for (const LineageItemPtr& in : item->inputs()) {
      os << " (" << std::hex << in->hash() << std::dec << ")";
    }
  }
  os << "\n";
}

void CountVisit(const LineageItem* item, std::set<const LineageItem*>* seen) {
  if (!seen->insert(item).second) return;
  for (const LineageItemPtr& in : item->inputs()) {
    CountVisit(in.get(), seen);
  }
}
}  // namespace

std::string LineageItem::Serialize() const {
  std::ostringstream os;
  std::set<const LineageItem*> seen;
  SerializeVisit(this, &seen, os);
  return os.str();
}

int64_t LineageItem::NodeCount() const {
  std::set<const LineageItem*> seen;
  CountVisit(this, &seen);
  return static_cast<int64_t>(seen.size());
}

LineageItemPtr LineageMap::GetOrCreate(const std::string& var) {
  auto it = items_.find(var);
  if (it != items_.end()) return it->second;
  LineageItemPtr leaf = LineageItem::Leaf("in", var);
  items_[var] = leaf;
  return leaf;
}

LineageItemPtr LineageMap::GetOrNull(const std::string& var) const {
  auto it = items_.find(var);
  return it == items_.end() ? nullptr : it->second;
}

void LineageMap::Set(const std::string& var, LineageItemPtr item) {
  items_[var] = std::move(item);
}

void LineageMap::Remove(const std::string& var) { items_.erase(var); }

LineageItemPtr LineageMap::CreateItemForInstruction(const Instruction& instr) {
  std::vector<LineageItemPtr> inputs;
  inputs.reserve(instr.inputs().size());
  for (const Operand& op : instr.inputs()) {
    if (op.is_literal) {
      inputs.push_back(LineageItem::Leaf("lit", op.lit.AsString()));
    } else {
      inputs.push_back(GetOrCreate(op.name));
    }
  }
  return LineageItem::Node(instr.opcode(), std::move(inputs));
}

int64_t LineageMap::TotalNodeCount() const {
  std::set<const LineageItem*> seen;
  for (const auto& [var, item] : items_) CountVisit(item.get(), &seen);
  return static_cast<int64_t>(seen.size());
}

namespace {
uint64_t PatchHashVisit(const LineageItem* item,
                        const std::map<const LineageItem*, int>& boundary,
                        std::map<const LineageItem*, uint64_t>* memo) {
  auto mit = memo->find(item);
  if (mit != memo->end()) return mit->second;
  uint64_t h;
  auto bit = boundary.find(item);
  if (bit != boundary.end()) {
    h = HashCombine(HashString("ph"), static_cast<uint64_t>(bit->second));
  } else if (item->opcode() == "lit") {
    h = HashString("lit");  // value-insensitive: paths unify over literals
  } else {
    h = HashString(item->opcode());
    for (const LineageItemPtr& in : item->inputs()) {
      h = HashCombine(h, PatchHashVisit(in.get(), boundary, memo));
    }
  }
  (*memo)[item] = h;
  return h;
}
}  // namespace

uint64_t LineagePatchHash(
    const LineageItem& item,
    const std::map<const LineageItem*, int>& boundary) {
  std::map<const LineageItem*, uint64_t> memo;
  return PatchHashVisit(&item, boundary, &memo);
}

LineageCache::LineageCache(int64_t limit_bytes, ReusePolicy policy)
    : limit_bytes_(limit_bytes), policy_(policy) {}

bool LineageCache::MayContain(uint64_t hash) {
  const Shard& s = ShardFor(hash);
  if (s.generation.load(std::memory_order_acquire) == 0) return false;
  return (s.summary.load(std::memory_order_acquire) & SummaryBit(hash)) != 0;
}

DataPtr LineageCache::LockedLookup(uint64_t hash,
                                   const LineageItem& expected) {
  Shard& s = ShardFor(hash);
  std::lock_guard<std::mutex> lock(s.mutex);
  auto it = s.entries.find(hash);
  if (it == s.entries.end() || !it->second.item->Equals(expected)) {
    return nullptr;
  }
  it->second.last_use = clock_.fetch_add(1, std::memory_order_relaxed) + 1;
  return it->second.value;
}

DataPtr LineageCache::Probe(const LineageItemPtr& item) {
  probes_.fetch_add(1, std::memory_order_relaxed);
  obs::Tracer::Instant("lineage", "cache_probe");
  // Hot miss path: the generation counter and resident-hash summary of the
  // shard prove absence without taking the shard mutex.
  if (!MayContain(item->hash())) {
    Metrics().cache_misses->Add(1);
    return nullptr;
  }
  DataPtr hit = LockedLookup(item->hash(), *item);
  if (hit == nullptr) {
    Metrics().cache_misses->Add(1);
    return nullptr;
  }
  full_hits_.fetch_add(1, std::memory_order_relaxed);
  obs::Tracer::Instant("lineage", "cache_hit");
  return hit;
}

void LineageCache::Put(const LineageItemPtr& item, const DataPtr& value) {
  auto* m = dynamic_cast<MatrixObject*>(value.get());
  if (m == nullptr) return;  // cache matrices only
  Metrics().cache_puts->Add(1);
  int64_t size = m->EstimateSizeInBytes();
  if (size > limit_bytes_) return;
  uint64_t hash = item->hash();
  Entry e;
  e.item = item;
  e.value = value;
  e.size = size;
  e.last_use = clock_.fetch_add(1, std::memory_order_relaxed) + 1;
  bool inserted = false;
  {
    Shard& s = ShardFor(hash);
    std::lock_guard<std::mutex> lock(s.mutex);
    auto [it, fresh] = s.entries.emplace(hash, std::move(e));
    if (!fresh) {
      // Concurrent executors may compute the same intermediate; keep the
      // first copy and just refresh its recency.
      it->second.last_use = clock_.load(std::memory_order_relaxed);
      return;
    }
    inserted = true;
    ++s.puts;
    s.summary.fetch_or(SummaryBit(hash), std::memory_order_release);
    s.generation.fetch_add(1, std::memory_order_release);
  }
  if (inserted) {
    bytes_.fetch_add(size, std::memory_order_relaxed);
    EvictIfNeeded();
  }
}

void LineageCache::EvictIfNeeded() {
  while (bytes_.load(std::memory_order_relaxed) > limit_bytes_) {
    // Pass 1: find the shard holding the globally oldest entry (each shard
    // is locked briefly; the snapshot may be slightly stale, which only
    // perturbs LRU order, never correctness).
    int victim_shard = -1;
    int64_t oldest = std::numeric_limits<int64_t>::max();
    for (int i = 0; i < kNumShards; ++i) {
      std::lock_guard<std::mutex> lock(shards_[static_cast<size_t>(i)].mutex);
      for (const auto& [hash, entry] :
           shards_[static_cast<size_t>(i)].entries) {
        if (entry.last_use < oldest) {
          oldest = entry.last_use;
          victim_shard = i;
        }
      }
    }
    if (victim_shard < 0) return;  // racing evictors emptied the cache
    // Pass 2: evict that shard's current oldest entry and rebuild the
    // resident-hash summary from the survivors.
    Shard& s = shards_[static_cast<size_t>(victim_shard)];
    std::lock_guard<std::mutex> lock(s.mutex);
    if (s.entries.empty()) continue;
    auto victim = s.entries.begin();
    for (auto it = s.entries.begin(); it != s.entries.end(); ++it) {
      if (it->second.last_use < victim->second.last_use) victim = it;
    }
    bytes_.fetch_sub(victim->second.size, std::memory_order_relaxed);
    ++s.evictions;
    s.entries.erase(victim);
    uint64_t summary = 0;
    for (const auto& [hash, entry] : s.entries) summary |= SummaryBit(hash);
    s.summary.store(summary, std::memory_order_release);
  }
}

LineageCacheStats LineageCache::Stats() const {
  LineageCacheStats stats;
  stats.probes = probes_.load(std::memory_order_relaxed);
  stats.bytes = bytes_.load(std::memory_order_relaxed);
  stats.full_hits = full_hits_.load(std::memory_order_relaxed);
  stats.partial_hits = partial_hits_.load(std::memory_order_relaxed);
  for (const Shard& s : shards_) {
    std::lock_guard<std::mutex> lock(s.mutex);
    stats.puts += s.puts;
    stats.evictions += s.evictions;
  }
  return stats;
}

void LineageCache::Clear() {
  for (Shard& s : shards_) {
    std::lock_guard<std::mutex> lock(s.mutex);
    for (const auto& [hash, entry] : s.entries) {
      bytes_.fetch_sub(entry.size, std::memory_order_relaxed);
    }
    s.entries.clear();
    s.summary.store(0, std::memory_order_release);
    // generation stays nonzero: it counts inserts ever, and a cleared shard
    // is re-proven empty by the summary.
  }
}

namespace {
// tsmm(X) for X = cbind(A, v) from c = tsmm(A). One pass over X computes
// w = t(X)%*%v: its first p rows are t(A)%*%v and its last k rows
// t(v)%*%v, so only v is sliced and A is never copied.
StatusOr<MatrixBlock> CompensateTsmm(const MatrixBlock& c,
                                     const MatrixBlock& x, int threads) {
  const int64_t n = x.Cols(), p = c.Rows(), k = n - p;
  if (c.Cols() != p || k < 1) {
    return InvalidArgument("tsmm compensation: cached block does not fit X");
  }
  SYSDS_ASSIGN_OR_RETURN(MatrixBlock v,
                         SliceMatrix(x, 0, x.Rows() - 1, p, n - 1));
  SYSDS_ASSIGN_OR_RETURN(MatrixBlock w, TransposeLeftMatMult(x, v, threads));
  w.ToDense();
  MatrixBlock out = MatrixBlock::Dense(n, n);
  for (int64_t i = 0; i < p; ++i) {
    double* orow = out.DenseRow(i);
    if (!c.IsSparse()) {
      std::copy(c.DenseRow(i), c.DenseRow(i) + p, orow);
    } else {
      const SparseRow& row = c.SparseData().Row(i);
      for (int64_t q = 0; q < row.Size(); ++q) {
        orow[row.Indexes()[q]] = row.Values()[q];
      }
    }
    const double* wrow = w.DenseRow(i);
    std::copy(wrow, wrow + k, orow + p);
    for (int64_t j = 0; j < k; ++j) out.DenseRow(p + j)[i] = wrow[j];
  }
  // t(v)%*%v from its upper triangle, so the output is exactly symmetric.
  for (int64_t i = 0; i < k; ++i) {
    for (int64_t j = i; j < k; ++j) {
      const double s = w.DenseRow(p + i)[j];
      out.DenseRow(p + i)[p + j] = s;
      out.DenseRow(p + j)[p + i] = s;
    }
  }
  out.MarkNnzDirty();
  return out;
}

// tmm(X, y) for X = cbind(A, v) from c = tmm(A, y):
// rbind(c, t(v)%*%y), again slicing only v.
StatusOr<MatrixBlock> CompensateTmm(const MatrixBlock& c,
                                    const MatrixBlock& x,
                                    const MatrixBlock& y, int threads) {
  const int64_t n = x.Cols(), p = c.Rows();
  if (p >= n) {
    return InvalidArgument("tmm compensation: cached block does not fit X");
  }
  SYSDS_ASSIGN_OR_RETURN(MatrixBlock v,
                         SliceMatrix(x, 0, x.Rows() - 1, p, n - 1));
  SYSDS_ASSIGN_OR_RETURN(MatrixBlock vty, TransposeLeftMatMult(v, y, threads));
  return RBind({&c, &vty});
}
}  // namespace

StatusOr<DataPtr> LineageCache::ProbePartial(const Instruction& instr,
                                             const LineageItemPtr& item,
                                             ExecutionContext* ec) {
  if (policy_ != ReusePolicy::kPartial) return DataPtr(nullptr);
  std::string op = instr.opcode();
  if (op.rfind("sp_", 0) == 0) op = op.substr(3);  // logical opcode
  // Pattern 1: tsmm(cbind(A, v)) with cached tsmm(A):
  //   t(X)%*%X = [[t(A)%*%A, t(A)%*%v], [t(v)%*%A, t(v)%*%v]].
  // Pattern 2: tmm(cbind(A, v), y) with cached tmm(A, y):
  //   t(X)%*%y = rbind(t(A)%*%y, t(v)%*%y).
  if (op != "tsmm" && op != "tmm") return DataPtr(nullptr);
  if (item->inputs().empty()) return DataPtr(nullptr);
  const LineageItemPtr& xi = item->inputs()[0];
  if (xi->opcode() != "cbind" || xi->inputs().size() != 2) {
    return DataPtr(nullptr);
  }
  // The appended width is whatever X has beyond the cached prefix; it is
  // read from the runtime values below.
  LineageItemPtr probe_item;
  if (op == "tsmm") {
    probe_item = LineageItem::Node("tsmm", {xi->inputs()[0]});
  } else {
    if (item->inputs().size() < 2 || instr.inputs().size() < 2) {
      return DataPtr(nullptr);
    }
    probe_item = LineageItem::Node("tmm", {xi->inputs()[0],
                                           item->inputs()[1]});
  }
  if (!MayContain(probe_item->hash())) return DataPtr(nullptr);
  // Pin the cached value via shared_ptr and run the compensation plan
  // outside the shard lock (it may evict concurrently; the copy is safe).
  DataPtr cached_value = LockedLookup(probe_item->hash(), *probe_item);
  if (cached_value == nullptr) return DataPtr(nullptr);
  auto* cached = dynamic_cast<MatrixObject*>(cached_value.get());
  if (cached == nullptr) return DataPtr(nullptr);

  // Compensation plan over the cached block, the current X and (for tmm)
  // y. A pin or plan failure here is a reuse miss, not a probe error:
  // returning null routes the instruction to normal execution, which
  // surfaces the error.
  std::vector<MatrixObject*> objs = {cached};
  const size_t operands = op == "tsmm" ? 1 : 2;
  for (size_t i = 0; i < operands; ++i) {
    SYSDS_ASSIGN_OR_RETURN(MatrixObject * obj,
                           ec->GetMatrix(instr.inputs()[i]));
    objs.push_back(obj);
  }
  std::vector<const MatrixBlock*> blocks;
  for (MatrixObject* obj : objs) {
    auto block = obj->AcquireRead();
    if (!block.ok()) break;
    blocks.push_back(*block);
  }
  StatusOr<MatrixBlock> out = InvalidArgument("partial reuse: pin failed");
  if (blocks.size() == objs.size()) {
    const int threads = ec->NumThreads();
    out = op == "tsmm"
              ? CompensateTsmm(*blocks[0], *blocks[1], threads)
              : CompensateTmm(*blocks[0], *blocks[1], *blocks[2], threads);
  }
  for (size_t i = 0; i < blocks.size(); ++i) objs[i]->Release();
  if (!out.ok()) return DataPtr(nullptr);
  partial_hits_.fetch_add(1, std::memory_order_relaxed);
  DataPtr result = std::make_shared<MatrixObject>(std::move(*out));
  Put(item, result);
  return result;
}

}  // namespace sysds
