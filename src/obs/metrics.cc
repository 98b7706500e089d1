#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <mutex>
#include <sstream>
#include <utility>
#include <vector>

namespace sysds {
namespace obs {

size_t ThreadShard() {
  static std::atomic<size_t> next{0};
  thread_local size_t shard = next.fetch_add(1) % kMetricShards;
  return shard;
}

void Histogram::Observe(int64_t v) {
  int bucket =
      v <= 0 ? 0 : std::bit_width(static_cast<uint64_t>(v));
  if (bucket >= kBuckets) bucket = kBuckets - 1;
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  sum_.Add(v);
}

int64_t Histogram::Count() const {
  int64_t n = 0;
  for (const auto& b : buckets_) n += b.load(std::memory_order_relaxed);
  return n;
}

int64_t Histogram::ApproxQuantile(double p) const {
  int64_t n = Count();
  if (n == 0) return 0;
  int64_t rank = static_cast<int64_t>(p * static_cast<double>(n - 1));
  int64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += buckets_[i].load(std::memory_order_relaxed);
    if (seen > rank) {
      return i == 0 ? 0 : (int64_t{1} << std::min(i, 62));
    }
  }
  return int64_t{1} << 62;
}

MetricsRegistry& MetricsRegistry::Get() {
  static MetricsRegistry* instance = new MetricsRegistry();
  return *instance;
}

namespace {
// Shared-lock lookup with exclusive-lock insertion on miss; values are
// never erased, so returned pointers stay valid forever.
template <typename T>
T* GetOrCreate(std::shared_mutex& mutex,
               std::map<std::string, std::unique_ptr<T>>& map,
               const std::string& name) {
  {
    std::shared_lock<std::shared_mutex> lock(mutex);
    auto it = map.find(name);
    if (it != map.end()) return it->second.get();
  }
  std::unique_lock<std::shared_mutex> lock(mutex);
  auto& slot = map[name];
  if (slot == nullptr) slot = std::make_unique<T>();
  return slot.get();
}

template <typename T>
T Find(const std::map<std::string, T>& map, const std::string& name) {
  auto it = map.find(name);
  return it == map.end() ? T{} : it->second;
}

void JsonEscapeTo(const std::string& s, std::ostream& os) {
  for (char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
}
}  // namespace

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  return GetOrCreate(mutex_, counters_, name);
}
Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  return GetOrCreate(mutex_, gauges_, name);
}
Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  return GetOrCreate(mutex_, histograms_, name);
}
InstrStat* MetricsRegistry::GetInstrStat(const std::string& name) {
  return GetOrCreate(mutex_, instructions_, name);
}

int64_t MetricsRegistry::CounterValue(const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second->Value();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  MetricsSnapshot s;
  for (const auto& [name, c] : counters_) s.counters[name] = c->Value();
  for (const auto& [name, h] : histograms_) {
    s.histograms[name] = {h->Count(), h->Sum()};
  }
  for (const auto& [name, i] : instructions_) {
    s.instructions[name] = {i->count.Value(), i->nanos.Value()};
  }
  return s;
}

std::string MetricsRegistry::Report(int top_k) const {
  MetricsSnapshot s = Snapshot();
  // Opcodes a context registered but never timed are not heavy hitters.
  std::vector<std::pair<std::string, MetricsSnapshot::Instr>> instrs;
  for (const auto& [name, i] : s.instructions) {
    if (i.count > 0) instrs.emplace_back(name, i);
  }
  std::sort(instrs.begin(), instrs.end(), [](const auto& a, const auto& b) {
    return a.second.nanos > b.second.nanos;
  });
  std::ostringstream os;
  os << "Heavy hitter instructions (count, time[s]):\n";
  int shown = 0;
  for (const auto& [name, i] : instrs) {
    if (shown++ >= top_k) break;
    os << "  " << name << "\t" << i.count << "\t"
       << static_cast<double>(i.nanos) / 1e9 << "\n";
  }
  bool header = false;
  for (const auto& [name, value] : s.counters) {
    if (value == 0) continue;
    if (!header) os << "Counters:\n";
    header = true;
    os << "  " << name << "\t" << value << "\n";
  }
  return os.str();
}

int64_t MetricsSnapshot::Counter(const std::string& name) const {
  return Find(counters, name);
}
MetricsSnapshot::Hist MetricsSnapshot::Histogram(
    const std::string& name) const {
  return Find(histograms, name);
}
MetricsSnapshot::Instr MetricsSnapshot::Instruction(
    const std::string& name) const {
  return Find(instructions, name);
}

MetricsSnapshot MetricsDiff::Delta() const {
  MetricsSnapshot now = MetricsRegistry::Get().Snapshot();
  MetricsSnapshot d;
  for (const auto& [name, v] : now.counters) {
    int64_t delta = v - start_.Counter(name);
    if (delta != 0) d.counters[name] = delta;
  }
  for (const auto& [name, h] : now.histograms) {
    MetricsSnapshot::Hist before = start_.Histogram(name);
    if (h.count != before.count) {
      d.histograms[name] = {h.count - before.count, h.sum - before.sum};
    }
  }
  for (const auto& [name, i] : now.instructions) {
    MetricsSnapshot::Instr before = start_.Instruction(name);
    if (i.count != before.count) {
      d.instructions[name] = {i.count - before.count, i.nanos - before.nanos};
    }
  }
  return d;
}

std::string MetricsRegistry::ExportJson() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  std::ostringstream os;
  os << "{";
  os << "\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) os << ",";
    first = false;
    os << "\"";
    JsonEscapeTo(name, os);
    os << "\":" << c->Value();
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) os << ",";
    first = false;
    os << "\"";
    JsonEscapeTo(name, os);
    os << "\":" << g->Value();
  }
  os << "},\"instructions\":{";
  first = true;
  for (const auto& [name, s] : instructions_) {
    if (!first) os << ",";
    first = false;
    os << "\"";
    JsonEscapeTo(name, os);
    os << "\":{\"count\":" << s->count.Value()
       << ",\"seconds\":" << static_cast<double>(s->nanos.Value()) / 1e9
       << "}";
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) os << ",";
    first = false;
    os << "\"";
    JsonEscapeTo(name, os);
    os << "\":{\"count\":" << h->Count() << ",\"sum\":" << h->Sum()
       << ",\"p50\":" << h->ApproxQuantile(0.5)
       << ",\"p99\":" << h->ApproxQuantile(0.99) << ",\"buckets\":[";
    bool bfirst = true;
    for (int i = 0; i < Histogram::kBuckets; ++i) {
      int64_t v = h->BucketCount(i);
      if (v == 0) continue;
      if (!bfirst) os << ",";
      bfirst = false;
      os << "[" << i << "," << v << "]";
    }
    os << "]}";
  }
  os << "}}";
  return os.str();
}

}  // namespace obs
}  // namespace sysds
