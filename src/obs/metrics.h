#ifndef SYSDS_OBS_METRICS_H_
#define SYSDS_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>

namespace sysds {
namespace obs {

/// Shard index of the calling thread. Threads get round-robin ids, so up
/// to kShards threads increment disjoint cache lines.
constexpr size_t kMetricShards = 16;
size_t ThreadShard();

/// Monotonically increasing counter backed by per-shard atomics: Add() is a
/// single relaxed fetch_add on a (mostly) thread-private cache line, Value()
/// sums the shards. No mutex anywhere.
class Counter {
 public:
  void Add(int64_t delta = 1) {
    cells_[ThreadShard()].v.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t Value() const {
    int64_t sum = 0;
    for (const Cell& c : cells_) sum += c.v.load(std::memory_order_relaxed);
    return sum;
  }

 private:
  struct alignas(64) Cell {
    std::atomic<int64_t> v{0};
  };
  Cell cells_[kMetricShards];
};

/// Point-in-time value (queue depth, cached bytes, active workers). A
/// gauge that several objects feed (one per pool or service) is updated
/// with Add(delta) only, so it reads the sum over the live objects.
class Gauge {
 public:
  void Set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void Add(int64_t delta) { v_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

/// Log-scale (power-of-two bucket) histogram for long-tailed values such as
/// latencies in nanoseconds or sizes in bytes. Bucket i counts values v
/// with bit_width(v) == i, i.e. [2^(i-1), 2^i); bucket 0 counts v <= 0.
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  void Observe(int64_t v);
  int64_t Count() const;
  int64_t Sum() const { return sum_.Value(); }
  int64_t BucketCount(int bucket) const {
    return buckets_[bucket].load(std::memory_order_relaxed);
  }
  /// Upper bound (2^i) of the bucket containing the p-quantile, p in [0,1].
  int64_t ApproxQuantile(double p) const;

 private:
  std::atomic<int64_t> buckets_[kBuckets] = {};
  Counter sum_;
};

/// Per-opcode instruction timing under `-stats`: invocation count plus
/// accumulated nanoseconds.
struct InstrStat {
  Counter count;
  Counter nanos;
};

/// Every counter, histogram (count and sum) and instruction stat at one
/// moment, by name. Lookups of a name that is absent read 0.
struct MetricsSnapshot {
  struct Hist {
    int64_t count = 0;
    int64_t sum = 0;
  };
  struct Instr {
    int64_t count = 0;
    int64_t nanos = 0;
  };
  std::map<std::string, int64_t> counters;
  std::map<std::string, Hist> histograms;
  std::map<std::string, Instr> instructions;

  int64_t Counter(const std::string& name) const;
  Hist Histogram(const std::string& name) const;
  Instr Instruction(const std::string& name) const;
};

/// Process-wide registry of named metrics. It is monotonic: metrics are
/// never removed and counters never reset, so what one run counted is the
/// difference of two snapshots (MetricsDiff), and no context can zero what
/// another is measuring.
///
/// Lookup takes a shared (reader) lock; creation takes the exclusive lock
/// once per name. Returned pointers are stable for the process lifetime, so
/// each module resolves its metrics once, in a function-local static struct
/// of pointers, and then updates them lock-free.
class MetricsRegistry {
 public:
  static MetricsRegistry& Get();

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);
  InstrStat* GetInstrStat(const std::string& name);

  /// Value of a counter, 0 when it was never created (no side effects).
  int64_t CounterValue(const std::string& name) const;

  MetricsSnapshot Snapshot() const;

  /// The `-stats` heavy-hitter report: the top_k instructions by total time,
  /// then every non-zero counter.
  std::string Report(int top_k = 15) const;

  /// JSON export: {"counters":{...},"gauges":{...},"instructions":{...},
  /// "histograms":{...}}.
  std::string ExportJson() const;

 private:
  MetricsRegistry() = default;

  mutable std::shared_mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::unique_ptr<InstrStat>> instructions_;
};

/// What the registry counted since this object was made: the one way tests
/// and benches measure a run. The diff includes what other threads counted
/// meanwhile, so it is exact for metrics only the measured run touches.
class MetricsDiff {
 public:
  MetricsDiff() : start_(MetricsRegistry::Get().Snapshot()) {}

  /// Now minus the start; metrics that did not change are left out.
  MetricsSnapshot Delta() const;
  int64_t Counter(const std::string& name) const {
    return Delta().Counter(name);
  }

 private:
  MetricsSnapshot start_;
};

}  // namespace obs
}  // namespace sysds

#endif  // SYSDS_OBS_METRICS_H_
