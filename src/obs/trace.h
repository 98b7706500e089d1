#ifndef SYSDS_OBS_TRACE_H_
#define SYSDS_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "common/status.h"

namespace sysds {
namespace obs {

/// Monotonic nanosecond timestamp (process-relative, steady clock).
inline uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One recorded event. Names are copied into a fixed inline buffer so a
/// span may outlive the instruction/string that named it; categories must
/// be string literals (stored by pointer).
struct TraceEvent {
  static constexpr size_t kNameCapacity = 47;

  char name[kNameCapacity + 1];
  const char* category;
  uint64_t ts_ns;    // start (instant: event time)
  uint64_t dur_ns;   // 0 for instants
  uint32_t depth;    // span nesting depth on the recording thread
  bool instant;
};

/// Single-writer ring buffer of trace events. The owning thread appends
/// without locks (release-publish on the head index); the exporter reads
/// with acquire ordering after tracing has been disabled. When full, the
/// oldest events are overwritten and counted as dropped.
class ThreadTraceBuffer {
 public:
  ThreadTraceBuffer(uint32_t tid, size_t capacity);

  void Append(const TraceEvent& ev) {
    uint64_t h = head_.load(std::memory_order_relaxed);
    events_[h % events_.size()] = ev;
    head_.store(h + 1, std::memory_order_release);
  }

  uint32_t tid() const { return tid_; }
  /// Guarded by the Tracer's registry lock.
  const std::string& thread_name() const { return thread_name_; }
  void set_thread_name(std::string name) { thread_name_ = std::move(name); }

  /// Events currently retained, oldest first. Call after tracing is
  /// disabled on the owning thread (export-time drain).
  std::vector<TraceEvent> Drain() const;
  uint64_t DroppedCount() const;
  void Clear() { head_.store(0, std::memory_order_release); }

 private:
  uint32_t tid_;
  std::string thread_name_;
  std::vector<TraceEvent> events_;
  std::atomic<uint64_t> head_{0};
};

/// Aggregated per-(category, name) timing, for the flat text summary.
struct SpanAggregate {
  std::string category;
  std::string name;
  int64_t count = 0;
  uint64_t total_ns = 0;
};

/// Process-wide span tracer. Disabled by default: the only hot-path cost of
/// an inactive ScopedSpan is one relaxed atomic load and a branch. Threads
/// register lazily on their first event; buffers belong to the tracer and
/// survive thread exit so late exports see every thread's events.
class Tracer {
 public:
  static Tracer& Get();

  static bool Enabled() {
    return g_enabled.load(std::memory_order_relaxed);
  }
  void Enable() { g_enabled.store(true, std::memory_order_relaxed); }
  void Disable() { g_enabled.store(false, std::memory_order_relaxed); }

  /// Records a zero-duration instant event (e.g. a buffer-pool eviction).
  static void Instant(const char* category, const char* name) {
    if (!Enabled()) return;
    Get().RecordInstant(category, name);
  }
  static void Instant(const char* category, const std::string& name) {
    if (!Enabled()) return;
    Get().RecordInstant(category, name.c_str());
  }

  /// Names the calling thread in the trace viewer ("pool-worker-3").
  /// Cheap enough to call unconditionally from thread mains.
  static void SetCurrentThreadName(const std::string& name);

  /// Drops all recorded events (buffers and thread registrations remain).
  void Clear();

  /// Chrome trace-event JSON ({"traceEvents": [...]}), loadable in
  /// chrome://tracing and https://ui.perfetto.dev. Timestamps are
  /// microseconds rebased to the earliest event.
  void ExportChromeTrace(std::ostream& os) const;
  Status WriteChromeTrace(const std::string& path) const;

  /// Flat text summary: per-(category, name) count and total time, plus
  /// dropped-event accounting.
  std::string Summary() const;
  std::vector<SpanAggregate> Aggregate() const;

  /// Ring capacity (events per thread) used for buffers created after the
  /// call; existing buffers keep their size. Default 16384, or
  /// SYSDS_TRACE_BUFFER if set.
  void SetBufferCapacity(size_t capacity);

  // Internal: the calling thread's buffer, created on first use.
  ThreadTraceBuffer* ThreadBuffer();

  void RecordComplete(const char* category, const char* name,
                      uint64_t ts_ns, uint64_t dur_ns, uint32_t depth);
  void RecordInstant(const char* category, const char* name);

 private:
  Tracer();

  static std::atomic<bool> g_enabled;

  mutable std::mutex registry_mutex_;
  std::vector<std::unique_ptr<ThreadTraceBuffer>> buffers_;
  std::atomic<size_t> capacity_;
  std::atomic<uint32_t> next_tid_{0};
};

namespace internal {
// Span nesting depth of the current thread (diagnostics + summary).
extern thread_local uint32_t t_span_depth;
}  // namespace internal

/// RAII span: records a complete ("ph":"X") event covering its lifetime.
/// Constructing one while tracing is disabled records nothing; a span also
/// stays inert if tracing flips on mid-lifetime (no half-open events).
class ScopedSpan {
 public:
  ScopedSpan(const char* category, const char* name) {
    if (!Tracer::Enabled()) return;
    Begin(category, name);
  }
  ScopedSpan(const char* category, const std::string& name) {
    if (!Tracer::Enabled()) return;
    Begin(category, name.c_str());
  }
  ~ScopedSpan() {
    if (!active_) return;
    --internal::t_span_depth;
    Tracer::Get().RecordComplete(category_, name_, start_ns_,
                                 NowNanos() - start_ns_, depth_);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  void Begin(const char* category, const char* name) {
    active_ = true;
    category_ = category;
    std::strncpy(name_, name, TraceEvent::kNameCapacity);
    name_[TraceEvent::kNameCapacity] = '\0';
    depth_ = internal::t_span_depth++;
    start_ns_ = NowNanos();
  }

  bool active_ = false;
  const char* category_ = nullptr;
  char name_[TraceEvent::kNameCapacity + 1];
  uint64_t start_ns_ = 0;
  uint32_t depth_ = 0;
};

}  // namespace obs
}  // namespace sysds

/// Span convenience macro: SYSDS_SPAN("cp", opcode). Category must be a
/// string literal; name may be a const char* or std::string.
#define SYSDS_OBS_CONCAT2(a, b) a##b
#define SYSDS_OBS_CONCAT(a, b) SYSDS_OBS_CONCAT2(a, b)
#define SYSDS_SPAN(category, name) \
  ::sysds::obs::ScopedSpan SYSDS_OBS_CONCAT(_sysds_span_, __LINE__)( \
      category, name)

#endif  // SYSDS_OBS_TRACE_H_
