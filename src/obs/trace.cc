#include "obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>

namespace sysds {
namespace obs {

std::atomic<bool> Tracer::g_enabled{false};

namespace internal {
thread_local uint32_t t_span_depth = 0;
}  // namespace internal

namespace {

thread_local ThreadTraceBuffer* t_buffer = nullptr;

size_t DefaultCapacity() {
  if (const char* env = std::getenv("SYSDS_TRACE_BUFFER")) {
    long v = std::atol(env);
    if (v > 0) return static_cast<size_t>(v);
  }
  return 16384;
}

void JsonEscape(const char* s, std::ostream& os) {
  for (; *s != '\0'; ++s) {
    char c = *s;
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
}

}  // namespace

ThreadTraceBuffer::ThreadTraceBuffer(uint32_t tid, size_t capacity)
    : tid_(tid), events_(std::max<size_t>(capacity, 16)) {}

std::vector<TraceEvent> ThreadTraceBuffer::Drain() const {
  uint64_t h = head_.load(std::memory_order_acquire);
  uint64_t cap = events_.size();
  uint64_t n = std::min(h, cap);
  std::vector<TraceEvent> out;
  out.reserve(n);
  // Oldest retained event first.
  for (uint64_t i = h - n; i < h; ++i) {
    out.push_back(events_[i % cap]);
  }
  return out;
}

uint64_t ThreadTraceBuffer::DroppedCount() const {
  uint64_t h = head_.load(std::memory_order_acquire);
  uint64_t cap = events_.size();
  return h > cap ? h - cap : 0;
}

Tracer::Tracer() : capacity_(DefaultCapacity()) {}

Tracer& Tracer::Get() {
  static Tracer* instance = new Tracer();
  return *instance;
}

ThreadTraceBuffer* Tracer::ThreadBuffer() {
  if (t_buffer != nullptr) return t_buffer;
  std::lock_guard<std::mutex> lock(registry_mutex_);
  uint32_t tid = next_tid_.fetch_add(1);
  buffers_.push_back(std::make_unique<ThreadTraceBuffer>(
      tid, capacity_.load(std::memory_order_relaxed)));
  t_buffer = buffers_.back().get();
  return t_buffer;
}

void Tracer::RecordComplete(const char* category, const char* name,
                            uint64_t ts_ns, uint64_t dur_ns, uint32_t depth) {
  TraceEvent ev;
  std::strncpy(ev.name, name, TraceEvent::kNameCapacity);
  ev.name[TraceEvent::kNameCapacity] = '\0';
  ev.category = category;
  ev.ts_ns = ts_ns;
  ev.dur_ns = dur_ns;
  ev.depth = depth;
  ev.instant = false;
  ThreadBuffer()->Append(ev);
}

void Tracer::RecordInstant(const char* category, const char* name) {
  TraceEvent ev;
  std::strncpy(ev.name, name, TraceEvent::kNameCapacity);
  ev.name[TraceEvent::kNameCapacity] = '\0';
  ev.category = category;
  ev.ts_ns = NowNanos();
  ev.dur_ns = 0;
  ev.depth = internal::t_span_depth;
  ev.instant = true;
  ThreadBuffer()->Append(ev);
}

void Tracer::SetCurrentThreadName(const std::string& name) {
  Tracer& tracer = Get();
  ThreadTraceBuffer* buffer = tracer.ThreadBuffer();
  // The exporters read names under the registry lock.
  std::lock_guard<std::mutex> lock(tracer.registry_mutex_);
  buffer->set_thread_name(name);
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(registry_mutex_);
  for (auto& b : buffers_) b->Clear();
}

void Tracer::SetBufferCapacity(size_t capacity) {
  capacity_.store(std::max<size_t>(capacity, 16),
                  std::memory_order_relaxed);
}

void Tracer::ExportChromeTrace(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(registry_mutex_);
  // Rebase timestamps so the viewer's x-axis starts near zero.
  uint64_t base = UINT64_MAX;
  std::vector<std::vector<TraceEvent>> drained;
  drained.reserve(buffers_.size());
  for (const auto& b : buffers_) {
    drained.push_back(b->Drain());
    for (const TraceEvent& ev : drained.back()) base = std::min(base, ev.ts_ns);
  }
  if (base == UINT64_MAX) base = 0;

  os << "{\"traceEvents\":[";
  bool first = true;
  auto comma = [&] {
    if (!first) os << ",";
    first = false;
  };
  for (size_t i = 0; i < buffers_.size(); ++i) {
    const ThreadTraceBuffer& b = *buffers_[i];
    if (!b.thread_name().empty()) {
      comma();
      os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":"
         << b.tid() << ",\"args\":{\"name\":\"";
      JsonEscape(b.thread_name().c_str(), os);
      os << "\"}}";
    }
    for (const TraceEvent& ev : drained[i]) {
      comma();
      os << "{\"name\":\"";
      JsonEscape(ev.name, os);
      os << "\",\"cat\":\"";
      JsonEscape(ev.category, os);
      os << "\",\"pid\":1,\"tid\":" << b.tid() << ",\"ts\":"
         << (ev.ts_ns - base) / 1000 << "."
         << (ev.ts_ns - base) % 1000 / 100;
      if (ev.instant) {
        os << ",\"ph\":\"i\",\"s\":\"t\"";
      } else {
        os << ",\"ph\":\"X\",\"dur\":" << ev.dur_ns / 1000 << "."
           << ev.dur_ns % 1000 / 100;
      }
      os << "}";
    }
  }
  os << "]}";
}

Status Tracer::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return IoError("cannot open trace output file: " + path);
  ExportChromeTrace(out);
  out << "\n";
  if (!out) return IoError("failed writing trace output file: " + path);
  return Status::Ok();
}

std::vector<SpanAggregate> Tracer::Aggregate() const {
  std::lock_guard<std::mutex> lock(registry_mutex_);
  std::map<std::pair<std::string, std::string>, SpanAggregate> agg;
  for (const auto& b : buffers_) {
    for (const TraceEvent& ev : b->Drain()) {
      if (ev.instant) continue;
      SpanAggregate& a = agg[{ev.category, ev.name}];
      a.category = ev.category;
      a.name = ev.name;
      a.count += 1;
      a.total_ns += ev.dur_ns;
    }
  }
  std::vector<SpanAggregate> out;
  out.reserve(agg.size());
  for (auto& [key, a] : agg) out.push_back(std::move(a));
  std::sort(out.begin(), out.end(),
            [](const SpanAggregate& a, const SpanAggregate& b) {
              return a.total_ns > b.total_ns;
            });
  return out;
}

std::string Tracer::Summary() const {
  std::vector<SpanAggregate> agg = Aggregate();
  uint64_t dropped = 0;
  {
    std::lock_guard<std::mutex> lock(registry_mutex_);
    for (const auto& b : buffers_) dropped += b->DroppedCount();
  }
  std::ostringstream os;
  os << "Trace summary (category.name, count, total[ms]):\n";
  for (const SpanAggregate& a : agg) {
    os << "  " << a.category << "." << a.name << "\t" << a.count << "\t"
       << static_cast<double>(a.total_ns) / 1e6 << "\n";
  }
  if (dropped > 0) {
    os << "  (dropped " << dropped << " events: ring buffers wrapped)\n";
  }
  return os.str();
}

}  // namespace obs
}  // namespace sysds
