// Per-layer self time from the tracer's span nesting.
//
// The tracer (src/obs/) records complete spans per thread with their
// nesting depth; its Chrome export carries thread id, start and duration.
// Replaying each thread's spans in start order rebuilds the depth: a span's
// parent is the innermost open span that still covers it. A span's self
// time is its duration minus the time its direct children cover, so the
// self times of all spans on a thread add up to the thread's traced time
// with no double counting. Summing self time by category gives the time
// each layer spent in its own code.
#ifndef E2EBENCH_TRACE_BREAKDOWN_H_
#define E2EBENCH_TRACE_BREAKDOWN_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace e2ebench {

/// One complete span of a Chrome trace. Times are nanoseconds (the export
/// has 0.1 us resolution).
struct SpanRecord {
  std::string category;
  std::string name;
  int64_t tid = 0;
  int64_t ts_ns = 0;
  int64_t dur_ns = 0;
};

/// Parses the {"traceEvents":[...]} document written by
/// obs::Tracer::ExportChromeTrace. Only complete spans are kept; instant
/// and metadata events are skipped.
std::vector<SpanRecord> ParseChromeTrace(const std::string& json);

struct SpanTotals {
  int64_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
};

struct Breakdown {
  /// Keyed by (category, name).
  std::map<std::pair<std::string, std::string>, SpanTotals> spans;
  /// Self time and span count per category.
  std::map<std::string, SpanTotals> categories;
  /// Deepest nesting seen (0 = only top-level spans).
  int max_depth = 0;

  int64_t SelfNs(const std::string& category) const;
  /// Sums over spans of `category` whose name starts with `prefix`.
  SpanTotals ByPrefix(const std::string& category,
                      const std::string& prefix) const;
};

/// Rebuilds nesting per thread and accumulates self time. `slack_ns`
/// absorbs the export's rounding: a child may end up to this much after
/// its parent and still count as nested.
Breakdown ComputeBreakdown(std::vector<SpanRecord> spans,
                           int64_t slack_ns = 200);

}  // namespace e2ebench

#endif  // E2EBENCH_TRACE_BREAKDOWN_H_
