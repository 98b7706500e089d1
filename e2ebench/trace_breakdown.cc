#include "trace_breakdown.h"

#include <algorithm>
#include <cstdlib>

namespace e2ebench {

namespace {

// A forward-only scanner over the tracer's own export format: a flat array
// of objects whose values are strings, numbers, or (for metadata) one
// nested object.
class Scanner {
 public:
  explicit Scanner(const std::string& s) : s_(s) {}

  void SkipSpace() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
            s_[pos_] == '\r' || s_[pos_] == ',')) {
      ++pos_;
    }
  }
  char Peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void Advance() { ++pos_; }
  bool Find(char c) {
    size_t p = s_.find(c, pos_);
    if (p == std::string::npos) return false;
    pos_ = p;
    return true;
  }

  std::string String() {
    std::string out;
    if (Peek() != '"') return out;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\' && pos_ < s_.size()) {
        char e = s_[pos_++];
        switch (e) {
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'u': {
            unsigned code = static_cast<unsigned>(
                std::strtoul(s_.substr(pos_, 4).c_str(), nullptr, 16));
            out += static_cast<char>(code & 0x7F);
            pos_ += 4;
            break;
          }
          default: out += e;
        }
      } else {
        out += c;
      }
    }
    ++pos_;  // closing quote
    return out;
  }

  double Number() {
    const char* begin = s_.c_str() + pos_;
    char* end = nullptr;
    double v = std::strtod(begin, &end);
    pos_ += static_cast<size_t>(end - begin);
    return v;
  }

  void SkipValue() {
    char c = Peek();
    if (c == '"') {
      String();
    } else if (c == '{') {
      int depth = 0;
      while (pos_ < s_.size()) {
        char d = s_[pos_];
        if (d == '"') {
          String();
          continue;
        }
        ++pos_;
        if (d == '{') ++depth;
        if (d == '}' && --depth == 0) return;
      }
    } else {
      Number();
    }
  }

 private:
  const std::string& s_;
  size_t pos_ = 0;
};

int64_t MicrosToNanos(double us) {
  return static_cast<int64_t>(us * 1000.0 + 0.5);
}

}  // namespace

std::vector<SpanRecord> ParseChromeTrace(const std::string& json) {
  std::vector<SpanRecord> out;
  Scanner sc(json);
  if (!sc.Find('[')) return out;
  sc.Advance();
  while (true) {
    sc.SkipSpace();
    if (sc.Peek() != '{') break;
    sc.Advance();
    SpanRecord rec;
    std::string phase;
    while (true) {
      sc.SkipSpace();
      if (sc.Peek() == '}') {
        sc.Advance();
        break;
      }
      std::string key = sc.String();
      sc.SkipSpace();
      if (sc.Peek() == ':') sc.Advance();
      sc.SkipSpace();
      if (key == "name") {
        rec.name = sc.String();
      } else if (key == "cat") {
        rec.category = sc.String();
      } else if (key == "ph") {
        phase = sc.String();
      } else if (key == "tid") {
        rec.tid = static_cast<int64_t>(sc.Number());
      } else if (key == "ts") {
        rec.ts_ns = MicrosToNanos(sc.Number());
      } else if (key == "dur") {
        rec.dur_ns = MicrosToNanos(sc.Number());
      } else {
        sc.SkipValue();
      }
    }
    if (phase == "X") out.push_back(std::move(rec));
  }
  return out;
}

int64_t Breakdown::SelfNs(const std::string& category) const {
  auto it = categories.find(category);
  return it == categories.end() ? 0 : it->second.self_ns;
}

SpanTotals Breakdown::ByPrefix(const std::string& category,
                               const std::string& prefix) const {
  SpanTotals sum;
  for (const auto& [key, t] : spans) {
    if (key.first != category || key.second.rfind(prefix, 0) != 0) continue;
    sum.count += t.count;
    sum.total_ns += t.total_ns;
    sum.self_ns += t.self_ns;
  }
  return sum;
}

Breakdown ComputeBreakdown(std::vector<SpanRecord> spans, int64_t slack_ns) {
  Breakdown b;
  // Per thread, parents start no later than their children and, on equal
  // starts, last longer.
  std::sort(spans.begin(), spans.end(),
            [](const SpanRecord& a, const SpanRecord& c) {
              if (a.tid != c.tid) return a.tid < c.tid;
              if (a.ts_ns != c.ts_ns) return a.ts_ns < c.ts_ns;
              return a.dur_ns > c.dur_ns;
            });
  struct Open {
    const SpanRecord* span;
    int64_t child_ns;
  };
  std::vector<Open> stack;
  auto close = [&](const Open& o) {
    int64_t self = std::max<int64_t>(0, o.span->dur_ns - o.child_ns);
    SpanTotals& t = b.spans[{o.span->category, o.span->name}];
    t.count += 1;
    t.total_ns += o.span->dur_ns;
    t.self_ns += self;
    SpanTotals& c = b.categories[o.span->category];
    c.count += 1;
    c.total_ns += o.span->dur_ns;
    c.self_ns += self;
  };
  int64_t tid = -1;
  for (const SpanRecord& span : spans) {
    const SpanRecord* s = &span;
    if (s->tid != tid) {
      while (!stack.empty()) {
        close(stack.back());
        stack.pop_back();
      }
      tid = s->tid;
    }
    int64_t end = s->ts_ns + s->dur_ns;
    // Close every open span that does not cover this one.
    while (!stack.empty()) {
      int64_t top_end = stack.back().span->ts_ns + stack.back().span->dur_ns;
      if (top_end + slack_ns >= end && top_end > s->ts_ns) break;
      close(stack.back());
      stack.pop_back();
    }
    if (!stack.empty()) stack.back().child_ns += s->dur_ns;
    b.max_depth = std::max(b.max_depth, static_cast<int>(stack.size()));
    stack.push_back({s, 0});
  }
  while (!stack.empty()) {
    close(stack.back());
    stack.pop_back();
  }
  return b;
}

}  // namespace e2ebench
