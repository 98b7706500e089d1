#include "layer_probe.h"

#include <cstdlib>
#include <sstream>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "trace_breakdown.h"

namespace e2ebench {

namespace {

const std::vector<std::string>& CounterNames() {
  static const std::vector<std::string> kNames = {
      "scheduler.tasks",         "scheduler.steals",
      "bufferpool.evictions",    "bufferpool.spilled_bytes",
      "bufferpool.prefetch_issued", "bufferpool.prefetch_hits",
  };
  return kNames;
}

const std::vector<std::string>& HistogramNames() {
  static const std::vector<std::string> kNames = {
      "scheduler.imbalance.tsmm", "scheduler.imbalance.parfor",
      "bufferpool.restore_ns",    "bufferpool.evict_stall_ns",
  };
  return kNames;
}

double Lookup(const std::map<std::string, double>& m, const std::string& k) {
  auto it = m.find(k);
  return it == m.end() ? 0.0 : it->second;
}

// Mean of the histogram's observations between two snapshots.
double DeltaMean(const RegistrySnapshot& a, const RegistrySnapshot& b,
                 const std::string& name) {
  double n = b.HistCount(name) - a.HistCount(name);
  return n > 0 ? (b.HistSum(name) - a.HistSum(name)) / n : 0.0;
}

// The tracer's summary reports ring-buffer overwrites on a "dropped" line.
double DroppedEvents() {
  std::string summary = sysds::obs::Tracer::Get().Summary();
  size_t pos = summary.find("(dropped ");
  if (pos == std::string::npos) return 0.0;
  return std::strtod(summary.c_str() + pos + 9, nullptr);
}

// Layer metrics derived from a span breakdown.
std::map<std::string, double> MetricsFromBreakdown(const Breakdown& b) {
  std::map<std::string, double> m;
  auto ms = [](int64_t ns) { return static_cast<double>(ns) / 1e6; };
  for (const char* cat :
       {"compiler", "cp", "parfor", "bufferpool", "transform", "serve"}) {
    m[std::string("self_ms.") + cat] = ms(b.SelfNs(cat));
  }
  // The benchmark's own spans wrap each call into the system; their self
  // time is what no layer's span accounts for.
  m["self_ms.unattributed"] = ms(b.SelfNs("bench"));
  SpanTotals recompile = b.ByPrefix("compiler", "recompile");
  m["compiler.recompile_ms"] = ms(recompile.total_ns);
  m["compiler.recompiles"] = static_cast<double>(recompile.count);
  auto cp = b.categories.find("cp");
  m["cp.instructions"] =
      cp == b.categories.end() ? 0.0 : static_cast<double>(cp->second.count);
  m["cp.tsmm_ms"] = ms(b.ByPrefix("cp", "tsmm").self_ns);
  SpanTotals sp = b.ByPrefix("cp", "sp_");
  m["dist.instructions"] = static_cast<double>(sp.count);
  m["dist.ms"] = ms(sp.self_ns + b.SelfNs("dist"));
  return m;
}

// Layer metrics from registry deltas between two snapshots.
std::map<std::string, double> MetricsFromRegistry(const RegistrySnapshot& a,
                                                  const RegistrySnapshot& b) {
  auto delta = [&](const std::string& n) {
    return b.Counter(n) - a.Counter(n);
  };
  std::map<std::string, double> m;
  m["scheduler.tasks"] = delta("scheduler.tasks");
  m["scheduler.steals"] = delta("scheduler.steals");
  m["scheduler.imbalance.tsmm"] = DeltaMean(a, b, "scheduler.imbalance.tsmm");
  m["scheduler.imbalance.parfor"] =
      DeltaMean(a, b, "scheduler.imbalance.parfor");
  m["bufferpool.evictions"] = delta("bufferpool.evictions");
  m["bufferpool.spilled_mb"] = delta("bufferpool.spilled_bytes") / 1e6;
  m["bufferpool.restore_ms"] = (b.HistSum("bufferpool.restore_ns") -
                                a.HistSum("bufferpool.restore_ns")) / 1e6;
  m["bufferpool.evict_stall_ms"] = (b.HistSum("bufferpool.evict_stall_ns") -
                                    a.HistSum("bufferpool.evict_stall_ns")) /
                                   1e6;
  double issued = delta("bufferpool.prefetch_issued");
  m["bufferpool.prefetch_hit_ratio"] =
      issued > 0 ? delta("bufferpool.prefetch_hits") / issued : 0.0;
  return m;
}

}  // namespace

RegistrySnapshot RegistrySnapshot::Take() {
  auto& reg = sysds::obs::MetricsRegistry::Get();
  RegistrySnapshot s;
  for (const std::string& n : CounterNames()) {
    s.counters_[n] = static_cast<double>(reg.CounterValue(n));
  }
  for (const std::string& n : HistogramNames()) {
    sysds::obs::Histogram* h = reg.GetHistogram(n);
    s.hist_sum_[n] = static_cast<double>(h->Sum());
    s.hist_count_[n] = static_cast<double>(h->Count());
  }
  return s;
}

double RegistrySnapshot::Counter(const std::string& name) const {
  return Lookup(counters_, name);
}
double RegistrySnapshot::HistSum(const std::string& name) const {
  return Lookup(hist_sum_, name);
}
double RegistrySnapshot::HistCount(const std::string& name) const {
  return Lookup(hist_count_, name);
}

TraceWindow::TraceWindow() {
  sysds::obs::Tracer::Get().Clear();
  before_ = RegistrySnapshot::Take();
  sysds::obs::Tracer::Get().Enable();
}

std::map<std::string, double> TraceWindow::Stop() {
  sysds::obs::Tracer& tracer = sysds::obs::Tracer::Get();
  tracer.Disable();
  RegistrySnapshot after = RegistrySnapshot::Take();
  std::ostringstream os;
  tracer.ExportChromeTrace(os);
  std::map<std::string, double> out =
      MetricsFromBreakdown(ComputeBreakdown(ParseChromeTrace(os.str())));
  for (const auto& [k, v] : MetricsFromRegistry(before_, after)) out[k] = v;
  out["trace.dropped_events"] = DroppedEvents();
  tracer.Clear();
  return out;
}

std::map<std::string, double> MetricsFromLineage(
    const sysds::LineageCacheStats& s) {
  std::map<std::string, double> m;
  m["lineage.probes"] = static_cast<double>(s.probes);
  m["lineage.hit_ratio"] =
      s.probes > 0
          ? static_cast<double>(s.full_hits + s.partial_hits) / s.probes
          : 0.0;
  m["lineage.partial_hits"] = static_cast<double>(s.partial_hits);
  m["lineage.puts"] = static_cast<double>(s.puts);
  m["lineage.cache_mb"] = static_cast<double>(s.bytes) / 1e6;
  return m;
}

}  // namespace e2ebench
