// scoring: the paper's low-latency deployment path (§2.2): one prepared
// multinomial scoring model served by serve::ScoringService, driven open
// loop. Requests are sent on a fixed schedule whether or not earlier ones
// finished, each is timed from when it was due, and each carries a fresh
// feature row, so neither lineage reuse nor micro-batching can help.
//
// Threads: 2 service workers, this thread as the generator, and one
// completion thread that polls outstanding futures.
#include <sys/prctl.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <future>
#include <limits>
#include <mutex>
#include <thread>

#include "checks.h"
#include "layer_probe.h"
#include "obs/trace.h"
#include "serve/scoring_service.h"
#include "workloads.h"

namespace e2ebench {

namespace {

constexpr int64_t kFeatures = 256;
constexpr int64_t kClasses = 16;
constexpr int kWorkers = 2;
// Deep enough to absorb the bursts that follow a host stall of tens of
// milliseconds at the busy rate without rejecting.
constexpr size_t kQueueDepth = 1024;
constexpr double kLightRps = 5000;
constexpr double kBusyRps = 15000;
constexpr double kWarmupSeconds = 0.5;
// End-to-end latency quantiles are medians over slices of this length,
// from kParts windows on separately started services.
constexpr double kSliceSeconds = 1.0;
constexpr int kParts = 10;
// The traced busy window: short enough that no tracing thread's ring
// buffer wraps.
constexpr double kTracedSeconds = 1.5;
constexpr int kDirectExecutions = 2000;
constexpr int kPrepareRepeats = 3;
// score_max_rps: the highest rate whose window keeps p90 within the limit,
// rejects nothing and shows no growing backlog.
constexpr double kLatencyLimitMs = 1.0;
constexpr double kSearchMaxRps = 60000;
constexpr int kSearchSteps = 6;
constexpr double kSearchWindowSeconds = 0.5;

const char* kScript = R"dml(
s = X %*% W
e = exp(s - max(s))
p = e / sum(e)
yhat = rowIndexMax(p)
)dml";

// Row `index` of the request stream; regenerated for the output check.
sysds::MatrixBlock MakeRow(uint64_t seed, uint64_t index) {
  sysds::MatrixBlock row = sysds::MatrixBlock::Dense(1, kFeatures);
  Rng rng(StreamSeed(seed, 1000 + index));
  for (int64_t j = 0; j < kFeatures; ++j) {
    row.DenseData()[j] = 2.0 * rng.Uniform() - 1.0;
  }
  row.MarkNnzDirty();
  return row;
}

// Declared in destruction-safe order: the service goes first, the context
// that owns the buffer pool last.
struct Model {
  std::unique_ptr<sysds::SystemDSContext> ctx;
  sysds::MatrixBlock weights;
  sysds::DataPtr weights_data;
  std::shared_ptr<const sysds::PreparedScript> script;
  std::unique_ptr<sysds::serve::ScoringService> service;
};

std::map<std::string, sysds::SymbolInfo> InputInfos() {
  return {{"X",
           {sysds::DataType::kMatrix, sysds::ValueType::kFP64, 1, kFeatures,
            kFeatures}},
          {"W",
           {sysds::DataType::kMatrix, sysds::ValueType::kFP64, kFeatures,
            kClasses, kFeatures * kClasses}}};
}

// (Re)starts the service, with fresh worker threads, over the prepared
// model.
bool StartService(Model& m, Report& report) {
  m.service.reset();
  sysds::serve::ServiceOptions opts;
  opts.num_workers = kWorkers;
  opts.max_queue_depth = kQueueDepth;
  m.service = std::make_unique<sysds::serve::ScoringService>(opts);
  sysds::Status reg = m.service->RegisterModel("m", m.script, {"yhat"});
  if (!reg.ok()) report.Fail("register: " + reg.ToString());
  return reg.ok();
}

std::unique_ptr<Model> SetupModel(const RunArgs& args, Report& report) {
  auto m = std::make_unique<Model>();
  Rng rng(StreamSeed(args.seed, 4));
  m->weights = sysds::MatrixBlock::Dense(kFeatures, kClasses);
  for (int64_t i = 0; i < kFeatures * kClasses; ++i) {
    m->weights.DenseData()[i] = rng.Normal() / 16.0;
  }
  m->weights.MarkNnzDirty();
  // Kernels single-threaded: the service workers are the parallelism.
  m->ctx = sysds::SystemDSContext::Builder().NumThreads(1).Build();
  m->weights_data =
      sysds::Inputs().Matrix("W", m->weights).Bindings().at("W");
  report.Attempt();
  auto prepared = m->ctx->Prepare(kScript, InputInfos());
  if (!prepared.ok()) {
    report.Fail("prepare: " + prepared.status().ToString());
    return nullptr;
  }
  m->script = std::shared_ptr<const sysds::PreparedScript>(
      std::move(prepared).value());
  if (!StartService(*m, report)) return nullptr;
  return m;
}

struct Window {
  double rps = 0;
  // Per request, in send order; +inf for rejected or failed requests.
  std::vector<double> latency_ms;
  std::vector<double> lag_ms;
  std::vector<int64_t> yhat;  // 0 when no result
  int64_t rejected = 0;
  int64_t failed = 0;
  uint64_t first_index = 0;

  double Latency(double p) const { return Quantile(latency_ms, p); }

  /// The p-quantile of each consecutive slice of `slice_seconds` of
  /// requests (a trailing partial slice is dropped; a window shorter than
  /// one slice is one slice).
  std::vector<double> SliceQuantiles(double p, double slice_seconds) const {
    const size_t per_slice =
        std::max<size_t>(1, static_cast<size_t>(rps * slice_seconds));
    std::vector<double> per;
    for (size_t b = 0; b + per_slice <= latency_ms.size(); b += per_slice) {
      per.push_back(Quantile(std::vector<double>(latency_ms.begin() + b,
                                                 latency_ms.begin() + b +
                                                     per_slice),
                             p));
    }
    if (per.empty()) per.push_back(Latency(p));
    return per;
  }
};

struct Pending {
  std::future<sysds::StatusOr<sysds::ScriptResult>> future;
  double due = 0;
  size_t slot = 0;
};

// Completion side: takes outstanding futures in send order and polls the
// oldest (yielding between polls) until it is ready, then records its
// latency. Polling keeps this thread's own wake-up, which on a VM varies
// with the host's load, out of the measured latency. Requests finish in
// send order unless one overtakes another on the second worker; an
// overtaking request is recorded when its predecessor finishes, at most
// one service time late. With nothing outstanding the thread sleeps.
class Completer {
 public:
  explicit Completer(Window& w) : w_(w), thread_([this] { Loop(); }) {}
  ~Completer() { Finish(); }
  Completer(const Completer&) = delete;
  Completer& operator=(const Completer&) = delete;

  void Add(Pending p) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      inbox_.push_back(std::move(p));
    }
    cv_.notify_one();
  }
  void Finish() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_one();
    if (thread_.joinable()) thread_.join();
  }

 private:
  void Loop() {
    std::deque<Pending> open;
    while (true) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        if (open.empty()) {
          cv_.wait(lock, [this] { return !inbox_.empty() || done_; });
        }
        for (Pending& p : inbox_) open.push_back(std::move(p));
        inbox_.clear();
        if (open.empty()) return;  // finished and drained
      }
      while (open.front().future.wait_for(std::chrono::seconds(0)) !=
             std::future_status::ready) {
        std::this_thread::yield();
      }
      Record(open.front(), NowSeconds());
      open.pop_front();
    }
  }

  void Record(Pending& p, double now) {
    sysds::StatusOr<sysds::ScriptResult> r = p.future.get();
    if (!r.ok()) {
      w_.latency_ms[p.slot] = std::numeric_limits<double>::infinity();
      if (r.status().code() == sysds::StatusCode::kOom) {
        ++w_.rejected;
      } else {
        ++w_.failed;
      }
      return;
    }
    w_.latency_ms[p.slot] = (now - p.due) * 1e3;
    auto m = r->GetMatrix("yhat");
    if (m.ok() && m->Rows() == 1 && m->Cols() == 1) {
      w_.yhat[p.slot] = static_cast<int64_t>(m->Get(0, 0));
    }
  }

  Window& w_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Pending> inbox_;  // guarded by mu_
  bool done_ = false;           // guarded by mu_
  std::thread thread_;          // last: starts after the members it uses
};

// Sends round(rps * seconds) requests on a fixed schedule starting at
// request index `first_index` of the seed's stream. The generator sleeps
// until each due time (with fine timer slack) rather than spinning, so it
// leaves the cores to the service.
Window RunWindow(Model& m, uint64_t seed, uint64_t first_index, double rps,
                 double seconds) {
  using Clock = std::chrono::steady_clock;
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  Window w;
  w.rps = rps;
  w.first_index = first_index;
  const size_t n = static_cast<size_t>(std::max(1.0, rps * seconds));
  w.latency_ms.assign(n, 0.0);
  w.lag_ms.assign(n, 0.0);
  w.yhat.assign(n, 0);
  {
    Completer completer(w);
    const Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);
    for (size_t i = 0; i < n; ++i) {
      sysds::Inputs inputs =
          sysds::Inputs()
              .Matrix("X", MakeRow(seed, first_index + i))
              .Bind("W", m.weights_data);
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(i / rps));
      std::this_thread::sleep_until(due);
      const Clock::time_point sent = Clock::now();
      w.lag_ms[i] =
          std::chrono::duration<double, std::milli>(sent - due).count();
      std::future<sysds::StatusOr<sysds::ScriptResult>> fut;
      {
        SYSDS_SPAN("bench", "submit");
        fut = m.service->Submit("m", std::move(inputs));
      }
      completer.Add({std::move(fut),
                     std::chrono::duration<double>(due.time_since_epoch())
                         .count(),
                     i});
    }
    completer.Finish();
  }
  return w;
}

// True if `yhat` is the class the benchmark's own loops pick for row
// `index` of the stream.
bool YhatCorrect(const Model& m, uint64_t seed, uint64_t index,
                 int64_t yhat) {
  sysds::MatrixBlock row = MakeRow(seed, index);
  double scores[kClasses] = {};
  for (int64_t f = 0; f < kFeatures; ++f) {
    const double x = row.DenseData()[f];
    const double* wr = m.weights.DenseData() + f * kClasses;
    for (int64_t c = 0; c < kClasses; ++c) scores[c] += x * wr[c];
  }
  return ArgMaxAgrees(scores, kClasses, yhat);
}

// Checks every returned yhat after the window.
void CheckWindow(const Model& m, uint64_t seed, const Window& w,
                 Report* report, int64_t* wrong) {
  for (size_t i = 0; i < w.yhat.size(); ++i) {
    if (w.yhat[i] == 0) {
      if (std::isfinite(w.latency_ms[i]) && report != nullptr) {
        report->Fail("scoring: request without yhat");
      }
      continue;
    }
    if (!YhatCorrect(m, seed, w.first_index + i, w.yhat[i])) {
      if (report != nullptr) {
        report->Fail("scoring: yhat " + std::to_string(w.yhat[i]) +
                     " is not the argmax for request " + std::to_string(i));
      }
      if (wrong != nullptr) ++*wrong;
    }
  }
}

// Counts a measured window's requests in the report.
void Account(const Model& m, uint64_t seed, const Window& w, Report& report) {
  report.Attempt(static_cast<int64_t>(w.latency_ms.size()));
  for (int64_t i = 0; i < w.rejected; ++i) report.Fail("scoring: rejected");
  for (int64_t i = 0; i < w.failed; ++i) report.Fail("scoring: failed");
  CheckWindow(m, seed, w, &report, nullptr);
}

// A window sustains its rate when p90 stays within the limit, nothing is
// rejected or wrong, and the last fifth of requests waits no longer than
// the first fifth by more than the limit (no growing backlog).
bool Sustains(const Model& m, uint64_t seed, const Window& w) {
  if (w.rejected > 0 || w.failed > 0) return false;
  int64_t wrong = 0;
  CheckWindow(m, seed, w, nullptr, &wrong);
  if (wrong > 0 || w.Latency(0.9) > kLatencyLimitMs) return false;
  size_t fifth = w.latency_ms.size() / 5;
  std::vector<double> head(w.latency_ms.begin(), w.latency_ms.begin() + fifth);
  std::vector<double> tail(w.latency_ms.end() - fifth, w.latency_ms.end());
  return Median(tail) <= Median(head) + kLatencyLimitMs;
}

void PrintWindow(const char* label, const Window& w) {
  std::printf(
      "# %s %.0f req/s: %zu requests, p50 %.4f ms, p90 %.4f ms, p99 %.4f ms, "
      "max lag %.3f ms, rejected %lld\n",
      label, w.rps, w.latency_ms.size(), w.Latency(0.5), w.Latency(0.9),
      w.Latency(0.99), Quantile(w.lag_ms, 1.0),
      static_cast<long long>(w.rejected));
}

}  // namespace

void RunScoring(const RunArgs& args, Report& report) {
  std::unique_ptr<Model> model;
  report.Set("setup_s", MedianSetupSeconds([&] { model.reset(); },
                                           [&] {
                                             model = SetupModel(args, report);
                                             return model != nullptr;
                                           }));
  if (model == nullptr) return;
  Model& m = *model;
  uint64_t next = 0;
  auto window = [&](double rps, double seconds) {
    Window w = RunWindow(m, args.seed, next, rps, seconds);
    next += w.latency_ms.size();
    return w;
  };

  if (!args.trace) {
    // The window is split into parts, each on a freshly started service,
    // and the quantiles are taken per 1 s slice and medianed over all
    // slices. A host stall of tens of milliseconds delays every request due
    // during it and the burst after it, and the latency a set of worker
    // threads sees varies with where the host runs them; neither a few
    // stalls nor one placement then sets the run's figure.
    std::vector<double> p50s, p90s;
    for (int part = 0; part < kParts; ++part) {
      if (part > 0 && !StartService(m, report)) return;
      Account(m, args.seed, window(kBusyRps, kWarmupSeconds), report);
      Window busy = window(kBusyRps, args.seconds / kParts);
      Account(m, args.seed, busy, report);
      PrintWindow("busy", busy);
      for (double v : busy.SliceQuantiles(0.5, kSliceSeconds)) {
        p50s.push_back(v);
      }
      for (double v : busy.SliceQuantiles(0.9, kSliceSeconds)) {
        p90s.push_back(v);
      }
    }
    report.Set("p50_ms", Median(p50s));
    report.Set("p90_ms", Median(p90s));
    report.Set("peak_rss_mb", PeakRssMb());
    return;
  }
  Account(m, args.seed, window(kBusyRps, kWarmupSeconds), report);

  // Traced run. Compile time and the bare interpreter cost first.
  std::vector<double> prepare_ms;
  for (int i = 0; i < kPrepareRepeats; ++i) {
    double t0 = NowSeconds();
    auto p = m.ctx->Prepare(kScript, InputInfos());
    prepare_ms.push_back((NowSeconds() - t0) * 1e3);
    if (!p.ok()) report.Fail("prepare: " + p.status().ToString());
  }
  report.Set("compiler.prepare_ms", Median(prepare_ms));
  std::vector<double> exec_us;
  for (int i = 0; i < kDirectExecutions; ++i) {
    sysds::Inputs inputs = sysds::Inputs()
                               .Matrix("X", MakeRow(args.seed, next + i))
                               .Bind("W", m.weights_data);
    report.Attempt();
    double t0 = NowSeconds();
    auto r = m.script->Execute(inputs, sysds::Outputs("yhat"));
    exec_us.push_back((NowSeconds() - t0) * 1e6);
    if (!r.ok()) {
      report.Fail("execute: " + r.status().ToString());
      continue;
    }
    auto yhat = r->GetMatrix("yhat");
    if (!yhat.ok() ||
        !YhatCorrect(m, args.seed, next + i,
                     static_cast<int64_t>(yhat->Get(0, 0)))) {
      report.Fail("scoring: direct execution returned a wrong yhat");
    }
  }
  next += kDirectExecutions;
  report.Set("cp.exec_us", Median(exec_us));

  const double part = std::max(1.0, args.seconds / 4);
  Window light = window(kLightRps, part);
  Account(m, args.seed, light, report);
  PrintWindow("light", light);
  Window busy = window(kBusyRps, part);
  Account(m, args.seed, busy, report);
  PrintWindow("busy", busy);
  TraceWindow trace;
  Window traced = window(kBusyRps, kTracedSeconds);
  std::map<std::string, double> layers = trace.Stop();
  Account(m, args.seed, traced, report);
  PrintWindow("busy traced", traced);
  for (const auto& [k, v] : layers) report.Set(k, v);

  // Rejections of the measured windows; the search below overloads on
  // purpose.
  report.Set("serve.rejected",
             static_cast<double>(m.service->Stats().rejected));

  // Bounded search for the highest sustainable rate above the busy rate,
  // whose measured window is the search's known-good lower end. If even
  // that window fails, no rate in the search range is sustainable: 0.
  if (Sustains(m, args.seed, busy)) {
    double lo = kBusyRps, hi = kSearchMaxRps;
    for (int step = 0; step < kSearchSteps; ++step) {
      double mid = 0.5 * (lo + hi);
      Window probe = window(mid, kSearchWindowSeconds);
      (Sustains(m, args.seed, probe) ? lo : hi) = mid;
    }
    report.Set("score_max_rps", lo);
  } else {
    std::printf("# score_max_rps: the busy rate (%.0f req/s) is not "
                "sustained; reporting 0\n",
                kBusyRps);
    report.Set("score_max_rps", 0);
  }

  report.Set("serve.queue_us",
             busy.Latency(0.5) * 1e3 - report.Get("cp.exec_us"));
  report.Set("gen.lag_ms", Quantile(busy.lag_ms, 1.0));
  report.Set("score_p50_ms.light", light.Latency(0.5));
  report.Set("score_p90_ms.light", light.Latency(0.9));
  report.Set("score_p99_ms.light", light.Latency(0.99));
  report.Set("score_p99_ms.busy", busy.Latency(0.99));
  double plain = busy.Latency(0.5);
  report.Set("trace.overhead_frac",
             plain > 0 ? (traced.Latency(0.5) - plain) / plain : 0.0);
}

}  // namespace e2ebench
