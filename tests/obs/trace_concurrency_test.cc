// Tracer thread naming against concurrent export (ctest -L concurrency, so
// the tsan preset runs it): pool workers rename themselves while the main
// thread exports the trace in a loop.
#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <string>

#include "common/thread_pool.h"
#include "obs/trace.h"

namespace sysds {
namespace obs {
namespace {

TEST(TraceConcurrencyTest, ThreadNamingConcurrentWithExport) {
  constexpr int kWorkers = 4;
  constexpr int kRenames = 200;
  std::atomic<int> running{kWorkers};
  {
    ThreadPool pool(kWorkers);
    for (int w = 0; w < kWorkers; ++w) {
      pool.Submit([w, &running] {
        for (int i = 0; i < kRenames; ++i) {
          Tracer::SetCurrentThreadName("renamer-" + std::to_string(w) + "-" +
                                       std::to_string(i));
        }
        running.fetch_sub(1);
      });
    }
    int exports = 0;
    while (running.load() > 0 || exports == 0) {
      std::ostringstream os;
      Tracer::Get().ExportChromeTrace(os);
      EXPECT_EQ(os.str().rfind("{\"traceEvents\":[", 0), 0u);
      ++exports;
    }
  }
  // Every thread that ran a renamer ends on its final name.
  std::ostringstream os;
  Tracer::Get().ExportChromeTrace(os);
  EXPECT_NE(os.str().find("-" + std::to_string(kRenames - 1) + "\""),
            std::string::npos);
}

}  // namespace
}  // namespace obs
}  // namespace sysds
