// Parfor workers share the program's function and loop-body blocks, and
// each recompiles those blocks for the sizes it sees. The blocks keep one
// size-keyed plan each, swapped under a per-block mutex, so these tests
// also run under ThreadSanitizer (`ctest -L concurrency`).
#include <gtest/gtest.h>

#include "api/systemds_context.h"

namespace sysds {
namespace {

const char* kSumOfSquares =
    "f = function(Matrix[Double] X, Matrix[Double] v) return (Double s) {\n"
    "  s = sum((X - v)^2)\n"
    "}\n";

TEST(ParForRecompileTest, WorkersRecompileFunctionForTheirSizes) {
  // f is first compiled for n x 1 operands; the workers call it on n x 4.
  // Running the n x 1 plan there failed with "fused: input shape mismatch".
  auto ctx = SystemDSContext::Builder().NumThreads(4).Build();
  auto r = ctx->Execute(
      std::string(kSumOfSquares) +
          "X = rand(rows=1000, cols=1, seed=1)\n"
          "v = rand(rows=1000, cols=1, seed=2)\n"
          "s0 = f(X, v)\n"
          "Z = rand(rows=1000, cols=4, seed=3)\n"
          "r = matrix(0, 1, 4)\n"
          "parfor (i in 1:4) { r[1, i] = f(Z, v) + i }\n"
          "total = sum(r)\n"
          "expected = 4 * sum((Z - v)^2) + 10\n",
      Inputs(), Outputs("total", "expected"));
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_DOUBLE_EQ(*r->GetDouble("total"), *r->GetDouble("expected"));
}

TEST(ParForRecompileTest, ConcurrentRecompilationForChangingSizes) {
  // Eight iterations on four workers, each calling f on a slice whose width
  // depends on the iteration: the workers keep swapping f's plan while
  // others run it. Results must match the sequential loop.
  const std::string body =
      std::string(kSumOfSquares) +
      "Z = rand(rows=300, cols=4, seed=4)\n"
      "v = rand(rows=300, cols=1, seed=5)\n"
      "r = matrix(0, 1, 8)\n"
      "LOOP (i in 1:8) {\n"
      "  w = 1 + i %% 4\n"
      "  Zi = Z[, 1:w]\n"
      "  r[1, i] = f(Zi, v)\n"
      "}\n";
  auto run = [&](const std::string& loop) {
    std::string script = body;
    script.replace(script.find("LOOP"), 4, loop);
    auto ctx = SystemDSContext::Builder().NumThreads(4).Build();
    return ctx->Execute(script, Inputs(), Outputs("r"));
  };
  auto seq = run("for");
  ASSERT_TRUE(seq.ok()) << seq.status();
  for (int rep = 0; rep < 5; ++rep) {
    auto par = run("parfor");
    ASSERT_TRUE(par.ok()) << par.status();
    auto expected = seq->GetMatrix("r");
    auto actual = par->GetMatrix("r");
    ASSERT_TRUE(expected.ok() && actual.ok());
    ASSERT_EQ(actual->Cols(), 8);
    for (int64_t c = 0; c < 8; ++c) {
      EXPECT_DOUBLE_EQ(actual->Get(0, c), expected->Get(0, c)) << c;
    }
  }
}

}  // namespace
}  // namespace sysds
