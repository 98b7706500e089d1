// Robustness: the frontend must never crash on malformed input — every
// random token soup either parses (rarely) or returns a ParseError with
// location info. Deterministic seeds keep the suite reproducible.

#include <gtest/gtest.h>

#include "api/systemds_context.h"
#include "common/util.h"
#include "lang/parser.h"

namespace sysds {
namespace {

const char* kFragments[] = {
    "x",      "y",       "f",     "matrix", "rand",  "(",    ")",
    "[",      "]",       "{",     "}",      ",",     ";",    "\n",
    "=",      "+",       "-",     "*",      "/",     "^",    "%*%",
    "%%",     "if",      "else",  "while",  "for",   "in",   "function",
    "return", "parfor",  "1",     "2.5",    "1e3",   "'s'",  "\"q\"",
    "TRUE",   "FALSE",   ":",     "<",      ">",     "==",   "!=",
    "&",      "|",       "!",     "t",      "sum",   ".",    "X",
};

std::string RandomScript(uint64_t seed, int len) {
  Xoshiro rng(seed);
  std::string script;
  for (int i = 0; i < len; ++i) {
    script += kFragments[rng.NextUint64() % std::size(kFragments)];
    script += " ";
  }
  return script;
}

TEST(ParserFuzzTest, RandomTokenSoupNeverCrashes) {
  int parsed = 0;
  for (uint64_t seed = 0; seed < 300; ++seed) {
    std::string script = RandomScript(seed, 1 + static_cast<int>(seed % 40));
    auto result = ParseDML(script);
    if (result.ok()) ++parsed;
    // Either way: no crash, and errors carry a code.
    if (!result.ok()) {
      EXPECT_EQ(result.status().code(), StatusCode::kParseError)
          << script << " -> " << result.status();
    }
  }
  // Some tiny fragments do parse (e.g. "x" alone is an expression stmt).
  EXPECT_GT(parsed, 0);
}

TEST(ParserFuzzTest, RandomScriptsThroughFullCompiler) {
  // Whatever parses must also compile-or-error cleanly (never crash).
  for (uint64_t seed = 1000; seed < 1200; ++seed) {
    std::string script = RandomScript(seed, 1 + static_cast<int>(seed % 25));
    auto parsed = ParseDML(script);
    if (!parsed.ok()) continue;
    SystemDSContext ctx;
    auto result = ctx.Execute(script, Inputs(), Outputs::None());
    (void)result;  // ok or clean error; crash = test failure
  }
  SUCCEED();
}

TEST(ParserFuzzTest, PathologicalNesting) {
  // Deep parenthesization and nested blocks.
  std::string deep = "x = ";
  for (int i = 0; i < 200; ++i) deep += "(";
  deep += "1";
  for (int i = 0; i < 200; ++i) deep += ")";
  deep += "\n";
  auto r = ParseDML(deep);
  EXPECT_TRUE(r.ok()) << r.status();

  std::string blocks;
  for (int i = 0; i < 60; ++i) blocks += "if (TRUE) {\n";
  blocks += "x = 1\n";
  for (int i = 0; i < 60; ++i) blocks += "}\n";
  auto r2 = ParseDML(blocks);
  EXPECT_TRUE(r2.ok()) << r2.status();
}

TEST(ParserFuzzTest, TruncatedInputs) {
  const char* scripts[] = {
      "x = ",
      "f = function(",
      "if (x",
      "for (i in",
      "X[1:",
      "x = matrix(",
      "while (",
      "[a, b",
      "x = 1 +",
      "f = function(Matrix[",
  };
  for (const char* s : scripts) {
    auto r = ParseDML(s);
    EXPECT_FALSE(r.ok()) << s;
    EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  }
}

}  // namespace
}  // namespace sysds
