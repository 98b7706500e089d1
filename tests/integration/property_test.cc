// Property-style sweeps over the end-to-end engine: algebraic identities
// that must hold for random inputs across shapes, sparsities, and
// configurations.

#include <gtest/gtest.h>

#include "api/systemds_context.h"

namespace sysds {
namespace {

struct ShapeCase {
  int64_t rows;
  int64_t cols;
  double sparsity;
};

class AlgebraPropertyTest : public ::testing::TestWithParam<ShapeCase> {};

// (A + B)^T == A^T + B^T and t(A %*% B) == t(B) %*% t(A).
TEST_P(AlgebraPropertyTest, TransposeIdentities) {
  const ShapeCase& c = GetParam();
  SystemDSContext ctx;
  std::string script =
      "A = rand(rows=" + std::to_string(c.rows) +
      ", cols=" + std::to_string(c.cols) +
      ", sparsity=" + std::to_string(c.sparsity) + ", seed=1)\n"
      "B = rand(rows=" + std::to_string(c.rows) +
      ", cols=" + std::to_string(c.cols) +
      ", sparsity=" + std::to_string(c.sparsity) + ", seed=2)\n"
      "d1 = sum((t(A + B) - (t(A) + t(B)))^2)\n"
      "C = rand(rows=" + std::to_string(c.cols) +
      ", cols=" + std::to_string(c.rows) + ", seed=3)\n"
      "d2 = sum((t(A %*% C) - t(C) %*% t(A))^2)\n";
  auto r = ctx.Execute(script, Inputs(), Outputs("d1", "d2"));
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_NEAR(*r->GetDouble("d1"), 0.0, 1e-18);
  EXPECT_NEAR(*r->GetDouble("d2"), 0.0, 1e-12);
}

// sum(A) == sum(rowSums(A)) == sum(colSums(A)); trace(t(A) %*% A) ==
// sum(A^2).
TEST_P(AlgebraPropertyTest, AggregationIdentities) {
  const ShapeCase& c = GetParam();
  SystemDSContext ctx;
  std::string script =
      "A = rand(rows=" + std::to_string(c.rows) +
      ", cols=" + std::to_string(c.cols) +
      ", sparsity=" + std::to_string(c.sparsity) + ", seed=4, min=-1)\n"
      "d1 = abs(sum(A) - sum(rowSums(A)))\n"
      "d2 = abs(sum(A) - sum(colSums(A)))\n"
      "d3 = abs(trace(t(A) %*% A) - sum(A^2))\n";
  auto r = ctx.Execute(script, Inputs(), Outputs("d1", "d2", "d3"));
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_NEAR(*r->GetDouble("d1"), 0.0, 1e-9);
  EXPECT_NEAR(*r->GetDouble("d2"), 0.0, 1e-9);
  EXPECT_NEAR(*r->GetDouble("d3"), 0.0, 1e-8);
}

// lmDS and lmCG solve the same regularized normal equations.
TEST_P(AlgebraPropertyTest, LmDsCgEquivalence) {
  const ShapeCase& c = GetParam();
  if (c.cols < 2) return;
  SystemDSContext ctx;
  std::string script =
      "X = rand(rows=" + std::to_string(c.rows) +
      ", cols=" + std::to_string(c.cols) +
      ", sparsity=" + std::to_string(c.sparsity) + ", seed=5)\n"
      "y = rand(rows=" + std::to_string(c.rows) + ", cols=1, seed=6)\n"
      "B1 = lmDS(X, y, 0, 0.01)\n"
      "B2 = lmCG(X, y, 0, 0.01, 1e-14, 500)\n"
      "d = sum((B1 - B2)^2) / max(sum(B1^2), 1e-300)\n";
  auto r = ctx.Execute(script, Inputs(), Outputs("d"));
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_NEAR(*r->GetDouble("d"), 0.0, 1e-8);
}

// Indexing partition property: slicing a matrix into row halves and
// rbinding them reconstructs it.
TEST_P(AlgebraPropertyTest, SliceAndRebindRoundtrip) {
  const ShapeCase& c = GetParam();
  if (c.rows < 2) return;
  SystemDSContext ctx;
  std::string script =
      "A = rand(rows=" + std::to_string(c.rows) +
      ", cols=" + std::to_string(c.cols) +
      ", sparsity=" + std::to_string(c.sparsity) + ", seed=7)\n"
      "h = nrow(A) %/% 2\n"
      "B = rbind(A[1:h, ], A[(h+1):nrow(A), ])\n"
      "C = cbind(A[, 1], A[, 2:ncol(A)])\n"
      "d = sum((A - B)^2) + sum((A - C)^2)\n";
  auto r = ctx.Execute(script, Inputs(), Outputs("d"));
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_DOUBLE_EQ(*r->GetDouble("d"), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, AlgebraPropertyTest,
    ::testing::Values(ShapeCase{4, 3, 1.0}, ShapeCase{64, 64, 1.0},
                      ShapeCase{100, 17, 0.1}, ShapeCase{200, 5, 0.05},
                      ShapeCase{33, 40, 0.5}));

// Reuse never changes results: the same sweep under all three policies.
class ReusePolicyPropertyTest
    : public ::testing::TestWithParam<ReusePolicy> {};

TEST_P(ReusePolicyPropertyTest, SteplmInvariantUnderPolicy) {
  const char* script =
      "X = rand(rows=120, cols=7, seed=11)\n"
      "y = 2*X[,3] - X[,6]\n"
      "[B, S] = steplm(X, y, 0, 1e-9)\n"
      "sig = sum(S * t(seq(1, 7, 1)))\n";
  auto run = [&](ReusePolicy policy) {
    DMLConfig config;
    config.reuse_policy = policy;
    SystemDSContext ctx(config);
    auto r = ctx.Execute(script, Inputs(), Outputs("sig"));
    EXPECT_TRUE(r.ok()) << r.status();
    return r.ok() ? *r->GetDouble("sig") : -1.0;
  };
  double baseline = run(ReusePolicy::kNone);
  EXPECT_DOUBLE_EQ(run(GetParam()), baseline);
}

INSTANTIATE_TEST_SUITE_P(Policies, ReusePolicyPropertyTest,
                         ::testing::Values(ReusePolicy::kNone,
                                           ReusePolicy::kFull,
                                           ReusePolicy::kPartial));

}  // namespace
}  // namespace sysds
