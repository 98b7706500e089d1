#include "lineage/lineage.h"

#include <gtest/gtest.h>

#include "api/systemds_context.h"
#include "compiler/compiler.h"
#include "runtime/controlprog/program.h"

namespace sysds {
namespace {

TEST(LineageItemTest, HashIsStructural) {
  auto x = LineageItem::Leaf("in", "X");
  auto y = LineageItem::Leaf("in", "Y");
  auto a = LineageItem::Node("tsmm", {x});
  auto b = LineageItem::Node("tsmm", {LineageItem::Leaf("in", "X")});
  EXPECT_EQ(a->hash(), b->hash());
  EXPECT_TRUE(a->Equals(*b));
  auto c = LineageItem::Node("tsmm", {y});
  EXPECT_NE(a->hash(), c->hash());
  auto d = LineageItem::Node("tmm", {x});
  EXPECT_NE(a->hash(), d->hash());
}

TEST(LineageItemTest, SerializeAndCount) {
  auto x = LineageItem::Leaf("in", "X");
  auto t = LineageItem::Node("t", {x});
  auto mm = LineageItem::Node("ba+*", {t, x});
  EXPECT_EQ(mm->NodeCount(), 3);
  std::string s = mm->Serialize();
  EXPECT_NE(s.find("ba+*"), std::string::npos);
  EXPECT_NE(s.find("in X"), std::string::npos);
}

TEST(LineageMapTest, LeafCreationAndRebinding) {
  LineageMap map;
  auto x1 = map.GetOrCreate("X");
  auto x2 = map.GetOrCreate("X");
  EXPECT_EQ(x1.get(), x2.get());
  map.Set("X", LineageItem::Node("op", {x1}));
  EXPECT_NE(map.GetOrNull("X").get(), x1.get());
  map.Remove("X");
  EXPECT_EQ(map.GetOrNull("X"), nullptr);
}

TEST(LineageCacheTest, PutProbeRoundtrip) {
  LineageCache cache(1 << 20, ReusePolicy::kFull);
  auto item = LineageItem::Node("tsmm", {LineageItem::Leaf("in", "X")});
  EXPECT_EQ(cache.Probe(item), nullptr);
  DataPtr value =
      std::make_shared<MatrixObject>(MatrixBlock::Dense(4, 4, 1.0));
  cache.Put(item, value);
  DataPtr hit = cache.Probe(item);
  EXPECT_EQ(hit.get(), value.get());
  EXPECT_EQ(cache.Stats().full_hits, 1);
  EXPECT_EQ(cache.Stats().probes, 2);
}

TEST(LineageCacheTest, ScalarsNotCached) {
  LineageCache cache(1 << 20, ReusePolicy::kFull);
  auto item = LineageItem::Leaf("lit", "5");
  cache.Put(item, ScalarObject::MakeDouble(5.0));
  EXPECT_EQ(cache.Probe(item), nullptr);
}

TEST(LineageCacheTest, EvictsLruWhenOverLimit) {
  // Each 100x100 dense block is ~80KB; limit to ~2 blocks.
  LineageCache cache(200 * 1024, ReusePolicy::kFull);
  std::vector<LineageItemPtr> items;
  for (int i = 0; i < 4; ++i) {
    auto item = LineageItem::Leaf("in", "X" + std::to_string(i));
    auto node = LineageItem::Node("tsmm", {item});
    items.push_back(node);
    cache.Put(node, std::make_shared<MatrixObject>(
                        MatrixBlock::Dense(100, 100, 1.0)));
  }
  EXPECT_GT(cache.Stats().evictions, 0);
  // The oldest entry must be gone.
  EXPECT_EQ(cache.Probe(items[0]), nullptr);
  // The newest survives.
  EXPECT_NE(cache.Probe(items[3]), nullptr);
}

// End-to-end reuse: identical results with and without reuse, with cache
// hits recorded (the §4.3 workload in miniature).
TEST(LineageReuseTest, SweepResultsIdenticalWithReuse) {
  const char* script =
      "X = rand(rows=300, cols=20, seed=5)\n"
      "y = rand(rows=300, cols=1, seed=6)\n"
      "B = matrix(0, 20, 4)\n"
      "for (i in 1:4) {\n"
      "  reg = 0.001 * i\n"
      "  B[, i] = lmDS(X, y, 0, reg)\n"
      "}\n";
  DMLConfig off;
  SystemDSContext ctx_off(off);
  auto r1 = ctx_off.Execute(script, Inputs(), Outputs("B"));
  ASSERT_TRUE(r1.ok()) << r1.status();

  DMLConfig on;
  on.reuse_policy = ReusePolicy::kFull;
  SystemDSContext ctx_on(on);
  auto r2 = ctx_on.Execute(script, Inputs(), Outputs("B"));
  ASSERT_TRUE(r2.ok()) << r2.status();

  EXPECT_TRUE(r1->GetMatrix("B")->EqualsApprox(*r2->GetMatrix("B"), 1e-12));
  // tsmm(X) and tmm(X,y) reused for iterations 2..4.
  EXPECT_GE(ctx_on.Cache()->Stats().full_hits, 6);
}

TEST(LineageReuseTest, PartialReuseCompensationCorrect) {
  // steplm-style pattern: tsmm over a column-augmented matrix must be
  // served by the compensation plan and match the direct computation.
  const char* script =
      "X = rand(rows=200, cols=6, seed=7)\n"
      "Xg = X[, 1:3]\n"
      "A1 = t(Xg) %*% Xg\n"
      "Xi = cbind(Xg, X[, 5])\n"
      "A2 = t(Xi) %*% Xi\n";
  DMLConfig off;
  SystemDSContext ctx_off(off);
  auto r1 = ctx_off.Execute(script, Inputs(), Outputs("A2"));
  ASSERT_TRUE(r1.ok()) << r1.status();

  DMLConfig on;
  on.reuse_policy = ReusePolicy::kPartial;
  SystemDSContext ctx_on(on);
  auto r2 = ctx_on.Execute(script, Inputs(), Outputs("A2"));
  ASSERT_TRUE(r2.ok()) << r2.status();
  EXPECT_TRUE(r1->GetMatrix("A2")->EqualsApprox(*r2->GetMatrix("A2"), 1e-9));
  EXPECT_GE(ctx_on.Cache()->Stats().partial_hits, 1);
}

// Runs `script` with reuse off and with partial reuse; `out` must agree
// within 1e-9 and the partial run must have served a compensation plan.
void ExpectPartialReuseMatches(const char* script, const char* out) {
  DMLConfig off;
  SystemDSContext ctx_off(off);
  auto r1 = ctx_off.Execute(script, Inputs(), Outputs(out));
  ASSERT_TRUE(r1.ok()) << r1.status();

  DMLConfig on;
  on.reuse_policy = ReusePolicy::kPartial;
  SystemDSContext ctx_on(on);
  auto r2 = ctx_on.Execute(script, Inputs(), Outputs(out));
  ASSERT_TRUE(r2.ok()) << r2.status();
  EXPECT_TRUE(r1->GetMatrix(out)->EqualsApprox(*r2->GetMatrix(out), 1e-9));
  EXPECT_GE(ctx_on.Cache()->Stats().partial_hits, 1);
}

TEST(LineageReuseTest, PartialReuseTwoAppendedColumns) {
  ExpectPartialReuseMatches(
      "X = rand(rows=200, cols=6, seed=7)\n"
      "Xg = X[, 1:3]\n"
      "A1 = t(Xg) %*% Xg\n"
      "Xi = cbind(Xg, X[, 4:5])\n"
      "A2 = t(Xi) %*% Xi\n",
      "A2");
}

TEST(LineageReuseTest, PartialReuseSparseX) {
  ExpectPartialReuseMatches(
      "X = rand(rows=300, cols=8, sparsity=0.1, seed=3)\n"
      "Xg = X[, 1:5]\n"
      "A1 = t(Xg) %*% Xg\n"
      "Xi = cbind(Xg, X[, 7])\n"
      "A2 = t(Xi) %*% Xi\n",
      "A2");
}

TEST(LineageReuseTest, PartialReuseTmm) {
  ExpectPartialReuseMatches(
      "X = rand(rows=200, cols=6, seed=7)\n"
      "y = rand(rows=200, cols=1, seed=8)\n"
      "Xg = X[, 1:3]\n"
      "b1 = t(Xg) %*% y\n"
      "Xi = cbind(Xg, X[, 5])\n"
      "b2 = t(Xi) %*% y\n",
      "b2");
}

TEST(LineageReuseTest, AppendOutputsTracedButNotCached) {
  const char* script =
      "X = rand(rows=100, cols=4, seed=1)\n"
      "Y = cbind(X, X)\n"
      "Z = t(Y) %*% Y\n"
      "s = sum(Z)\n";
  DMLConfig config;
  config.lineage_tracing = true;
  config.reuse_policy = ReusePolicy::kPartial;
  auto prog = CompileDML(script, config, {});
  ASSERT_TRUE(prog.ok()) << prog.status();
  LineageCache cache(64 << 20, ReusePolicy::kPartial);
  ExecutionContext ec(prog->get(), &config);
  ec.SetCache(&cache);
  ASSERT_TRUE((*prog)->Execute(&ec).ok());
  LineageItemPtr y = ec.Lineage()->GetOrNull("Y");
  LineageItemPtr z = ec.Lineage()->GetOrNull("Z");
  ASSERT_NE(y, nullptr);
  ASSERT_NE(z, nullptr);
  EXPECT_EQ(y->opcode(), "cbind");
  EXPECT_EQ(cache.Probe(y), nullptr);
  // The tsmm over the append is cached under a lineage that still holds
  // the traced cbind.
  EXPECT_NE(cache.Probe(z), nullptr);
  EXPECT_EQ(z->inputs()[0]->hash(), y->hash());
}

TEST(LineageReuseTest, SteplmSelectionSameWithPartialReuse) {
  const char* script =
      "X = rand(rows=500, cols=12, seed=2)\n"
      "y = 3*X[,2] - 2*X[,5] + 0.5*X[,9] + 0.1*X[,11]\n"
      "[B, S] = steplm(X, y, 0, 0.0001)\n";
  DMLConfig off;
  SystemDSContext ctx_off(off);
  auto r1 = ctx_off.Execute(script, Inputs(), Outputs("B", "S"));
  ASSERT_TRUE(r1.ok()) << r1.status();

  DMLConfig on;
  on.reuse_policy = ReusePolicy::kPartial;
  SystemDSContext ctx_on(on);
  auto r2 = ctx_on.Execute(script, Inputs(), Outputs("B", "S"));
  ASSERT_TRUE(r2.ok()) << r2.status();
  EXPECT_TRUE(r1->GetMatrix("S")->EqualsApprox(*r2->GetMatrix("S"), 0));
  EXPECT_TRUE(r1->GetMatrix("B")->EqualsApprox(*r2->GetMatrix("B"), 1e-9));
  EXPECT_GE(ctx_on.Cache()->Stats().partial_hits, 1);
}

TEST(LineageReuseTest, DifferentSeedsNotConflated) {
  // Two rand calls with different seeds must not be served from each
  // other's cache entries.
  const char* script =
      "A = rand(rows=50, cols=5, seed=1)\n"
      "B = rand(rows=50, cols=5, seed=2)\n"
      "sa = sum(t(A) %*% A)\n"
      "sb = sum(t(B) %*% B)\n";
  DMLConfig on;
  on.reuse_policy = ReusePolicy::kFull;
  SystemDSContext ctx(on);
  auto r = ctx.Execute(script, Inputs(), Outputs("sa", "sb"));
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_NE(*r->GetDouble("sa"), *r->GetDouble("sb"));
}

TEST(LineageReuseTest, NonDeterministicRandNeverReused) {
  const char* script =
      "A = rand(rows=50, cols=5)\n"
      "B = rand(rows=50, cols=5)\n"
      "d = sum((A - B)^2)\n";
  DMLConfig on;
  on.reuse_policy = ReusePolicy::kFull;
  SystemDSContext ctx(on);
  auto r = ctx.Execute(script, Inputs(), Outputs("d"));
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_GT(*r->GetDouble("d"), 0.0);
}

TEST(LineageTracingTest, TraceAvailableWithoutReuse) {
  DMLConfig config;
  config.lineage_tracing = true;
  SystemDSContext ctx(config);
  auto r = ctx.Execute("X = rand(rows=5, cols=5, seed=1)\nY = t(X) %*% X\n",
                       Inputs(), Outputs("Y"));
  ASSERT_TRUE(r.ok());
  // No reuse configured: zero cache activity.
  EXPECT_EQ(ctx.Cache()->Stats().full_hits, 0);
}

}  // namespace
}  // namespace sysds
