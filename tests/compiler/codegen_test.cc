#include "compiler/codegen.h"

#include <gtest/gtest.h>

#include "compiler/compiler.h"
#include "compiler/rewrites.h"
#include "runtime/controlprog/program.h"

namespace sysds {
namespace {

HopPtr Tread(const std::string& name, int64_t d1, int64_t d2) {
  return MakeTransientRead(name, DataType::kMatrix, ValueType::kFP64, d1, d2,
                           -1);
}

std::vector<InstructionPtr> Gen(std::vector<HopPtr> roots,
                                const DMLConfig& config) {
  SelectExecTypes(roots, config);
  auto lops = BuildLops(roots, config);
  EXPECT_TRUE(lops.ok()) << lops.status();
  auto instrs = LopsToInstructions(*lops, config);
  EXPECT_TRUE(instrs.ok()) << instrs.status();
  return instrs.ok() ? std::move(*instrs) : std::vector<InstructionPtr>{};
}

TEST(CodegenTest, LiteralAndTreadProduceNoInstructions) {
  DMLConfig config;
  auto lit = MakeLiteralHop(LitValue::Double(5));
  auto x = Tread("X", 10, 10);
  auto mul = std::make_shared<Hop>(HopOp::kBinary, "*", DataType::kMatrix,
                                   ValueType::kFP64);
  mul->AddInput(x);
  mul->AddInput(lit);
  mul->RefreshSizeInformation();
  std::vector<HopPtr> roots = {MakeTransientWrite("Y", mul)};
  auto instrs = Gen(std::move(roots), config);
  // binary, cpvar(Y), rmvar(temp) — literals/treads are pure operands.
  ASSERT_EQ(instrs.size(), 3u);
  EXPECT_EQ(instrs[0]->opcode(), "*");
  EXPECT_EQ(instrs[1]->opcode(), "cpvar");
  EXPECT_EQ(instrs[2]->opcode(), "rmvar");
}

TEST(CodegenTest, TransientWriteOfSameNameElided) {
  DMLConfig config;
  auto x = Tread("X", 5, 5);
  std::vector<HopPtr> roots = {MakeTransientWrite("X", x)};
  auto instrs = Gen(std::move(roots), config);
  EXPECT_TRUE(instrs.empty());  // X = X is a no-op
}

TEST(CodegenTest, ExecTypeSelectionByMemoryBudget) {
  auto x = Tread("X", 2000, 2000);
  x->set_nnz(2000 * 2000);
  auto tsmm = std::make_shared<Hop>(HopOp::kTsmm, "left", DataType::kMatrix,
                                    ValueType::kFP64);
  tsmm->AddInput(x);
  tsmm->RefreshSizeInformation();
  std::vector<HopPtr> roots = {MakeTransientWrite("A", tsmm)};

  DMLConfig big;
  big.cp_memory_budget = 1LL << 40;
  SelectExecTypes(roots, big);
  EXPECT_EQ(tsmm->exec_type(), ExecType::kCP);

  DMLConfig tiny;
  tiny.cp_memory_budget = 1024;
  SelectExecTypes(roots, tiny);
  EXPECT_EQ(tsmm->exec_type(), ExecType::kSpark);
}

TEST(CodegenTest, ForceSparkOverridesBudget) {
  auto x = Tread("X", 10, 10);
  auto y = Tread("Y", 10, 10);
  auto mm = std::make_shared<Hop>(HopOp::kMatMult, "ba+*", DataType::kMatrix,
                                  ValueType::kFP64);
  mm->AddInput(x);
  mm->AddInput(y);
  mm->RefreshSizeInformation();
  std::vector<HopPtr> roots = {MakeTransientWrite("Z", mm)};
  DMLConfig config;
  config.force_spark = true;
  auto instrs = Gen(std::move(roots), config);
  ASSERT_FALSE(instrs.empty());
  EXPECT_EQ(instrs[0]->opcode(), "sp_ba+*");
  EXPECT_EQ(instrs[0]->exec_type(), ExecType::kSpark);
}

TEST(CodegenTest, OpsWithoutSparkSupportStayCp) {
  auto x = Tread("X", 50000, 50000);  // enormous
  auto sol = std::make_shared<Hop>(HopOp::kSolve, "solve", DataType::kMatrix,
                                   ValueType::kFP64);
  sol->AddInput(x);
  sol->AddInput(Tread("b", 50000, 1));
  sol->RefreshSizeInformation();
  std::vector<HopPtr> roots = {MakeTransientWrite("B", sol)};
  DMLConfig tiny;
  tiny.cp_memory_budget = 1024;
  SelectExecTypes(roots, tiny);
  EXPECT_EQ(sol->exec_type(), ExecType::kCP);  // no distributed solve
}

TEST(CodegenTest, InstructionTextFormat) {
  DMLConfig config;
  auto x = Tread("X", 3, 3);
  auto t = std::make_shared<Hop>(HopOp::kReorg, "t", DataType::kMatrix,
                                 ValueType::kFP64);
  t->AddInput(x);
  t->RefreshSizeInformation();
  std::vector<HopPtr> roots = {MakeTransientWrite("Y", t)};
  auto instrs = Gen(std::move(roots), config);
  ASSERT_GE(instrs.size(), 2u);
  std::string text = instrs[0]->ToString();
  EXPECT_NE(text.find("CP"), std::string::npos);
  EXPECT_NE(text.find("X"), std::string::npos);
  EXPECT_NE(text.find("MATRIX"), std::string::npos);
}

TEST(CompileApiTest, CompileTimeShapeErrorDetected) {
  DMLConfig config;
  SymbolInfoMap inputs;
  inputs["A"] = SymbolInfo{DataType::kMatrix, ValueType::kFP64, 3, 4, -1};
  inputs["B"] = SymbolInfo{DataType::kMatrix, ValueType::kFP64, 3, 4, -1};
  auto prog = CompileDML("C = A %*% B\n", config, inputs);
  EXPECT_FALSE(prog.ok());
  EXPECT_EQ(prog.status().code(), StatusCode::kValidateError);
}

TEST(CompileApiTest, BranchRemovalForConstantPredicates) {
  // if (FALSE) branches are removed at compile time (paper Example 1:
  // "removing unnecessary branches"): the plan contains no IF block.
  DMLConfig config;
  auto prog = CompileDML(
      "x = 1\n"
      "if (2 > 3) {\n"
      "  x = 99\n"
      "}\n"
      "y = x + 1\n",
      config, {});
  ASSERT_TRUE(prog.ok()) << prog.status();
  std::string plan = (*prog)->Explain();
  EXPECT_EQ(plan.find("IF block"), std::string::npos);
}

TEST(CompileApiTest, NonConstantPredicatesKeepBranches) {
  DMLConfig config;
  SymbolInfoMap inputs;
  inputs["c"] = SymbolInfo{DataType::kScalar, ValueType::kFP64, 0, 0, -1};
  auto prog = CompileDML("x = 1\nif (c > 0) {\n  x = 2\n}\n", config, inputs);
  ASSERT_TRUE(prog.ok()) << prog.status();
  EXPECT_NE((*prog)->Explain().find("IF block"), std::string::npos);
}

}  // namespace
}  // namespace sysds
