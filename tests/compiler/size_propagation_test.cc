// Hop-level size propagation: known integer values (KnownIntValue) size
// datagen, reshape and right-indexing outputs, and ifelse takes its shape
// from a matrix operand.
#include <gtest/gtest.h>

#include "compiler/hop.h"

namespace sysds {
namespace {

HopPtr Matrix(int64_t rows, int64_t cols) {
  return MakeTransientRead("X", DataType::kMatrix, ValueType::kFP64, rows,
                           cols, -1);
}

HopPtr Int(int64_t v) { return MakeLiteralHop(LitValue::Int(v)); }

HopPtr Meta(const std::string& opcode, HopPtr in) {
  auto h = std::make_shared<Hop>(HopOp::kUnary, opcode, DataType::kScalar,
                                 ValueType::kInt64);
  h->AddInput(std::move(in));
  h->RefreshSizeInformation();
  return h;
}

HopPtr Arith(const std::string& op, HopPtr a, HopPtr b) {
  auto h = std::make_shared<Hop>(HopOp::kBinary, op, DataType::kScalar,
                                 ValueType::kInt64);
  h->AddInput(std::move(a));
  h->AddInput(std::move(b));
  h->RefreshSizeInformation();
  return h;
}

HopPtr Fill(HopPtr rows, HopPtr cols) {
  auto h = std::make_shared<Hop>(HopOp::kDataGen, "fill", DataType::kMatrix,
                                 ValueType::kFP64);
  h->AddInput(MakeLiteralHop(LitValue::Double(0.5)));
  h->AddInput(std::move(rows));
  h->AddInput(std::move(cols));
  h->RefreshSizeInformation();
  return h;
}

TEST(SizePropagationTest, KnownIntValueOfLiteralsAndMetadata) {
  HopPtr x = Matrix(10, 4);
  EXPECT_EQ(KnownIntValue(*Int(7)), 7);
  EXPECT_EQ(KnownIntValue(*MakeLiteralHop(LitValue::Double(3.0))), 3);
  EXPECT_EQ(KnownIntValue(*MakeLiteralHop(LitValue::Double(2.5))), -1);
  EXPECT_EQ(KnownIntValue(*MakeLiteralHop(LitValue::String("3"))), -1);
  EXPECT_EQ(KnownIntValue(*Meta("nrow", x)), 10);
  EXPECT_EQ(KnownIntValue(*Meta("ncol", x)), 4);
  EXPECT_EQ(KnownIntValue(*Meta("length", x)), 40);
  EXPECT_EQ(KnownIntValue(*Meta("nrow", Matrix(-1, 4))), -1);
  EXPECT_EQ(KnownIntValue(*Meta("length", Matrix(10, -1))), -1);
}

TEST(SizePropagationTest, KnownIntValueOfArithmetic) {
  HopPtr x = Matrix(10, 4);
  // (ncol(X) - 1) * 2 + nrow(X)
  HopPtr v = Arith("+", Arith("*", Arith("-", Meta("ncol", x), Int(1)), Int(2)),
                   Meta("nrow", x));
  EXPECT_EQ(KnownIntValue(*v), 16);
  // Negative results and unsupported operators are not known.
  EXPECT_EQ(KnownIntValue(*Arith("-", Int(1), Meta("ncol", x))), -1);
  EXPECT_EQ(KnownIntValue(*Arith("/", Int(8), Int(2))), -1);
  // An unknown operand makes the result unknown.
  EXPECT_EQ(KnownIntValue(*Arith("+", Meta("ncol", Matrix(10, -1)), Int(1))),
            -1);
}

TEST(SizePropagationTest, DatagenDimsFromKnownValues) {
  // l = matrix(reg, ncol(X), 1): known once X's size is.
  HopPtr x = Matrix(200, 20);
  HopPtr l = Fill(Meta("ncol", x), Int(1));
  EXPECT_EQ(l->dim1(), 20);
  EXPECT_EQ(l->dim2(), 1);
  // Recompilation with new input sizes re-derives the dims.
  x->set_dims(300, 30);
  PropagateSizes({l});
  EXPECT_EQ(l->dim1(), 30);
  x->set_dims(-1, -1);
  PropagateSizes({l});
  EXPECT_FALSE(l->DimsKnown());
}

TEST(SizePropagationTest, RandDimsAndNnzFromKnownValues) {
  HopPtr x = Matrix(50, 8);
  auto rand = std::make_shared<Hop>(HopOp::kDataGen, "rand",
                                    DataType::kMatrix, ValueType::kFP64);
  rand->AddInput(Meta("nrow", x));
  rand->AddInput(Arith("*", Meta("ncol", x), Int(2)));
  rand->AddInput(MakeLiteralHop(LitValue::Double(0)));
  rand->AddInput(MakeLiteralHop(LitValue::Double(1)));
  rand->AddInput(MakeLiteralHop(LitValue::Double(0.5)));
  rand->AddInput(Int(-1));
  rand->AddInput(MakeLiteralHop(LitValue::String("uniform")));
  rand->RefreshSizeInformation();
  EXPECT_EQ(rand->dim1(), 50);
  EXPECT_EQ(rand->dim2(), 16);
  EXPECT_EQ(rand->nnz(), 400);
}

TEST(SizePropagationTest, RightIndexBoundsFromKnownValues) {
  // X[, 1:(ncol(X) - 1)] and X[2:nrow(X), ] (literal -1 = to the end).
  HopPtr x = Matrix(100, 9);
  auto index = [&](HopPtr rl, HopPtr ru, HopPtr cl, HopPtr cu) {
    auto h = std::make_shared<Hop>(HopOp::kIndexing, "rightIndex",
                                   DataType::kMatrix, ValueType::kFP64);
    h->AddInput(x);
    h->AddInput(std::move(rl));
    h->AddInput(std::move(ru));
    h->AddInput(std::move(cl));
    h->AddInput(std::move(cu));
    h->RefreshSizeInformation();
    return h;
  };
  HopPtr a = index(Int(1), Int(-1), Int(1), Arith("-", Meta("ncol", x), Int(1)));
  EXPECT_EQ(a->dim1(), 100);
  EXPECT_EQ(a->dim2(), 8);
  HopPtr b = index(Int(2), Meta("nrow", x), Int(1), Int(-1));
  EXPECT_EQ(b->dim1(), 99);
  EXPECT_EQ(b->dim2(), 9);
  HopPtr c = index(Int(1), Meta("nrow", Matrix(-1, 3)), Int(1), Int(-1));
  EXPECT_EQ(c->dim1(), -1);
  EXPECT_EQ(c->dim2(), 9);
}

TEST(SizePropagationTest, ReshapeDimsFromKnownValues) {
  HopPtr x = Matrix(6, 4);
  auto reshape = std::make_shared<Hop>(HopOp::kReorg, "reshape",
                                       DataType::kMatrix, ValueType::kFP64);
  reshape->AddInput(x);
  reshape->AddInput(Meta("length", x));
  reshape->AddInput(Int(1));
  reshape->RefreshSizeInformation();
  EXPECT_EQ(reshape->dim1(), 24);
  EXPECT_EQ(reshape->dim2(), 1);
}

TEST(SizePropagationTest, IfElseWithScalarTestTakesMatrixShape) {
  auto ifelse = [](HopPtr test, HopPtr yes, HopPtr no) {
    auto h = std::make_shared<Hop>(HopOp::kTernary, "ifelse",
                                   DataType::kMatrix, ValueType::kFP64);
    h->AddInput(std::move(test));
    h->AddInput(std::move(yes));
    h->AddInput(std::move(no));
    h->RefreshSizeInformation();
    return h;
  };
  auto flag = MakeLiteralHop(LitValue::Bool(true));
  auto scalar = MakeLiteralHop(LitValue::Double(1.0));
  // A scalar test used to claim a known 0x0 output.
  HopPtr a = ifelse(flag, Matrix(7, 3), Matrix(7, 3));
  EXPECT_EQ(a->dim1(), 7);
  EXPECT_EQ(a->dim2(), 3);
  HopPtr b = ifelse(flag, scalar, Matrix(5, 2));
  EXPECT_EQ(b->dim1(), 5);
  EXPECT_EQ(b->dim2(), 2);
  HopPtr c = ifelse(flag, Matrix(-1, -1), scalar);
  EXPECT_FALSE(c->DimsKnown());
  HopPtr d = ifelse(Matrix(4, 4), scalar, scalar);
  EXPECT_EQ(d->dim1(), 4);
  EXPECT_EQ(d->dim2(), 4);
}

}  // namespace
}  // namespace sysds
