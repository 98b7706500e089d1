#include "runtime/controlprog/data.h"

#include <gtest/gtest.h>

#include "runtime/matrix/op_codes.h"

namespace sysds {
namespace {

TEST(ScalarObjectTest, TypeConversions) {
  auto d = ScalarObject::MakeDouble(2.7);
  auto* ds = dynamic_cast<ScalarObject*>(d.get());
  EXPECT_DOUBLE_EQ(ds->AsDouble(), 2.7);
  EXPECT_EQ(ds->AsInt(), 2);
  EXPECT_TRUE(ds->AsBool());

  auto i = ScalarObject::MakeInt(-3);
  auto* is = dynamic_cast<ScalarObject*>(i.get());
  EXPECT_EQ(is->AsInt(), -3);
  EXPECT_DOUBLE_EQ(is->AsDouble(), -3.0);
  EXPECT_EQ(is->AsString(), "-3");

  auto b = ScalarObject::MakeBool(true);
  auto* bs = dynamic_cast<ScalarObject*>(b.get());
  EXPECT_EQ(bs->AsString(), "TRUE");
  EXPECT_DOUBLE_EQ(bs->AsDouble(), 1.0);

  auto s = ScalarObject::MakeString("4.25");
  auto* ss = dynamic_cast<ScalarObject*>(s.get());
  EXPECT_DOUBLE_EQ(ss->AsDouble(), 4.25);
  EXPECT_FALSE(ss->AsBool());
  auto t = ScalarObject::MakeString("TRUE");
  EXPECT_TRUE(dynamic_cast<ScalarObject*>(t.get())->AsBool());
}

TEST(DataCastTest, HelpfulErrors) {
  DataPtr m = std::make_shared<MatrixObject>(MatrixBlock::Dense(2, 2));
  EXPECT_TRUE(AsMatrix(m, "x").ok());
  auto as_scalar = AsScalar(m, "x");
  ASSERT_FALSE(as_scalar.ok());
  EXPECT_NE(as_scalar.status().message().find("expected scalar"),
            std::string::npos);
  EXPECT_FALSE(AsFrame(m, "x").ok());
  EXPECT_FALSE(AsMatrix(nullptr, "y").ok());
}

TEST(ListObjectTest, AppendAndLookup) {
  ListObject list;
  list.Append(ScalarObject::MakeInt(1), "a");
  list.Append(ScalarObject::MakeInt(2));
  list.Append(ScalarObject::MakeInt(3), "c");
  EXPECT_EQ(list.Size(), 3);
  EXPECT_EQ(dynamic_cast<ScalarObject*>(list.Get(1).get())->AsInt(), 2);
  auto by_name = list.GetByName("c");
  ASSERT_TRUE(by_name.ok());
  EXPECT_EQ(dynamic_cast<ScalarObject*>(by_name->get())->AsInt(), 3);
  EXPECT_FALSE(list.GetByName("missing").ok());
}

TEST(OpCodesTest, NamesRoundTrip) {
  EXPECT_STREQ(BinaryOpName(BinaryOpCode::kIntDiv), "%/%");
  EXPECT_STREQ(UnaryOpName(UnaryOpCode::kNegate), "uminus");
  EXPECT_EQ(AggOpName(AggOpCode::kSum, AggDirection::kAll), "uasum");
  EXPECT_EQ(AggOpName(AggOpCode::kIndexMax, AggDirection::kRow), "uarimax");
  EXPECT_EQ(AggOpName(AggOpCode::kMean, AggDirection::kCol), "uacmean");
}

TEST(OpCodesTest, SparseSafety) {
  EXPECT_TRUE(IsSparseSafeBinary(BinaryOpCode::kMul));
  EXPECT_FALSE(IsSparseSafeBinary(BinaryOpCode::kAdd));
  EXPECT_TRUE(IsSparseSafeUnary(UnaryOpCode::kSqrt));
  EXPECT_FALSE(IsSparseSafeUnary(UnaryOpCode::kExp));
  EXPECT_FALSE(IsSparseSafeUnary(UnaryOpCode::kCos));
}

TEST(OpCodesTest, RModuloSemantics) {
  EXPECT_DOUBLE_EQ(ApplyBinary(BinaryOpCode::kMod, 7, 3), 1.0);
  EXPECT_DOUBLE_EQ(ApplyBinary(BinaryOpCode::kMod, -7, 3), 2.0);
  EXPECT_DOUBLE_EQ(ApplyBinary(BinaryOpCode::kMod, 7, -3), -2.0);
  EXPECT_TRUE(std::isnan(ApplyBinary(BinaryOpCode::kMod, 7, 0)));
}

}  // namespace
}  // namespace sysds
