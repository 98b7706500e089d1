#include "runtime/frame/transform.h"

#include <gtest/gtest.h>

#include <cmath>

namespace sysds {
namespace {

FrameBlock PeopleFrame() {
  FrameBlock f(6, {ValueType::kString, ValueType::kFP64, ValueType::kFP64},
               {"city", "age", "income"});
  const char* cities[] = {"graz", "vienna", "graz", "linz", "vienna", "graz"};
  double ages[] = {25, 35, 45, 55, std::nan(""), 65};
  double incomes[] = {30, 40, 50, 60, 70, 80};
  for (int i = 0; i < 6; ++i) {
    f.SetString(i, 0, cities[i]);
    f.SetDouble(i, 1, ages[i]);
    f.SetDouble(i, 2, incomes[i]);
  }
  return f;
}

TEST(TransformSpecTest, ParsesAllSections) {
  FrameBlock f = PeopleFrame();
  auto spec = ParseTransformSpec(
      R"({"recode":["city"],"dummycode":["city"],
          "bin":[{"name":"age","method":"equi-width","numbins":4}],
          "impute":[{"name":"age","method":"mean"}]})",
      f);
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->recode_cols, (std::vector<int64_t>{0}));
  EXPECT_EQ(spec->dummycode_cols, (std::vector<int64_t>{0}));
  ASSERT_EQ(spec->bin_cols.size(), 1u);
  EXPECT_EQ(spec->bin_cols[0].col, 1);
  EXPECT_EQ(spec->bin_cols[0].num_bins, 4);
  ASSERT_EQ(spec->impute_cols.size(), 1u);
}

TEST(TransformSpecTest, ColumnByIndexAndErrors) {
  FrameBlock f = PeopleFrame();
  auto by_index = ParseTransformSpec(R"({"recode":[1]})", f);
  ASSERT_TRUE(by_index.ok());
  EXPECT_EQ(by_index->recode_cols, (std::vector<int64_t>{0}));
  EXPECT_FALSE(ParseTransformSpec(R"({"recode":["nope"]})", f).ok());
  EXPECT_FALSE(ParseTransformSpec(R"({"recode":[9]})", f).ok());
  EXPECT_FALSE(ParseTransformSpec("[]", f).ok());
}

TEST(TransformEncodeTest, RecodeAssignsDenseCodes) {
  FrameBlock f = PeopleFrame();
  auto spec = ParseTransformSpec(R"({"recode":["city"]})", f);
  auto enc = MultiColumnEncoder::Fit(f, *spec);
  ASSERT_TRUE(enc.ok());
  auto x = enc->Apply(f, {});
  ASSERT_TRUE(x.ok());
  EXPECT_EQ(x->Cols(), 3);
  // Same tokens get the same code; distinct tokens distinct codes 1..3.
  EXPECT_EQ(x->Dense().Get(0, 0), x->Dense().Get(2, 0));
  EXPECT_EQ(x->Dense().Get(1, 0), x->Dense().Get(4, 0));
  EXPECT_NE(x->Dense().Get(0, 0), x->Dense().Get(1, 0));
  EXPECT_GE(x->Dense().Get(3, 0), 1.0);
  EXPECT_LE(x->Dense().Get(3, 0), 3.0);
  // Pass-through columns unchanged.
  EXPECT_DOUBLE_EQ(x->Dense().Get(0, 2), 30.0);
}

TEST(TransformEncodeTest, DummycodeExpandsColumns) {
  FrameBlock f = PeopleFrame();
  auto spec =
      ParseTransformSpec(R"({"recode":["city"],"dummycode":["city"]})", f);
  auto enc = MultiColumnEncoder::Fit(f, *spec);
  ASSERT_TRUE(enc.ok());
  EXPECT_EQ(enc->NumOutputCols(), 3 + 2);  // 3 cities + age + income
  auto x = enc->Apply(f, {});
  ASSERT_TRUE(x.ok());
  // Each row has exactly one 1 among the first three columns.
  for (int64_t r = 0; r < 6; ++r) {
    const MatrixBlock& m = x->Dense();
    double sum = m.Get(r, 0) + m.Get(r, 1) + m.Get(r, 2);
    EXPECT_DOUBLE_EQ(sum, 1.0);
  }
}

TEST(TransformEncodeTest, BinningEquiWidth) {
  FrameBlock f = PeopleFrame();
  auto spec = ParseTransformSpec(
      R"({"bin":[{"name":"income","method":"equi-width","numbins":5}]})", f);
  auto enc = MultiColumnEncoder::Fit(f, *spec);
  auto x = enc->Apply(f, {});
  ASSERT_TRUE(x.ok());
  EXPECT_DOUBLE_EQ(x->Dense().Get(0, 2), 1.0);  // income 30 -> first bin
  EXPECT_DOUBLE_EQ(x->Dense().Get(5, 2), 5.0);  // income 80 -> last bin
  for (int64_t r = 0; r < 6; ++r) {
    EXPECT_GE(x->Dense().Get(r, 2), 1.0);
    EXPECT_LE(x->Dense().Get(r, 2), 5.0);
  }
}

TEST(TransformEncodeTest, ImputeByMeanFillsNaN) {
  FrameBlock f = PeopleFrame();
  auto spec = ParseTransformSpec(
      R"({"impute":[{"name":"age","method":"mean"}]})", f);
  auto enc = MultiColumnEncoder::Fit(f, *spec);
  auto x = enc->Apply(f, {});
  ASSERT_TRUE(x.ok());
  // Mean of {25,35,45,55,65} = 45 fills row 4.
  EXPECT_DOUBLE_EQ(x->Dense().Get(4, 1), 45.0);
  EXPECT_DOUBLE_EQ(x->Dense().Get(0, 1), 25.0);
}

TEST(TransformApplyTest, MetaRoundtripMatchesEncode) {
  FrameBlock f = PeopleFrame();
  auto spec = ParseTransformSpec(
      R"({"recode":["city"],"dummycode":["city"],
          "bin":[{"name":"age","numbins":3}],
          "impute":[{"name":"age","method":"mean"}]})",
      f);
  auto enc = MultiColumnEncoder::Fit(f, *spec);
  ASSERT_TRUE(enc.ok());
  auto x1 = enc->Apply(f, {});
  FrameBlock meta = enc->MetaFrame();
  auto enc2 = MultiColumnEncoder::FromMeta(*spec, meta, f.Cols());
  ASSERT_TRUE(enc2.ok());
  auto x2 = enc2->Apply(f, {});
  ASSERT_TRUE(x1.ok() && x2.ok());
  EXPECT_TRUE(x1->Dense().EqualsApprox(x2->Dense(), 0));
}

TEST(TransformApplyTest, UnseenCategoryMapsToZero) {
  FrameBlock f = PeopleFrame();
  auto spec = ParseTransformSpec(R"({"recode":["city"]})", f);
  auto enc = MultiColumnEncoder::Fit(f, *spec);
  FrameBlock f2 = PeopleFrame();
  f2.SetString(0, 0, "salzburg");  // unseen
  auto x = enc->Apply(f2, {});
  ASSERT_TRUE(x.ok());
  EXPECT_DOUBLE_EQ(x->Dense().Get(0, 0), 0.0);
}

TEST(TransformDecodeTest, InvertsRecodeAndDummycode) {
  FrameBlock f = PeopleFrame();
  auto spec =
      ParseTransformSpec(R"({"recode":["city"],"dummycode":["city"]})", f);
  auto enc = MultiColumnEncoder::Fit(f, *spec);
  auto x = enc->Apply(f, {});
  auto decoded = enc->Decode(x->Dense(), f);
  ASSERT_TRUE(decoded.ok());
  for (int64_t r = 0; r < 6; ++r) {
    EXPECT_EQ(decoded->GetString(r, 0), f.GetString(r, 0));
    EXPECT_DOUBLE_EQ(decoded->GetDouble(r, 2), f.GetDouble(r, 2));
  }
}

TEST(TransformEncodeTest, RecodePlusBinOnSameColumnRejected) {
  FrameBlock f = PeopleFrame();
  auto spec = ParseTransformSpec(
      R"({"recode":["age"],"bin":[{"name":"age","numbins":3}]})", f);
  ASSERT_TRUE(spec.ok());
  EXPECT_FALSE(MultiColumnEncoder::Fit(f, *spec).ok());
}

}  // namespace
}  // namespace sysds
