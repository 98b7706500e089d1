// Differential tests for the parallel transformencode pipeline: parallel
// Fit/Apply must be bit-identical to the serial reference at every thread
// count, and the direct-to-compressed sink must decompress to exactly the
// dense encode. Labeled `transform` (also selected by the tsan preset —
// Fit partial merges and the Apply row chunks are shared-state parallel).
#include "runtime/frame/transform.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

namespace sysds {
namespace {

// Deterministic mixed frame: a low-cardinality city column, a mid-
// cardinality device column, a numeric age column with NaN holes, and a
// numeric income column. Seed changes the row content, not the shape.
FrameBlock RandomFrame(int64_t rows, uint64_t seed) {
  FrameBlock f(rows,
               {ValueType::kString, ValueType::kString, ValueType::kFP64,
                ValueType::kFP64},
               {"city", "device", "age", "income"});
  std::mt19937_64 rng(seed);
  const char* cities[] = {"graz", "vienna", "linz", "salzburg", "innsbruck"};
  for (int64_t r = 0; r < rows; ++r) {
    f.SetString(r, 0, cities[rng() % 5]);
    f.SetString(r, 1, "dev" + std::to_string(rng() % 40));
    double age = rng() % 100 == 0 ? std::nan("") : double(20 + rng() % 60);
    f.SetDouble(r, 2, age);
    f.SetDouble(r, 3, double(rng() % 100000) / 100.0);
  }
  return f;
}

const char* kFullSpec =
    R"({"recode":["city","device"],"dummycode":["city"],
        "bin":[{"name":"income","method":"equi-height","numbins":8}],
        "impute":[{"name":"age","method":"mean"}]})";

void ExpectBitIdentical(const MatrixBlock& a, const MatrixBlock& b) {
  ASSERT_EQ(a.Rows(), b.Rows());
  ASSERT_EQ(a.Cols(), b.Cols());
  for (int64_t r = 0; r < a.Rows(); ++r) {
    for (int64_t c = 0; c < a.Cols(); ++c) {
      double x = a.Get(r, c), y = b.Get(r, c);
      // Bit-identity: exact equality, and NaN only matches NaN.
      ASSERT_TRUE(x == y || (std::isnan(x) && std::isnan(y)))
          << "mismatch at (" << r << "," << c << "): " << x << " vs " << y;
    }
  }
}

TEST(TransformParallelTest, FitIsThreadCountInvariant) {
  for (uint64_t seed : {7u, 1234u, 99991u}) {
    FrameBlock f = RandomFrame(10000, seed);
    auto spec = ParseTransformSpec(kFullSpec, f);
    ASSERT_TRUE(spec.ok());
    auto base = MultiColumnEncoder::Fit(f, *spec, 1);
    ASSERT_TRUE(base.ok());
    FrameBlock base_meta = base->MetaFrame();
    for (int threads : {2, 4, 8}) {
      auto enc = MultiColumnEncoder::Fit(f, *spec, threads);
      ASSERT_TRUE(enc.ok());
      FrameBlock meta = enc->MetaFrame();
      ASSERT_EQ(meta.Rows(), base_meta.Rows());
      ASSERT_EQ(meta.Cols(), base_meta.Cols());
      for (int64_t r = 0; r < meta.Rows(); ++r) {
        for (int64_t c = 0; c < meta.Cols(); ++c) {
          ASSERT_EQ(meta.GetString(r, c), base_meta.GetString(r, c))
              << "seed " << seed << " threads " << threads << " meta cell ("
              << r << "," << c << ")";
        }
      }
    }
  }
}

TEST(TransformParallelTest, ApplyMatchesSerialReferenceAtAllThreadCounts) {
  for (uint64_t seed : {3u, 4242u}) {
    FrameBlock f = RandomFrame(10000, seed);
    auto spec = ParseTransformSpec(kFullSpec, f);
    ASSERT_TRUE(spec.ok());
    auto enc = MultiColumnEncoder::Fit(f, *spec, 4);
    ASSERT_TRUE(enc.ok());
    auto ref = enc->ApplyReferenceSerial(f);
    ASSERT_TRUE(ref.ok());
    for (int threads : {1, 2, 4, 8}) {
      EncodeOptions opts;
      opts.num_threads = threads;
      auto out = enc->Apply(f, opts);
      ASSERT_TRUE(out.ok());
      ASSERT_FALSE(out->IsCompressed());
      ExpectBitIdentical(out->Dense(), *ref);
    }
  }
}

TEST(TransformParallelTest, CompressedSinkDecompressesToDenseEncode) {
  FrameBlock f = RandomFrame(5000, 11);
  auto spec = ParseTransformSpec(kFullSpec, f);
  ASSERT_TRUE(spec.ok());
  auto enc = MultiColumnEncoder::Fit(f, *spec, 4);
  ASSERT_TRUE(enc.ok());
  auto ref = enc->ApplyReferenceSerial(f);
  ASSERT_TRUE(ref.ok());
  for (int threads : {1, 4}) {
    EncodeOptions opts;
    opts.output = TransformOutputFormat::kCompressed;
    opts.num_threads = threads;
    auto out = enc->Apply(f, opts);
    ASSERT_TRUE(out.ok());
    ASSERT_TRUE(out->IsCompressed());
    EXPECT_EQ(out->Rows(), ref->Rows());
    EXPECT_EQ(out->Cols(), ref->Cols());
    MatrixBlock decompressed = out->Compressed().Decompress(threads);
    ExpectBitIdentical(decompressed, *ref);
    // ToMatrix is the representation-agnostic accessor.
    ExpectBitIdentical(out->ToMatrix(threads), *ref);
  }
}

TEST(TransformParallelTest, AutoSinkCompressesCategoricalHeavyWorkload) {
  // Dummy-coded low-cardinality columns are the best case for DDC: the
  // dictionary is tiny and codes are 1 byte. kAuto must pick compressed.
  FrameBlock f = RandomFrame(20000, 5);
  auto spec = ParseTransformSpec(
      R"({"recode":["city","device"],"dummycode":["city","device"]})", f);
  ASSERT_TRUE(spec.ok());
  auto enc = MultiColumnEncoder::Fit(f, *spec, 4);
  ASSERT_TRUE(enc.ok());
  EncodeOptions opts;
  opts.output = TransformOutputFormat::kAuto;
  opts.num_threads = 4;
  auto out = enc->Apply(f, opts);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->IsCompressed());
  auto ref = enc->ApplyReferenceSerial(f);
  ASSERT_TRUE(ref.ok());
  ExpectBitIdentical(out->ToMatrix(4), *ref);
}

TEST(TransformParallelTest, AutoSinkKeepsPassThroughDense) {
  // All-numeric pass-through columns gain nothing from DDC; kAuto must
  // fall back to the dense sink rather than wrapping uncompressed groups.
  FrameBlock f(500, {ValueType::kFP64, ValueType::kFP64}, {"a", "b"});
  std::mt19937_64 rng(17);
  for (int64_t r = 0; r < 500; ++r) {
    f.SetDouble(r, 0, double(rng() % 1000000));
    f.SetDouble(r, 1, double(rng() % 1000000));
  }
  auto spec = ParseTransformSpec(R"({})", f);
  ASSERT_TRUE(spec.ok());
  auto enc = MultiColumnEncoder::Fit(f, *spec, 2);
  ASSERT_TRUE(enc.ok());
  EncodeOptions opts;
  opts.output = TransformOutputFormat::kAuto;
  opts.num_threads = 2;
  auto out = enc->Apply(f, opts);
  ASSERT_TRUE(out.ok());
  EXPECT_FALSE(out->IsCompressed());
}

TEST(TransformParallelTest, UnseenTokensRoundTripThroughBothSinks) {
  FrameBlock train = RandomFrame(2000, 21);
  auto spec = ParseTransformSpec(
      R"({"recode":["city","device"],"dummycode":["city"]})", train);
  ASSERT_TRUE(spec.ok());
  auto enc = MultiColumnEncoder::Fit(train, *spec, 4);
  ASSERT_TRUE(enc.ok());
  FrameBlock test = RandomFrame(1000, 22);
  test.SetString(0, 0, "unseen-city");
  test.SetString(1, 1, "unseen-device");
  auto ref = enc->ApplyReferenceSerial(test);
  ASSERT_TRUE(ref.ok());
  // Unseen tokens encode as 0 (missing). Output layout is the city dummy
  // block, then device/age/income one column each.
  EXPECT_DOUBLE_EQ(ref->Get(1, enc->NumOutputCols() - 3), 0.0);
  for (int64_t c = 0; c < enc->NumOutputCols() - 3; ++c) {
    EXPECT_DOUBLE_EQ(ref->Get(0, c), 0.0);  // unseen city: all-zero dummy row
  }
  for (TransformOutputFormat sink :
       {TransformOutputFormat::kDense, TransformOutputFormat::kCompressed}) {
    EncodeOptions opts;
    opts.output = sink;
    opts.num_threads = 4;
    auto out = enc->Apply(test, opts);
    ASSERT_TRUE(out.ok());
    ExpectBitIdentical(out->ToMatrix(4), *ref);
  }
}

TEST(TransformParallelTest, NanImputeIsThreadCountInvariant) {
  FrameBlock f(4097, {ValueType::kFP64}, {"x"});
  std::mt19937_64 rng(31);
  for (int64_t r = 0; r < 4097; ++r) {
    // ~1/3 missing, spread across chunk boundaries (4096-row fit chunks).
    f.SetDouble(r, 0, rng() % 3 == 0 ? std::nan("") : double(rng() % 500));
  }
  auto spec =
      ParseTransformSpec(R"({"impute":[{"name":"x","method":"mean"}]})", f);
  ASSERT_TRUE(spec.ok());
  auto base = MultiColumnEncoder::Fit(f, *spec, 1);
  ASSERT_TRUE(base.ok());
  auto ref = base->ApplyReferenceSerial(f);
  ASSERT_TRUE(ref.ok());
  for (int threads : {2, 8}) {
    auto enc = MultiColumnEncoder::Fit(f, *spec, threads);
    ASSERT_TRUE(enc.ok());
    EncodeOptions opts;
    opts.num_threads = threads;
    auto out = enc->Apply(f, opts);
    ASSERT_TRUE(out.ok());
    ExpectBitIdentical(out->Dense(), *ref);
    for (int64_t r = 0; r < f.Rows(); ++r) {
      ASSERT_FALSE(std::isnan(out->Dense().Get(r, 0)));
    }
  }
}

TEST(TransformParallelTest, ConstantColumnEquiHeightBinning) {
  // A constant column makes every equi-height boundary identical; all
  // values must land in a valid bin, identically at every thread count.
  FrameBlock f(3000, {ValueType::kFP64}, {"c"});
  for (int64_t r = 0; r < 3000; ++r) f.SetDouble(r, 0, 42.0);
  auto spec = ParseTransformSpec(
      R"({"bin":[{"name":"c","method":"equi-height","numbins":5}]})", f);
  ASSERT_TRUE(spec.ok());
  auto base = MultiColumnEncoder::Fit(f, *spec, 1);
  ASSERT_TRUE(base.ok());
  auto ref = base->ApplyReferenceSerial(f);
  ASSERT_TRUE(ref.ok());
  for (int threads : {1, 4}) {
    auto enc = MultiColumnEncoder::Fit(f, *spec, threads);
    ASSERT_TRUE(enc.ok());
    EncodeOptions opts;
    opts.num_threads = threads;
    auto out = enc->Apply(f, opts);
    ASSERT_TRUE(out.ok());
    ExpectBitIdentical(out->Dense(), *ref);
    for (int64_t r = 0; r < f.Rows(); ++r) {
      ASSERT_GE(out->Dense().Get(r, 0), 1.0);
      ASSERT_LE(out->Dense().Get(r, 0), 5.0);
    }
  }
}

TEST(TransformParallelTest, FromMetaReproducesParallelFitExactly) {
  FrameBlock f = RandomFrame(6000, 77);
  auto spec = ParseTransformSpec(kFullSpec, f);
  ASSERT_TRUE(spec.ok());
  auto enc = MultiColumnEncoder::Fit(f, *spec, 8);
  ASSERT_TRUE(enc.ok());
  auto rebuilt = MultiColumnEncoder::FromMeta(*spec, enc->MetaFrame(), f.Cols());
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(rebuilt->NumOutputCols(), enc->NumOutputCols());
  EncodeOptions opts;
  opts.num_threads = 4;
  auto a = enc->Apply(f, opts);
  auto b = rebuilt->Apply(f, opts);
  ASSERT_TRUE(a.ok() && b.ok());
  ExpectBitIdentical(a->Dense(), b->Dense());
}

TEST(TransformParallelTest, DecodeInvertsParallelEncode) {
  FrameBlock f = RandomFrame(4000, 13);
  auto spec = ParseTransformSpec(
      R"({"recode":["city","device"],"dummycode":["city"]})", f);
  ASSERT_TRUE(spec.ok());
  auto enc = MultiColumnEncoder::Fit(f, *spec, 4);
  ASSERT_TRUE(enc.ok());
  EncodeOptions opts;
  opts.num_threads = 4;
  auto x = enc->Apply(f, opts);
  ASSERT_TRUE(x.ok());
  auto decoded = enc->Decode(x->Dense(), f, 4);
  ASSERT_TRUE(decoded.ok());
  for (int64_t r = 0; r < f.Rows(); ++r) {
    ASSERT_EQ(decoded->GetString(r, 0), f.GetString(r, 0));
    ASSERT_EQ(decoded->GetString(r, 1), f.GetString(r, 1));
  }
}

TEST(TransformParallelTest, DefaultOptionsEncodeDense) {
  FrameBlock f = RandomFrame(500, 1);
  auto spec = ParseTransformSpec(R"({"recode":["city"]})", f);
  ASSERT_TRUE(spec.ok());
  auto enc = MultiColumnEncoder::Fit(f, *spec);
  ASSERT_TRUE(enc.ok());
  auto out = enc->Apply(f, {});
  ASSERT_TRUE(out.ok());
  ASSERT_FALSE(out->IsCompressed());
  auto ref = enc->ApplyReferenceSerial(f);
  ASSERT_TRUE(ref.ok());
  ExpectBitIdentical(out->Dense(), *ref);
}

TEST(TransformParallelTest, EncodedOutputAccessorsAndShapes) {
  FrameBlock f = RandomFrame(100, 2);
  auto spec = ParseTransformSpec(R"({"recode":["city"],"dummycode":["city"]})",
                                 f);
  ASSERT_TRUE(spec.ok());
  auto enc = MultiColumnEncoder::Fit(f, *spec, 2);
  ASSERT_TRUE(enc.ok());
  EncodeOptions dense_opts;
  auto dense = enc->Apply(f, dense_opts);
  ASSERT_TRUE(dense.ok());
  EXPECT_FALSE(dense->IsCompressed());
  EXPECT_EQ(dense->Rows(), 100);
  EXPECT_EQ(dense->Cols(), enc->NumOutputCols());
  EncodeOptions comp_opts;
  comp_opts.output = TransformOutputFormat::kCompressed;
  auto comp = enc->Apply(f, comp_opts);
  ASSERT_TRUE(comp.ok());
  EXPECT_TRUE(comp->IsCompressed());
  EXPECT_EQ(comp->Rows(), dense->Rows());
  EXPECT_EQ(comp->Cols(), dense->Cols());
}

}  // namespace
}  // namespace sysds
