// End-to-end transformencode through the DML runtime: the compressed and
// auto sinks configured via SystemDSContext::Builder must produce the same
// numeric results as the default dense path, and transformapply/decode must
// round-trip through the meta frame.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "api/systemds_context.h"
#include "obs/metrics.h"

namespace sysds {
namespace {

class TransformE2ETest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One file per test: ctest runs the tests of this suite in parallel
    // processes sharing one working directory.
    path_ = std::string("transform_e2e_people_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".csv";
    std::ofstream out(path_);
    out << "city,age\n";
    const char* cities[] = {"graz", "vienna", "linz"};
    for (int i = 0; i < 300; ++i) {
      out << cities[i % 3] << "," << (20 + i % 50) << "\n";
    }
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string Script() const {
    return "F = read('" + path_ +
           "', data_type='frame', header=TRUE)\n"
           "[X, M] = transformencode(target=F, "
           "spec='{\"recode\":[\"city\"],\"dummycode\":[\"city\"]}')\n"
           "s = sum(X)\n"
           "c = sum(X^2)\n";
  }

  std::string path_;
};

TEST_F(TransformE2ETest, CompressedSinkMatchesDenseThroughDml) {
  auto dense_ctx = SystemDSContext::Builder().Build();
  auto r1 = dense_ctx->Execute(Script(), Inputs(), Outputs("s", "c"));
  ASSERT_TRUE(r1.ok()) << r1.status();
  for (auto output : {TransformOutputFormat::kCompressed,
                      TransformOutputFormat::kAuto}) {
    auto ctx = SystemDSContext::Builder().TransformOutput(output).Build();
    auto r2 = ctx->Execute(Script(), Inputs(), Outputs("s", "c"));
    ASSERT_TRUE(r2.ok()) << r2.status();
    EXPECT_DOUBLE_EQ(*r2->GetDouble("s"), *r1->GetDouble("s"));
    EXPECT_DOUBLE_EQ(*r2->GetDouble("c"), *r1->GetDouble("c"));
  }
}

TEST_F(TransformE2ETest, CompressionEnabledUpgradesEncodeOutputs) {
  // With --compress the compiler stamps encode outputs kAuto; results must
  // stay identical to the dense baseline.
  auto dense_ctx = SystemDSContext::Builder().Build();
  auto r1 = dense_ctx->Execute(Script(), Inputs(), Outputs("s"));
  ASSERT_TRUE(r1.ok()) << r1.status();
  DMLConfig config;
  config.compression_enabled = true;
  auto ctx = SystemDSContext::Builder().WithConfig(config).Build();
  auto r2 = ctx->Execute(Script(), Inputs(), Outputs("s"));
  ASSERT_TRUE(r2.ok()) << r2.status();
  EXPECT_DOUBLE_EQ(*r2->GetDouble("s"), *r1->GetDouble("s"));
}

TEST_F(TransformE2ETest, RecompiledEncodeKeepsPlannedOutputFormat) {
  // read() leaves the frame's size unknown, so the encode block recompiles
  // before it runs; the recompiled transformencode must keep the configured
  // format: kCompressed, and kAuto under compression enablement (this data
  // clears the min-ratio gate, so kAuto compresses too).
  DMLConfig compressed;
  compressed.transform_output = TransformOutputFormat::kCompressed;
  DMLConfig compression_enabled;
  compression_enabled.compression_enabled = true;
  for (const DMLConfig& config : {compressed, compression_enabled}) {
    auto ctx = SystemDSContext::Builder().WithConfig(config).Build();
    auto& registry = obs::MetricsRegistry::Get();
    int64_t recompiles = registry.CounterValue("compiler.recompilations");
    int64_t direct =
        registry.CounterValue("transform.direct_compressed_outputs");
    auto r = ctx->Execute(Script(), Inputs(), Outputs("s"));
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_GT(registry.CounterValue("compiler.recompilations"), recompiles);
    EXPECT_EQ(registry.CounterValue("transform.direct_compressed_outputs"),
              direct + 1);
  }
}

}  // namespace
}  // namespace sysds
