#include "io/io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "io/format_descriptor.h"
#include "runtime/matrix/lib_datagen.h"

namespace sysds {
namespace {

class IoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("sysds_io_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::string Path(const std::string& name) { return (dir_ / name).string(); }
  std::filesystem::path dir_;
};

TEST_F(IoTest, CsvRoundtripDense) {
  auto m = RandMatrix(55, 13, -5, 5, 1.0, 1, RandPdf::kUniform, 1);
  ASSERT_TRUE(io::Write(*m, Path("a.csv"), FormatDescriptor::Csv()).ok());
  auto back = io::Read(Path("a.csv"), FormatDescriptor::Csv());
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->EqualsApprox(*m, 1e-12));
}

TEST_F(IoTest, CsvMultiThreadedMatchesSingle) {
  auto m = RandMatrix(500, 20, -1, 1, 1.0, 2, RandPdf::kUniform, 1);
  ASSERT_TRUE(io::Write(*m, Path("b.csv"), FormatDescriptor::Csv()).ok());
  auto r1 = io::Read(Path("b.csv"), FormatDescriptor::Csv(',', false, 1));
  auto r8 = io::Read(Path("b.csv"), FormatDescriptor::Csv(',', false, 8));
  ASSERT_TRUE(r1.ok() && r8.ok());
  EXPECT_TRUE(r1->EqualsApprox(*r8, 0));
}

TEST_F(IoTest, CsvHeaderAndDelimiter) {
  {
    std::ofstream f(Path("c.csv"));
    f << "a;b;c\n1;2;3\n4;5;6\n";
  }
  auto m = io::Read(Path("c.csv"), FormatDescriptor::Csv(';', true));
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->Rows(), 2);
  EXPECT_EQ(m->Cols(), 3);
  EXPECT_DOUBLE_EQ(m->Get(1, 2), 6.0);
}

TEST_F(IoTest, CsvRaggedRowRejected) {
  {
    std::ofstream f(Path("d.csv"));
    f << "1,2,3\n4,5\n";
  }
  EXPECT_FALSE(io::Read(Path("d.csv"), FormatDescriptor::Csv()).ok());
}

TEST_F(IoTest, BinaryRoundtripDenseAndSparse) {
  auto dense = RandMatrix(40, 30, -1, 1, 1.0, 3, RandPdf::kUniform, 1);
  ASSERT_TRUE(io::Write(*dense, Path("e.bin"),
                        FormatDescriptor::Binary()).ok());
  auto back = io::Read(Path("e.bin"), FormatDescriptor::Binary());
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->EqualsApprox(*dense, 0));

  auto sparse = RandMatrix(80, 80, -1, 1, 0.05, 4, RandPdf::kUniform, 1);
  sparse->ToSparse();
  ASSERT_TRUE(io::Write(*sparse, Path("f.bin"),
                        FormatDescriptor::Binary()).ok());
  auto back2 = io::Read(Path("f.bin"), FormatDescriptor::Binary());
  ASSERT_TRUE(back2.ok());
  EXPECT_TRUE(back2->IsSparse());
  EXPECT_TRUE(back2->EqualsApprox(*sparse, 0));
}

TEST_F(IoTest, BinaryRejectsGarbage) {
  {
    std::ofstream f(Path("g.bin"), std::ios::binary);
    f << "not a matrix";
  }
  EXPECT_FALSE(io::Read(Path("g.bin"), FormatDescriptor::Binary()).ok());
}

TEST_F(IoTest, IjvRoundtrip) {
  auto m = RandMatrix(30, 30, -1, 1, 0.1, 5, RandPdf::kUniform, 1);
  ASSERT_TRUE(io::Write(*m, Path("h.ijv"), FormatDescriptor::Ijv()).ok());
  auto back = io::Read(Path("h.ijv"), FormatDescriptor::Ijv());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->Rows(), 30);
  EXPECT_TRUE(back->EqualsApprox(*m, 1e-12));
}

TEST_F(IoTest, FormatNameDispatch) {
  auto m = RandMatrix(10, 4, 0, 1, 1.0, 6, RandPdf::kUniform, 1);
  for (const char* name : {"csv", "binary", "ijv"}) {
    std::string p = Path("dispatch");
    auto desc = FormatDescriptor::FromFormatName(name);
    ASSERT_TRUE(desc.ok());
    ASSERT_TRUE(io::Write(*m, p, *desc).ok());
    auto back = io::Read(p, *desc);
    ASSERT_TRUE(back.ok());
    EXPECT_TRUE(back->EqualsApprox(*m, 1e-12));
  }
  EXPECT_TRUE(FormatDescriptor::FromFormatName("text").ok());
  EXPECT_TRUE(FormatDescriptor::FromFormatName("BINARY").ok());
  EXPECT_FALSE(FormatDescriptor::FromFormatName("parquet").ok());
}

TEST_F(IoTest, RegistryRejectsUnknownAndUnsupported) {
  FormatDescriptor bogus;
  bogus.kind = "avro";
  EXPECT_FALSE(io::Read(Path("x"), bogus).ok());
  // fixed-width registers a frame reader only: no matrix read, no write.
  FormatDescriptor fw;
  fw.kind = "fixed-width";
  fw.columns.push_back({"a", ValueType::kString, 4});
  EXPECT_FALSE(io::Read(Path("x"), fw).ok());
  FrameBlock f(1, {ValueType::kString});
  EXPECT_FALSE(io::Write(f, Path("x"), fw).ok());
}

TEST_F(IoTest, FrameCsvRoundtripWithHeader) {
  FrameBlock f(2, {ValueType::kString, ValueType::kFP64}, {"name", "v"});
  f.SetString(0, 0, "alpha");
  f.SetString(1, 0, "beta");
  f.SetDouble(0, 1, 1.5);
  f.SetDouble(1, 1, 2.5);
  FormatDescriptor desc = FormatDescriptor::Csv(',', true);
  ASSERT_TRUE(io::Write(f, Path("i.csv"), desc).ok());
  auto back = io::ReadFrame(Path("i.csv"), desc,
                            {ValueType::kString, ValueType::kFP64});
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->ColumnNames()[0], "name");
  EXPECT_EQ(back->GetString(1, 0), "beta");
  EXPECT_DOUBLE_EQ(back->GetDouble(0, 1), 1.5);
}

TEST_F(IoTest, FrameCsvParallelMatchesSerial) {
  {
    std::ofstream f(Path("p.csv"));
    for (int r = 0; r < 500; ++r) {
      f << "tok" << (r % 17) << "," << r << "." << (r % 10) << "\n";
    }
  }
  std::vector<ValueType> schema = {ValueType::kString, ValueType::kFP64};
  auto r1 = io::ReadFrame(Path("p.csv"),
                          FormatDescriptor::Csv(',', false, 1), schema);
  auto r8 = io::ReadFrame(Path("p.csv"),
                          FormatDescriptor::Csv(',', false, 8), schema);
  ASSERT_TRUE(r1.ok() && r8.ok());
  ASSERT_EQ(r1->Rows(), 500);
  ASSERT_EQ(r8->Rows(), 500);
  for (int64_t r = 0; r < r1->Rows(); ++r) {
    EXPECT_EQ(r1->GetString(r, 0), r8->GetString(r, 0));
    EXPECT_EQ(r1->GetDouble(r, 1), r8->GetDouble(r, 1));
  }
}

TEST_F(IoTest, FrameCsvRaggedRowReportsRowNumber) {
  {
    std::ofstream f(Path("q.csv"));
    f << "a,1\nb,2\nc\n";
  }
  auto r = io::ReadFrame(Path("q.csv"), FormatDescriptor::Csv(),
                         {ValueType::kString, ValueType::kFP64});
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("row 3"), std::string::npos);
}

TEST_F(IoTest, FrameCsvMalformedNumericReportsRowAndColumn) {
  {
    std::ofstream f(Path("r.csv"));
    f << "a,1.5\nb,oops\n";
  }
  auto r = io::ReadFrame(Path("r.csv"), FormatDescriptor::Csv(),
                         {ValueType::kString, ValueType::kFP64});
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("row 2"), std::string::npos);
  EXPECT_NE(r.status().message().find("column 2"), std::string::npos);
  EXPECT_NE(r.status().message().find("oops"), std::string::npos);
  // Untyped (all-string) schemas keep every cell verbatim.
  auto ok = io::ReadFrame(Path("r.csv"), FormatDescriptor::Csv());
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->GetString(1, 1), "oops");
}

TEST_F(IoTest, FrameCsvEmptyNumericCellIsMissing) {
  {
    std::ofstream f(Path("s.csv"));
    f << "a,1.5\nb,\n";
  }
  auto r = io::ReadFrame(Path("s.csv"), FormatDescriptor::Csv(),
                         {ValueType::kString, ValueType::kFP64});
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->GetDouble(1, 1), 0.0);
}

TEST_F(IoTest, GeneratedDelimitedReader) {
  {
    std::ofstream f(Path("j.psv"));
    f << "id|value|tag\n1|2.5|x\n2|3.5|y\n";
  }
  auto desc = ParseFormatDescriptor(
      R"({"kind":"delimited","delimiter":"|","header":true,
          "columns":[{"name":"id","type":"int64"},
                     {"name":"value","type":"fp64"},
                     {"name":"tag","type":"string"}]})");
  ASSERT_TRUE(desc.ok());
  auto frame = io::ReadFrame(Path("j.psv"), *desc);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->Rows(), 2);
  EXPECT_DOUBLE_EQ(frame->GetDouble(1, 1), 3.5);
  EXPECT_EQ(frame->GetString(0, 2), "x");
}

TEST_F(IoTest, GeneratedFixedWidthReader) {
  {
    std::ofstream f(Path("k.fw"));
    f << "  1 2.50\n 12 3.75\n";
  }
  auto desc = ParseFormatDescriptor(
      R"({"kind":"fixed-width",
          "columns":[{"name":"id","type":"int64","width":3},
                     {"name":"v","type":"fp64","width":5}]})");
  ASSERT_TRUE(desc.ok());
  auto frame = io::ReadFrame(Path("k.fw"), *desc);
  ASSERT_TRUE(frame.ok());
  EXPECT_DOUBLE_EQ(frame->GetDouble(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(frame->GetDouble(1, 1), 3.75);
}

TEST_F(IoTest, GeneratedKeyValueReader) {
  {
    std::ofstream f(Path("l.kv"));
    f << "b=2;a=1\na=3;b=4\n";
  }
  auto desc = ParseFormatDescriptor(
      R"({"kind":"key-value","delimiter":";",
          "columns":[{"name":"a","type":"fp64"},
                     {"name":"b","type":"fp64"}]})");
  ASSERT_TRUE(desc.ok());
  auto frame = io::ReadFrame(Path("l.kv"), *desc);
  ASSERT_TRUE(frame.ok());
  // Key order per line does not matter.
  EXPECT_DOUBLE_EQ(frame->GetDouble(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(frame->GetDouble(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(frame->GetDouble(1, 0), 3.0);
}

TEST_F(IoTest, GeneratedWriterRoundtrip) {
  auto desc = ParseFormatDescriptor(
      R"({"kind":"delimited","delimiter":",","header":true,
          "columns":[{"name":"x","type":"fp64"},{"name":"y","type":"fp64"}]})");
  ASSERT_TRUE(desc.ok());
  FrameBlock f(2, {ValueType::kFP64, ValueType::kFP64}, {"x", "y"});
  f.SetDouble(0, 0, 1);
  f.SetDouble(1, 1, 4);
  ASSERT_TRUE(io::Write(f, Path("m.csv"), *desc).ok());
  auto back = io::ReadFrame(Path("m.csv"), *desc);
  ASSERT_TRUE(back.ok());
  EXPECT_DOUBLE_EQ(back->GetDouble(1, 1), 4.0);
}

TEST_F(IoTest, UnknownFormatKindRejected) {
  auto desc = ParseFormatDescriptor(
      R"({"kind":"avro","columns":[{"name":"a"}]})");
  ASSERT_TRUE(desc.ok());
  EXPECT_FALSE(GenerateReader(*desc).ok());
  EXPECT_FALSE(io::ReadFrame(Path("nope"), *desc).ok());
}

TEST_F(IoTest, MatrixKindDescriptorNeedsNoColumns) {
  auto desc = ParseFormatDescriptor(R"({"kind":"csv","num_threads":2})");
  ASSERT_TRUE(desc.ok());
  EXPECT_EQ(desc->num_threads, 2);
  auto fail = ParseFormatDescriptor(R"({"kind":"delimited"})");
  EXPECT_FALSE(fail.ok());
}

TEST_F(IoTest, DescriptorRejectsInvalidNumThreads) {
  for (const char* bad : {"-1", "2.5", "1e30", "\"4\""}) {
    auto desc = ParseFormatDescriptor(
        std::string(R"({"kind":"csv","num_threads":)") + bad + "}");
    ASSERT_FALSE(desc.ok()) << bad;
    EXPECT_EQ(desc.status().code(), StatusCode::kInvalidArgument) << bad;
  }
  auto zero = ParseFormatDescriptor(R"({"kind":"csv","num_threads":0})");
  ASSERT_TRUE(zero.ok()) << zero.status();
  EXPECT_EQ(zero->num_threads, 0);
}

}  // namespace
}  // namespace sysds
