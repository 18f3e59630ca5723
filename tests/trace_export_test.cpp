#include "analysis/trace_export.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "test_util.h"

namespace esr::analysis {
namespace {

using core::Method;
using store::Operation;
using test::Config;
using test::MustSubmit;
using test::RunQuery;

int CountLines(const std::string& s) {
  int n = 0;
  for (char c : s) n += c == '\n';
  return n;
}

TEST(TraceExportTest, EmptyHistoryExportsNothing) {
  HistoryRecorder h;
  EXPECT_TRUE(ExportHistoryJsonl(h, 3).empty());
}

TEST(TraceExportTest, EventsOnePerLine) {
  core::ReplicatedSystem system(Config(Method::kCommu));
  MustSubmit(system, 0, {Operation::Increment(0, 5)});
  system.RunUntilQuiescent();
  RunQuery(system, 1, core::kUnboundedEpsilon, {0});
  const std::string jsonl = ExportHistoryJsonl(system.history(), 3);
  // 1 update + 3 applies + 1 read + 1 query = 6 lines.
  EXPECT_EQ(CountLines(jsonl), 6);
  EXPECT_NE(jsonl.find("\"kind\":\"update\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"kind\":\"apply\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"kind\":\"read\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"kind\":\"query\""), std::string::npos);
  EXPECT_NE(jsonl.find("increment(obj=0, 5)"), std::string::npos);
}

TEST(TraceExportTest, AbortedUpdatesFlagged) {
  core::ReplicatedSystem system(Config(Method::kCompe));
  const EtId et = MustSubmit(system, 0, {Operation::Increment(0, 5)});
  system.RunUntilQuiescent();
  ASSERT_TRUE(system.Decide(et, false).ok());
  system.RunUntilQuiescent();
  const std::string jsonl = ExportHistoryJsonl(system.history(), 3);
  EXPECT_NE(jsonl.find("\"aborted\":true"), std::string::npos);
}

TEST(TraceExportTest, StringValuesEscaped) {
  HistoryRecorder h;
  ReadRecord r;
  r.query = 1;
  r.value = Value(std::string("say \"hi\"\n"));
  h.RecordRead(r);
  const std::string jsonl = ExportHistoryJsonl(h, 1);
  EXPECT_NE(jsonl.find("\\\"hi\\\""), std::string::npos);
  EXPECT_NE(jsonl.find("\\n"), std::string::npos);
  // Exactly one newline: the record terminator.
  EXPECT_EQ(CountLines(jsonl), 1);
}

/// Splits JSONL into lines, asserting each line is one object.
std::vector<std::string> ParseLines(const std::string& jsonl) {
  std::vector<std::string> lines;
  std::stringstream stream(jsonl);
  std::string line;
  while (std::getline(stream, line)) {
    EXPECT_EQ(line.front(), '{') << line;
    EXPECT_EQ(line.back(), '}') << line;
    EXPECT_NE(line.find("\"kind\":\""), std::string::npos) << line;
    lines.push_back(line);
  }
  return lines;
}

int CountKind(const std::vector<std::string>& lines, const std::string& kind) {
  int n = 0;
  for (const auto& line : lines) {
    n += line.find("\"kind\":\"" + kind + "\"") != std::string::npos;
  }
  return n;
}

TEST(TraceExportTest, RoundTripCountsMatchHistory) {
  // Multi-site ORDUP run with a mixed workload: every record in the export
  // must parse line-by-line and the per-kind counts must equal what the
  // HistoryRecorder holds.
  core::ReplicatedSystem system(Config(Method::kOrdup));
  for (int i = 0; i < 6; ++i) {
    MustSubmit(system, static_cast<SiteId>(i % 3),
               {Operation::Increment(i % 2, 1)});
    system.RunFor(3'000);
  }
  system.RunUntilQuiescent();
  RunQuery(system, 2, core::kUnboundedEpsilon, {0, 1});

  const auto lines = ParseLines(ExportHistoryJsonl(system.history(), 3));
  const auto& h = system.history();
  int64_t applies = 0;
  for (SiteId s = 0; s < 3; ++s) {
    applies += static_cast<int64_t>(h.site_applies(s).size());
  }
  EXPECT_EQ(CountKind(lines, "update"),
            static_cast<int>(h.updates().size()));
  EXPECT_EQ(CountKind(lines, "apply"), applies);
  EXPECT_EQ(CountKind(lines, "read"), static_cast<int>(h.reads().size()));
  EXPECT_EQ(CountKind(lines, "query"), static_cast<int>(h.queries().size()));
  EXPECT_EQ(lines.size(),
            h.updates().size() + static_cast<size_t>(applies) +
                h.reads().size() + h.queries().size());
}

TEST(TraceExportTest, WritesFile) {
  core::ReplicatedSystem system(Config(Method::kCommu));
  MustSubmit(system, 0, {Operation::Increment(0, 1)});
  system.RunUntilQuiescent();
  const std::string path = ::testing::TempDir() + "/esr_trace_test.jsonl";
  ASSERT_TRUE(WriteHistoryJsonl(system.history(), 3, path).ok());
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), ExportHistoryJsonl(system.history(), 3));
  std::remove(path.c_str());
}

TEST(TraceExportTest, UnwritablePathFails) {
  HistoryRecorder h;
  EXPECT_FALSE(WriteHistoryJsonl(h, 1, "/nonexistent-dir/x.jsonl").ok());
}

}  // namespace
}  // namespace esr::analysis
