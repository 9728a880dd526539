// Tests for the shared bench helpers (bench/bench_util.h): the report writer
// whose output the bench_gate.* ctests diff byte for byte, and the argument
// checks that keep a bench from running a study it was not asked for.

#include "bench/bench_util.h"

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>

namespace crius {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

bool Exists(const std::string& path) { return std::ifstream(path).good(); }

std::string TempPath(const std::string& tag) {
  return ::testing::TempDir() + "/crius_bench_util_test_" + tag + ".json";
}

TEST(WriteBenchReportTest, EmptyPathWritesNothing) {
  EXPECT_TRUE(WriteBenchReport("", "power", {{"seed", "1"}}, {{"energy", {2.5, "kWh"}}}));
}

TEST(WriteBenchReportTest, ReportHasFixedLayoutWithSortedKeys) {
  const std::string path = TempPath("layout");
  ASSERT_TRUE(WriteBenchReport(path, "power", {{"smoke", "0"}, {"seed", "7"}},
                               {{"zeta_jct", {1234.5, "s"}}, {"alpha_energy", {3, "kWh"}}}));
  EXPECT_EQ(ReadFile(path),
            "{\n"
            "  \"bench\": \"power\",\n"
            "  \"meta\": {\n"
            "    \"seed\": \"7\",\n"
            "    \"smoke\": \"0\"\n"
            "  },\n"
            "  \"metrics\": {\n"
            "    \"alpha_energy\": {\n"
            "      \"unit\": \"kWh\",\n"
            "      \"value\": 3\n"
            "    },\n"
            "    \"zeta_jct\": {\n"
            "      \"unit\": \"s\",\n"
            "      \"value\": 1234.5\n"
            "    }\n"
            "  }\n"
            "}\n");
  std::remove(path.c_str());
}

TEST(WriteBenchReportTest, ValuesRoundTripExactly) {
  const std::string path = TempPath("roundtrip");
  const double value = 149154.22594736842;
  ASSERT_TRUE(WriteBenchReport(path, "rounds", {}, {{"round_alloc_bytes", {value, "B"}}}));
  Json root;
  std::string error;
  ASSERT_TRUE(Json::Parse(ReadFile(path), &root, &error)) << error;
  const Json* metrics = root.Find("metrics");
  ASSERT_NE(metrics, nullptr);
  const Json* metric = metrics->Find("round_alloc_bytes");
  ASSERT_NE(metric, nullptr);
  EXPECT_EQ(metric->NumberOr("value", 0.0), value);
  EXPECT_EQ(metric->StringOr("unit", ""), "B");
  std::remove(path.c_str());
}

TEST(WriteBenchReportTest, SameInputsWriteIdenticalBytes) {
  const std::string first = TempPath("first");
  const std::string second = TempPath("second");
  std::map<std::string, BenchMetric> metrics;
  metrics["b"] = {0.1, "x"};
  metrics["a"] = {1e-9, "y"};
  ASSERT_TRUE(WriteBenchReport(first, "objectives", {{"seed", "1"}}, metrics));
  ASSERT_TRUE(WriteBenchReport(second, "objectives", {{"seed", "1"}}, metrics));
  EXPECT_EQ(ReadFile(first), ReadFile(second));
  std::remove(first.c_str());
  std::remove(second.c_str());
}

TEST(WriteBenchReportTest, ReplacesExistingReportAndLeavesNoTempFile) {
  const std::string path = TempPath("replace");
  ASSERT_TRUE(WriteBenchReport(path, "reconfig", {}, {{"old", {1, "s"}}}));
  ASSERT_TRUE(WriteBenchReport(path, "reconfig", {}, {{"new", {2, "s"}}}));
  const std::string text = ReadFile(path);
  EXPECT_EQ(text.find("\"old\""), std::string::npos);
  EXPECT_NE(text.find("\"new\""), std::string::npos);
  EXPECT_FALSE(Exists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST(WriteBenchReportTest, UnwritablePathFailsAndLeavesNoTempFile) {
  const std::string path = ::testing::TempDir() + "/crius_bench_util_test_missing_dir/r.json";
  EXPECT_FALSE(WriteBenchReport(path, "power", {}, {{"energy", {1, "kWh"}}}));
  EXPECT_FALSE(Exists(path));
  EXPECT_FALSE(Exists(path + ".tmp"));
}

TEST(RequireNoArgsTest, NoArgumentsReturns) {
  char name[] = "fig14_testbed";
  char* argv[] = {name, nullptr};
  RequireNoArgs(1, argv);
  SUCCEED();
}

TEST(RequireNoArgsTest, AnyArgumentExitsOne) {
  char name[] = "fig14_testbed";
  char flag[] = "--smoke";
  char* argv[] = {name, flag, nullptr};
  EXPECT_EXIT(RequireNoArgs(2, argv), ::testing::ExitedWithCode(1),
              "takes no arguments \\(got '--smoke'\\)");
}

TEST(SetBenchThreadsTest, RejectsCountsOutsideRange) {
  EXPECT_FALSE(SetBenchThreads(0));
  EXPECT_FALSE(SetBenchThreads(-3));
  EXPECT_FALSE(SetBenchThreads(4097));
}

}  // namespace
}  // namespace crius
