// Tests for the gated-bench harness in bench/bench_common.h: the median and
// interquartile spread a gate is checked on, the alternating pair order,
// and the report's exit status and JSON.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "../bench/bench_common.h"

namespace iotaxo {
namespace {

TEST(BenchHarness, SummarizeGivesMedianAndInterquartileSpread) {
  // Nine samples, as a ratio gate takes them: Q1, median and Q3 are the
  // 3rd, 5th and 7th smallest.
  const bench::Stat nine = bench::summarize({9, 1, 8, 2, 7, 3, 6, 4, 50});
  EXPECT_DOUBLE_EQ(nine.median, 6.0);
  EXPECT_DOUBLE_EQ(nine.spread, 8.0 - 3.0);
  // Between order statistics the quantiles interpolate linearly.
  const bench::Stat four = bench::summarize({4, 1, 3, 2});
  EXPECT_DOUBLE_EQ(four.median, 2.5);
  EXPECT_DOUBLE_EQ(four.spread, 3.25 - 1.75);
  const bench::Stat one = bench::summarize({7});
  EXPECT_DOUBLE_EQ(one.median, 7.0);
  EXPECT_DOUBLE_EQ(one.spread, 0.0);
}

TEST(BenchHarness, PairsAlternateWhichSideRunsFirst) {
  std::string order;
  const bench::Pairs pairs = bench::pairs(
      [&] { order += 'b'; },
      [&](bench::Timer& timer) {
        order += 's';  // setup, outside the timed region
        timer.time([&] { order += 'c'; });
      });
  EXPECT_EQ(order, "bsc" "scb" "bsc" "scb" "bsc" "scb" "bsc" "scb" "bsc");
  EXPECT_EQ(pairs.baseline.size(), static_cast<std::size_t>(bench::kPairs));
  EXPECT_EQ(pairs.candidate.size(), static_cast<std::size_t>(bench::kPairs));
}

class BenchReport : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("bench_harness_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  [[nodiscard]] std::string json(const std::string& name) const {
    std::ifstream in(dir_ / ("BENCH_" + name + ".json"));
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
  }

  std::filesystem::path dir_;
};

TEST_F(BenchReport, PassesWhenEveryMedianMeetsItsFloorAndEveryCheckHolds) {
  bench::Report report("pass");
  report.gate("speedup", {2.5, 0.25}, 2.0);
  report.gate("at_floor", {2.0, 0.0}, 2.0);
  report.check("identical", true);
  report.value("events", 200000);
  EXPECT_EQ(report.finish(dir_.string()), 0);
  const std::string text = json("pass");
  EXPECT_NE(text.find("\"bench\": \"pass\""), std::string::npos);
  EXPECT_NE(text.find("\"speedup\": 2.500"), std::string::npos);
  EXPECT_NE(text.find("\"speedup_floor\": 2,"), std::string::npos);
  EXPECT_NE(text.find("\"speedup_spread\": 0.250"), std::string::npos);
  EXPECT_NE(text.find("\"at_floor_spread\": 0,"), std::string::npos);
  EXPECT_NE(text.find("\"identical\": true"), std::string::npos);
  EXPECT_NE(text.find("\"events\": 200000"), std::string::npos);
  EXPECT_NE(text.find("\"metrics\": {}"), std::string::npos);
}

TEST_F(BenchReport, FailsOnAMedianBelowItsFloorOrAFalseCheck) {
  bench::Report below("below");
  below.gate("speedup", {1.9, 0.5}, 2.0);  // the spread does not rescue it
  below.check("identical", true);
  EXPECT_EQ(below.finish(dir_.string()), 1);
  EXPECT_NE(json("below").find("\"speedup\": 1.900"), std::string::npos);

  bench::Report check("check");
  check.gate("speedup", {3.0, 0.1}, 2.0);
  check.check("identical", false);
  EXPECT_EQ(check.finish(dir_.string()), 1);
  EXPECT_NE(json("check").find("\"identical\": false"), std::string::npos);
}

}  // namespace
}  // namespace iotaxo
