// Tests for the util module: tables, formatting, logging, RNG, timers.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <thread>

#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace au = adarnet::util;

TEST(TableFmt, AlignedRendering) {
  au::Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"a-much-longer-name", "22"});
  const std::string s = t.to_string();
  // Header, separator, two rows.
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 4);
  EXPECT_NE(s.find("a-much-longer-name"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(TableFmt, CsvEscaping) {
  au::Table t({"k", "v"});
  t.add_row({"with,comma", "with\"quote"});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(csv.find("\"with\"\"quote\""), std::string::npos);
}

TEST(TableFmt, WriteCsvRoundTrip) {
  au::Table t({"x"});
  t.add_row({"1"});
  const std::string path = ::testing::TempDir() + "/adarnet_table.csv";
  ASSERT_TRUE(t.write_csv(path));
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "x");
  std::remove(path.c_str());
}

TEST(TableFmt, NumberFormatting) {
  EXPECT_EQ(au::fmt(3.14159, 3), "3.14");
  EXPECT_EQ(au::fmt(0.000123456, 3), "0.000123");
  EXPECT_EQ(au::fmt_speedup(3.456), "3.5x");
}

TEST(Logging, LevelParsingAndGating) {
  EXPECT_EQ(au::parse_log_level("debug"), au::LogLevel::kDebug);
  EXPECT_EQ(au::parse_log_level("nonsense"), au::LogLevel::kInfo);
  const au::LogLevel saved = au::log_level();
  au::set_log_level(au::LogLevel::kOff);
  ADR_LOG_ERROR << "suppressed";  // must not crash, must be gated
  au::set_log_level(saved);
}

TEST(RngDet, SameSeedSameSequence) {
  au::Rng a(123);
  au::Rng b(123);
  for (int k = 0; k < 16; ++k) {
    EXPECT_DOUBLE_EQ(a.uniform(0, 1), b.uniform(0, 1));
  }
  au::Rng c(124);
  bool differs = false;
  au::Rng a2(123);
  for (int k = 0; k < 16; ++k) {
    differs |= (a2.uniform(0, 1) != c.uniform(0, 1));
  }
  EXPECT_TRUE(differs);
}

TEST(RngDet, RangesRespected) {
  au::Rng rng(5);
  for (int k = 0; k < 100; ++k) {
    const double u = rng.uniform(2.0, 3.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 3.0);
    const auto i = rng.uniform_int(-2, 2);
    EXPECT_GE(i, -2);
    EXPECT_LE(i, 2);
  }
}

TEST(Timers, MeasureElapsed) {
  au::WallTimer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const double s = t.seconds();
  EXPECT_GE(s, 0.010);
  // minutes() is sampled after seconds(), so it can only be later.
  const double m = t.minutes();
  EXPECT_GE(m, s / 60.0);
  EXPECT_LT(m, s / 60.0 + 1.0 / 60.0);  // within a second of each other
}
