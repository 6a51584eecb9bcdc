// Self-tests of the benchmark's measurement helpers:
//   python3 perfbench/run.py --selftest
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "calibrate.hpp"
#include "reference.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Tail, HighestPercentileWithTenSamplesBeyond) {
  const Tail t100 = tail(one_to(100));
  ASSERT_TRUE(t100.ok);
  EXPECT_EQ(t100.value, 90.0);  // 91..100 lie beyond it
  EXPECT_DOUBLE_EQ(t100.percentile, 90.0);
  EXPECT_EQ(t100.n, 100);

  const Tail t1000 = tail(one_to(1000));
  EXPECT_EQ(t1000.value, 990.0);
  EXPECT_DOUBLE_EQ(t1000.percentile, 99.0);

  std::vector<double> shuffled = one_to(40);
  std::reverse(shuffled.begin(), shuffled.end());
  EXPECT_EQ(tail(shuffled).value, 30.0);
}

TEST(Tail, RefusesBelowElevenSamples) {
  EXPECT_FALSE(tail(one_to(10)).ok);
  EXPECT_FALSE(tail(one_to(7)).ok);  // seven cases have no tail
  EXPECT_FALSE(tail({}).ok);
  const Tail t11 = tail(one_to(11));
  ASSERT_TRUE(t11.ok);
  EXPECT_EQ(t11.value, 1.0);
}

TEST(Median, OddAndEven) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

TEST(Schedule, SameSeedSameScheduleAndRequests) {
  const std::vector<int> block = {0, 1, 2, 3, 3, 4, 4, 5, 5};
  const auto a = make_schedule(7, 1.75, 20.0, block);
  const auto b = make_schedule(7, 1.75, 20.0, block);
  const auto c = make_schedule(8, 1.75, 20.0, block);
  ASSERT_EQ(a.size(), 35u);  // round(rate * seconds) arrivals
  ASSERT_EQ(b.size(), a.size());
  bool differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].due_s, b[i].due_s);
    EXPECT_EQ(a[i].type, b[i].type);
    differs = differs || a[i].due_s != c[i].due_s || a[i].type != c[i].type;
    EXPECT_GE(a[i].due_s, 0.0);
    EXPECT_LT(a[i].due_s, 20.0);
    if (i > 0) {
      EXPECT_LE(a[i - 1].due_s, a[i].due_s);
    }
  }
  EXPECT_TRUE(differs);
}

TEST(Schedule, EveryBlockSendsTheMenuMix) {
  const std::vector<int> block = {0, 1, 2, 3, 3, 4, 4, 5, 5};
  const auto s = make_schedule(3, 1.8, 20.0, block);  // 36 = 4 blocks
  std::vector<int> count(6, 0);
  for (const Arrival& a : s) ++count[static_cast<std::size_t>(a.type)];
  EXPECT_EQ(count, (std::vector<int>{4, 4, 4, 8, 8, 8}));
}

/// A fake clock for the open-loop driver: `wait` jumps to the deadline
/// (or completes the oldest request), `send` can stall the generator.
struct FakeServer {
  double t = 0.0;
  double stall_on_first_send = 0.0;
  double service_s = 0.0;
  std::vector<double> done_at;   ///< completion time of each request
  std::vector<double> busy;      ///< completion times of open requests

  void wait(double deadline) {
    if (!busy.empty() && busy.front() <= deadline) {
      t = std::max(t, busy.front());
      busy.erase(busy.begin());
      return;
    }
    if (std::isfinite(deadline)) t = std::max(t, deadline);
  }
  void send(std::size_t i) {
    if (i == 0) t += stall_on_first_send;
    done_at.push_back(t + service_s);
    if (service_s > 0.0) busy.push_back(t + service_s);
  }
};

std::vector<Sent> drive(FakeServer& fake, const std::vector<Arrival>& s,
                        int max_in_flight) {
  return drive_open_loop(
      s, max_in_flight, [&] { return fake.t; },
      [&](double d) { fake.wait(d); }, [&](std::size_t i) { fake.send(i); },
      [&] { return static_cast<int>(fake.busy.size()); });
}

TEST(OpenLoop, GeneratorStallIsChargedToTheRequestsBehindIt) {
  const std::vector<Arrival> s = {{0.0, 0}, {0.1, 0}, {0.2, 0}, {0.3, 0},
                                  {2.0, 0}};
  FakeServer fake;
  fake.stall_on_first_send = 1.0;  // the generator is stuck for 1 s
  const auto sent = drive(fake, s, 4);
  ASSERT_EQ(sent.size(), s.size());
  for (std::size_t i = 1; i <= 3; ++i) {
    EXPECT_DOUBLE_EQ(sent[i].sent_s, 1.0);
    // Latency counts from the due time, so the stall shows in every
    // request queued behind it, and as generator lag.
    const double latency = fake.done_at[i] - sent[i].due_s;
    EXPECT_NEAR(latency, 1.0 - s[i].due_s, 1e-12);
    EXPECT_NEAR(sent[i].lag_s, 1.0 - s[i].due_s, 1e-12);
  }
  EXPECT_DOUBLE_EQ(sent[4].sent_s, 2.0);  // back on schedule
  EXPECT_DOUBLE_EQ(sent[4].lag_s, 0.0);
}

TEST(OpenLoop, FullConnectionBudgetDelaysSendsButNotDueTimes) {
  const std::vector<Arrival> s = {{0.0, 0}, {0.1, 0}, {0.2, 0}};
  FakeServer fake;
  fake.service_s = 0.5;
  const auto sent = drive(fake, s, 1);  // one connection at a time
  EXPECT_DOUBLE_EQ(sent[1].sent_s, 0.5);
  EXPECT_DOUBLE_EQ(sent[2].sent_s, 1.0);
  EXPECT_NEAR(fake.done_at[2] - sent[2].due_s, 1.3, 1e-12);
  EXPECT_DOUBLE_EQ(sent[2].lag_s, 0.0);  // waiting for a slot is not lag
}

class ReferenceFile : public ::testing::Test {
 protected:
  std::string path = (std::filesystem::temp_directory_path() /
                      ("perfbench_ref_" + std::to_string(::getpid()) +
                       ".json"))
                         .string();
  void write(double qoi) {
    std::ofstream out(path);
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", qoi);
    out << "{\"table1/cylinder_100000/adarnet_qoi\": " << buf << "}\n";
  }
  void TearDown() override { std::filesystem::remove(path); }
};

TEST_F(ReferenceFile, MatchingQoiPasses) {
  write(1.4782159);
  Checker chk(path, false);
  EXPECT_TRUE(chk.check("table1/cylinder_100000/adarnet_qoi", 1.4782159,
                        kQoiTol));
  EXPECT_EQ(chk.max_rel_err, 0.0);
}

TEST_F(ReferenceFile, PerturbedReferenceQoiIsCaught) {
  write(1.4782159 * 1.02);  // the stored QoI moved by 2%
  Checker chk(path, false);
  const bool ok = chk.check("table1/cylinder_100000/adarnet_qoi", 1.4782159,
                            kQoiTol);
  EXPECT_FALSE(ok);
  chk.operation(ok);
  EXPECT_EQ(chk.failed, 1);
  EXPECT_NEAR(chk.max_rel_err, 0.02 / 1.02, 1e-9);
}

TEST_F(ReferenceFile, NonFiniteOrMissingOutputIsCaught) {
  write(1.4782159);
  Checker chk(path, false);
  EXPECT_FALSE(chk.check("table1/cylinder_100000/adarnet_qoi", NAN, 1.0));
  EXPECT_FALSE(chk.check("table1/naca0012_25000/adarnet_qoi", 1.0, 1.0));
}

TEST(Reference, RecordModeFailsOnUnrepeatableOutputs) {
  Checker chk("", true);
  EXPECT_TRUE(chk.check("serving/x/umax", 2.0, 0.0));
  EXPECT_TRUE(chk.check("serving/x/umax", 2.0, 0.0));
  EXPECT_FALSE(chk.check("serving/x/umax", 2.1, 0.0));
  EXPECT_NE(chk.recorded_json().find("\"serving/x/umax\": 2"),
            std::string::npos);
}

TEST(SpeedProbe, CorrectionDividesOutTheBoxAndKeepsTheProgram) {
  const double op = 1.2;
  const double probe = 0.06;
  // The box 1.5x slower: operation and probe both slow down; the corrected
  // time does not move.
  EXPECT_DOUBLE_EQ(SpeedProbe::corrected(1.5 * op, 1.5 * probe),
                   SpeedProbe::corrected(op, probe));
  // The program 2x faster on the same box: the corrected time halves.
  EXPECT_DOUBLE_EQ(SpeedProbe::corrected(op / 2, probe),
                   SpeedProbe::corrected(op, probe) / 2);
  // At the nominal probe time the correction is the identity.
  EXPECT_DOUBLE_EQ(SpeedProbe::corrected(op, kProbeNominalS), op);
}

TEST(SpeedProbe, RunsAFixedAmountOfWork) {
  SpeedProbe a, b;
  EXPECT_GT(a.run(), 0.0);
  b.run();
  EXPECT_EQ(a.checksum(), b.checksum());
  EXPECT_TRUE(std::isfinite(a.checksum()));
}

}  // namespace
}  // namespace perfbench
