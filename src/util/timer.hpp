// Wall-clock stopwatch. Time that feeds phase attribution, ".ns" counters
// or trace events is measured by trace::Span (util/trace.hpp) instead.
#pragma once

#include <chrono>

namespace adarnet::util {

/// Monotonic wall-clock stopwatch.
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  /// Restarts the stopwatch.
  void reset() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last reset().
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Minutes elapsed (the unit the paper reports TTC in).
  [[nodiscard]] double minutes() const { return seconds() / 60.0; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace adarnet::util
