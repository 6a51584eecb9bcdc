// Measurement helpers of the end-to-end benchmark, kept free of the
// library so the self-tests can check them in isolation: percentiles under
// the tail rule, the seeded open-loop schedule and its driver loop, and the
// relative-error check against stored references.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <vector>

namespace perfbench {

/// Median of `v` (mean of the two middle values for even sizes); 0 when
/// empty.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The highest percentile of a sample that still has at least ten samples
/// beyond it: the (n - 10)-th smallest value, the 100 * (n - 10) / n
/// percentile. A sample of fewer than 11 values has no such percentile;
/// `ok` is then false and no value is reported.
struct Tail {
  bool ok = false;
  double value = 0.0;       ///< the percentile's value
  double percentile = 0.0;  ///< in [0, 100)
  int n = 0;                ///< sample count
};

inline constexpr int kTailBeyond = 10;

inline Tail tail(std::vector<double> v) {
  Tail t;
  t.n = static_cast<int>(v.size());
  if (t.n < kTailBeyond + 1) return t;
  std::sort(v.begin(), v.end());
  const int rank = t.n - kTailBeyond;  // 1-based rank of the tail value
  t.ok = true;
  t.value = v[static_cast<std::size_t>(rank - 1)];
  t.percentile = 100.0 * rank / t.n;
  return t;
}

/// |value - ref| / |ref| (absolute difference when ref is 0); infinite for
/// a non-finite value, so a NaN output can never pass a tolerance check.
inline double relative_error(double value, double ref) {
  if (!std::isfinite(value)) return INFINITY;
  const double diff = std::abs(value - ref);
  return ref != 0.0 ? diff / std::abs(ref) : diff;
}

/// splitmix64: the benchmark's only source of randomness, fixed here so a
/// seed yields the same inputs under any standard library.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in (0, 1).
  double uniform() {
    return (static_cast<double>(next() >> 11) + 0.5) * 0x1.0p-53;
  }
  /// Uniform integer in [0, n).
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(uniform() * static_cast<double>(n));
  }

 private:
  std::uint64_t s_;
};

/// Fisher-Yates shuffle driven by `rng`.
template <typename T>
void shuffle(std::vector<T>& v, SplitMix& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.below(i)]);
  }
}

/// One scheduled request: when it is due (seconds from the schedule start)
/// and which entry of the request menu it sends.
struct Arrival {
  double due_s = 0.0;
  int type = 0;
};

/// A seeded open-loop schedule at `rate_per_s` over [0, seconds):
/// round(rate * seconds) Poisson arrivals, i.e. a Poisson process
/// conditioned on its count (sorted uniform arrival times), so every seed
/// offers the same load and only the timing varies. Request types are
/// drawn without replacement from repeated blocks of `block` (a multiset
/// of menu indices), so every seed sends the same mix.
inline std::vector<Arrival> make_schedule(std::uint64_t seed,
                                          double rate_per_s, double seconds,
                                          const std::vector<int>& block) {
  SplitMix rng(seed);
  const auto n = static_cast<std::size_t>(std::llround(rate_per_s * seconds));
  std::vector<Arrival> out(n);
  for (Arrival& a : out) a.due_s = rng.uniform() * seconds;
  std::sort(out.begin(), out.end(),
            [](const Arrival& a, const Arrival& b) { return a.due_s < b.due_s; });
  std::vector<int> bag;
  for (Arrival& a : out) {
    if (bag.empty()) {
      bag = block;
      shuffle(bag, rng);
    }
    a.type = bag.back();
    bag.pop_back();
  }
  return out;
}

/// What the open-loop driver observed for one request, in seconds from the
/// schedule start.
struct Sent {
  double due_s = 0.0;
  double sent_s = 0.0;  ///< when the request went out
  double lag_s = 0.0;   ///< generator lateness: sent - max(due, slot free)
};

/// Open-loop driver: sends every arrival at its due time, whatever the
/// state of earlier requests, keeping at most `max_in_flight` requests
/// open. `now()` reads the schedule clock; `wait(deadline)` services
/// in-flight requests until the deadline or until one completes; `send(i)`
/// issues arrival i; `in_flight()` counts open requests. Latency is then
/// charged from `due_s`, so a stall of the generator (or a full connection
/// budget) is charged to every request queued behind it.
inline std::vector<Sent> drive_open_loop(
    const std::vector<Arrival>& schedule, int max_in_flight,
    const std::function<double()>& now,
    const std::function<void(double)>& wait,
    const std::function<void(std::size_t)>& send,
    const std::function<int()>& in_flight) {
  std::vector<Sent> sent(schedule.size());
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const double due = schedule[i].due_s;
    while (now() < due) wait(due);
    double slot_free = due;
    while (in_flight() >= max_in_flight) {
      wait(INFINITY);
      slot_free = std::max(due, now());
    }
    const double t = now();
    send(i);
    sent[i] = {due, t, std::max(0.0, t - slot_free)};
  }
  return sent;
}

}  // namespace perfbench
