// Stored-reference checks of the benchmark's outputs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>

#include "bench_util.hpp"
#include "util/bench_compare.hpp"

namespace perfbench {

/// Output tolerances: a table1 QoI (Cf/Cd) and a served umax/umean may
/// move by this share of the stored reference before the operation fails;
/// the ROADMAP's early-exit guard allows QoIs to move 1%. Refinement maps
/// must match exactly.
inline constexpr double kQoiTol = 0.01;
inline constexpr double kServeTol = 0.01;

/// Operation bookkeeping plus the reference: checks against it, or (in
/// record mode) collects this run's outputs as the new reference.
class Checker {
 public:
  Checker(const std::string& ref_path, bool record) : record_(record) {
    if (record_) return;
    std::string error;
    if (!adarnet::util::bench_compare::flatten_json_file(ref_path, ref_, &error)) {
      throw std::runtime_error("cannot read reference " + ref_path + ": " +
                               error);
    }
  }

  long long attempted = 0;
  long long failed = 0;
  double max_rel_err = 0.0;  ///< over the tolerance-checked values

  /// One operation; `ok` is its own verdict (exceptions, finiteness,
  /// ladder rung, ...) before the reference comparison.
  void operation(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }

  /// Compares `value` with the reference `key` within `tol` (relative);
  /// records it in record mode. Returns false on a miss.
  bool check(const std::string& key, double value, double tol) {
    if (record_) {
      auto [it, fresh] = recorded_.emplace(key, value);
      if (!fresh) {
        const double err = relative_error(value, it->second);
        max_rel_err = std::max(max_rel_err, err);
        return err <= tol;
      }
      return std::isfinite(value);
    }
    auto it = ref_.find(key);
    if (it == ref_.end()) {
      std::fprintf(stderr, "perfbench: no reference for %s\n", key.c_str());
      return false;
    }
    const double err = relative_error(value, it->second);
    max_rel_err = std::max(max_rel_err, err);
    if (err > tol) {
      std::fprintf(stderr, "perfbench: %s = %.17g misses reference %.17g\n",
                   key.c_str(), value, it->second);
      return false;
    }
    return true;
  }

  /// The recorded reference as one flat JSON object keyed by the
  /// "workload/case/value" names that flatten_json_file reads back.
  [[nodiscard]] std::string recorded_json() const {
    std::string out = "{";
    bool first = true;
    for (const auto& [key, value] : recorded_) {
      char buf[48];
      std::snprintf(buf, sizeof(buf), "%.17g", value);
      out += (first ? "\n  \"" : ",\n  \"") + key + "\": " + buf;
      first = false;
    }
    return out + "\n}\n";
  }

 private:
  bool record_;
  std::map<std::string, double> ref_;
  std::map<std::string, double> recorded_;
};

}  // namespace perfbench
