// Speed probe: a fixed reference kernel timed right after each timed
// operation, so the benchmark can report the operation's time at the box's
// nominal speed.
//
// The 4-vCPU Xeon box the benchmark was sized on is a share of a busy host:
// the same cylinder answer took 0.6 s in one minute and 1.2 s a few minutes
// later, and the per-run median drifts with it, which no amount of
// repetition inside a 30 s run removes. The probe is owned by the benchmark
// and never calls the program: red-black Gauss-Seidel sweeps over small
// patches with a ghost-row copy between neighbours, the access pattern of
// the solver's smoothers and exchanges, on a 250 KB working set. Its time
// moves with the box's speed, not with the program, so
// op_seconds * kProbeNominalS / probe_seconds keeps a change in the program
// at full size and divides most of the box's drift out (perfbench/
// workloads.json records how much).
#pragma once

#include <chrono>
#include <cstddef>
#include <vector>

namespace perfbench {

/// The probe's median time on the 4-vCPU Xeon box the benchmark was sized
/// on; corrected times read as seconds on that box at that speed.
inline constexpr double kProbeNominalS = 0.050;

class SpeedProbe {
 public:
  SpeedProbe() : cells_(kPatches * kSide * kSide, 0.5) {}

  /// Runs the kernel once; returns its wall seconds.
  double run() {
    const auto t0 = std::chrono::steady_clock::now();
    for (int sweep = 0; sweep < kSweeps; ++sweep) {
      for (int q = 0; q < kPatches; ++q) {
        double* a = patch(q);
        const double* next = patch((q + 1) % kPatches);
        for (int j = 0; j < kSide; ++j) a[j] = next[(kSide - 2) * kSide + j];
        for (int colour = 0; colour < 2; ++colour) {
          for (int i = 1; i < kSide - 1; ++i) {
            for (int j = 1 + ((i + colour) & 1); j < kSide - 1; j += 2) {
              const int k = i * kSide + j;
              a[k] = 0.25 * (a[k - 1] + a[k + 1] + a[k - kSide] +
                             a[k + kSide]) +
                     1e-4;
            }
          }
        }
      }
    }
    checksum_ += cells_[cells_.size() / 2];
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  }

  /// `op_s` at the nominal speed, given the probe time measured next to it.
  [[nodiscard]] static double corrected(double op_s, double probe_s) {
    return probe_s > 0.0 ? op_s * kProbeNominalS / probe_s : op_s;
  }

  /// Keeps the kernel's stores observable.
  [[nodiscard]] double checksum() const { return checksum_; }

 private:
  static constexpr int kPatches = 96;
  static constexpr int kSide = 18;
  static constexpr int kSweeps = 1100;

  double* patch(int q) {
    return cells_.data() + static_cast<std::size_t>(q) * kSide * kSide;
  }

  std::vector<double> cells_;
  double checksum_ = 0.0;
};

}  // namespace perfbench
