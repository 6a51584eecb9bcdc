// Per-shape GEMM autotuner (DESIGN.md §14).
//
// sgemm resolves its blocking schedule (TuneParams) through a small
// process-wide registry keyed by (m, n, k) *shape class* — each dimension
// bucketed to the next power of two, clamped to [16, 4096] — so one tuned
// entry covers every shape that blocks the same way. Entries come from a
// one-shot benchmark sweep (tune_shape) that candidates over tile sizes,
// unroll and prefetch distance, and winners persist to an on-disk JSON
// cache keyed by ISA + cache topology so later processes skip the sweep.
// Untuned shapes fall back to the historical defaults, so cold-start
// behavior is unchanged.
//
// Cache durability discipline matches the checkpoint writer
// (nn/serialize.cpp): the file is written to a pid-suffixed temp name and
// atomically renamed into place, so concurrent first-run processes racing
// to publish their sweep cannot tear the file — last rename wins and every
// intermediate state is a complete document. A cache that fails to parse,
// or was produced by a different library version / ISA tier / cache
// hierarchy, is ignored wholesale (defaults apply) and counted on
// nn.gemm.tune.cache_error, whether the lazy first use or load_cache read
// it.
#pragma once

#include <string>

#include "nn/gemm.hpp"

namespace adarnet::nn::tuning {

/// Canonical shape-class key, e.g. shape_key(70, 260, 144) == "m128n512k256"
/// (next power of two per dimension, clamped to [16, 4096]).
std::string shape_key(int m, int n, int k);

/// The hardware fingerprint the on-disk cache is keyed by. `isa` is the
/// microkernel tier sgemm dispatches to, from the same CPU probe
/// (gemm_isa_tier(): 0 portable, 1 AVX2+FMA, 2 AVX-512F), because a
/// schedule tuned for one kernel says little about another; the cache
/// sizes are sysconf-reported KiB (0 where the kernel does not report
/// them — matched literally, so "unknown" only equals "unknown").
struct HardwareKey {
  int isa = 0;
  int l1d_kb = 0;
  int l2_kb = 0;
};
HardwareKey hardware_key();

/// Clamps params to the legal grid: mc to a positive multiple of 6, nc to
/// a positive multiple of 16, kc >= 4, ku to {1, 2, 4}, pf to [0, 64].
TuneParams sanitize(TuneParams p);

/// Schedule for this shape: thread-local override if one is active,
/// else the tuned entry for the shape class, else defaults. First use
/// lazily loads the on-disk cache (honouring ADARNET_TUNE_CACHE and
/// ADARNET_TUNE=0).
TuneParams params_for(int m, int n, int k);

/// params_for + publishes the chosen tiles as nn.gemm.tile.{mc,kc,nc,ku,pf}
/// gauges, so traces and BENCH JSON record what actually ran. Called by
/// sgemm on its hot path.
TuneParams resolve(int m, int n, int k);

/// Forces `p` (sanitized) for every sgemm on this thread while in scope —
/// how the sweep and the correctness tests pin a schedule. Nests.
class ScopedOverride {
 public:
  explicit ScopedOverride(TuneParams p);
  ~ScopedOverride();
  ScopedOverride(const ScopedOverride&) = delete;
  ScopedOverride& operator=(const ScopedOverride&) = delete;

 private:
  TuneParams prev_;
  bool had_prev_;
};

/// Sweep cost model: each candidate is timed over enough calls to reach
/// ~flops_budget model FLOPs (at least one call), best-of-`passes`.
/// Repetition counts derive from the analytic flop model only — never from
/// measured time — so the sgemm call count (and with it the gated
/// roofline/totals in BENCH_kernels.json) is identical on every machine.
struct SweepOptions {
  double flops_budget = 2e7;
  int passes = 2;
  /// A non-default winner must beat the default schedule by this factor,
  /// else the default is kept (hysteresis against noise-sized wins).
  double min_gain = 1.02;
};

struct SweepResult {
  TuneParams best;              ///< installed winner (post-hysteresis)
  double best_gflops = 0.0;     ///< winner's best-of-passes throughput
  double default_gflops = 0.0;  ///< default schedule's, same budget
  int candidates = 0;           ///< schedules measured (after dedup)
};

/// Benchmarks candidate schedules for the shape class of (m, n, k) and
/// installs the winner in the in-memory registry (persist with
/// save_cache). Deterministic work: candidate set and per-candidate call
/// counts depend only on the shape and options.
SweepResult tune_shape(int m, int n, int k, const SweepOptions& opt = {});

/// Cache file location: $ADARNET_TUNE_CACHE if set, else
/// $XDG_CACHE_HOME/adarnet/tuning.json, else ~/.cache/adarnet/tuning.json,
/// else ./adarnet_tuning.json.
std::string cache_path();

/// Replaces the registry with the entries of a cache file. Returns false
/// (registry left empty, error filled, nn.gemm.tune.cache_error counted)
/// on unreadable/corrupt files or a version/hardware-key mismatch; the
/// process then runs on defaults.
bool load_cache(const std::string& path, std::string* error = nullptr);

/// Atomically persists the registry (temp + rename; parent directories are
/// created as needed).
bool save_cache(const std::string& path, std::string* error = nullptr);

/// Installs one entry directly (sanitized), bypassing the sweep — test
/// seam and cache-load plumbing.
void set_params(int m, int n, int k, TuneParams p);

/// Number of tuned shape classes currently registered.
int table_size();

/// Clears the registry and marks the lazy cache load as done, giving tests
/// a hermetic starting point regardless of environment.
void reset();

}  // namespace adarnet::nn::tuning
