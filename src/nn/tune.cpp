#include "nn/tune.hpp"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/bench_compare.hpp"
#include "util/metrics.hpp"
#include "util/timer.hpp"

namespace adarnet::nn::tuning {

namespace {

// 2: ISA tier 2 is AVX-512F. Version-1 files used it for AVX2+FMA+F16C,
// whose schedules were tuned for another kernel.
constexpr int kCacheVersion = 2;

struct Entry {
  TuneParams params;
  double gflops = 0.0;  // sweep-measured throughput, provenance only
};

std::mutex g_mu;
std::unordered_map<std::string, Entry> g_table;
bool g_loaded = false;

thread_local bool t_has_override = false;
thread_local TuneParams t_override;

int next_pow2_bucket(int v) {
  int b = 16;
  while (b < v && b < 4096) b <<= 1;
  return b;
}

bool env_tuning_disabled() {
  const char* v = std::getenv("ADARNET_TUNE");
  return v != nullptr &&
         (std::strcmp(v, "0") == 0 || std::strcmp(v, "off") == 0);
}

// Lazy first-use cache load; callers hold g_mu.
void ensure_loaded_locked();

bool load_cache_locked(const std::string& path, std::string* error);

// Deterministic pseudo-random fill for the sweep operands: cheap, fixed
// pattern, nonzero mean-free values.
void fill_pattern(std::vector<float>& v, int salt) {
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<float>(static_cast<int>((i * 37 + salt * 101) % 97) -
                              48) /
           97.0f;
  }
}

std::string params_fingerprint(const TuneParams& p) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%d.%d.%d.%d.%d", p.mc, p.kc, p.nc, p.ku,
                p.pf);
  return buf;
}

// The schedule as the blocked loops actually experience it for one shape:
// tiles clamped to the (rounded-up) problem extents. Candidates that clamp
// to the same effective schedule are duplicates and measured once.
TuneParams effective_for_shape(TuneParams p, int m, int n, int k) {
  p = sanitize(p);
  p.mc = std::min(p.mc, (m + 5) / 6 * 6);
  p.kc = std::min(p.kc, std::max(k, 4));
  p.nc = std::min(p.nc, (n + 15) / 16 * 16);
  return sanitize(p);
}

}  // namespace

std::string shape_key(int m, int n, int k) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "m%dn%dk%d", next_pow2_bucket(m),
                next_pow2_bucket(n), next_pow2_bucket(k));
  return buf;
}

HardwareKey hardware_key() {
  HardwareKey key;
  key.isa = gemm_isa_tier();
#if defined(_SC_LEVEL1_DCACHE_SIZE)
  const long l1 = ::sysconf(_SC_LEVEL1_DCACHE_SIZE);
  if (l1 > 0) key.l1d_kb = static_cast<int>(l1 / 1024);
#endif
#if defined(_SC_LEVEL2_CACHE_SIZE)
  const long l2 = ::sysconf(_SC_LEVEL2_CACHE_SIZE);
  if (l2 > 0) key.l2_kb = static_cast<int>(l2 / 1024);
#endif
  return key;
}

TuneParams sanitize(TuneParams p) {
  p.mc = std::clamp(p.mc / 6 * 6, 6, 6 * 4096);
  p.kc = std::clamp(p.kc, 4, 1 << 16);
  p.nc = std::clamp(p.nc / 16 * 16, 16, 16 * 4096);
  p.ku = p.ku >= 4 ? 4 : (p.ku >= 2 ? 2 : 1);
  p.pf = std::clamp(p.pf, 0, 64);
  return p;
}

TuneParams params_for(int m, int n, int k) {
  if (t_has_override) return t_override;
  std::lock_guard<std::mutex> lock(g_mu);
  ensure_loaded_locked();
  if (g_table.empty()) return TuneParams{};
  const auto it = g_table.find(shape_key(m, n, k));
  return it != g_table.end() ? it->second.params : TuneParams{};
}

TuneParams resolve(int m, int n, int k) {
  const TuneParams p = params_for(m, n, k);
  // Record what actually ran; cached refs, relaxed stores — noise next to
  // the GEMM this call fronts.
  struct TileGauges {
    util::metrics::Gauge& mc = util::metrics::gauge("nn.gemm.tile.mc");
    util::metrics::Gauge& kc = util::metrics::gauge("nn.gemm.tile.kc");
    util::metrics::Gauge& nc = util::metrics::gauge("nn.gemm.tile.nc");
    util::metrics::Gauge& ku = util::metrics::gauge("nn.gemm.tile.ku");
    util::metrics::Gauge& pf = util::metrics::gauge("nn.gemm.tile.pf");
  };
  static TileGauges gauges;
  gauges.mc.set(p.mc);
  gauges.kc.set(p.kc);
  gauges.nc.set(p.nc);
  gauges.ku.set(p.ku);
  gauges.pf.set(p.pf);
  return p;
}

ScopedOverride::ScopedOverride(TuneParams p)
    : prev_(t_override), had_prev_(t_has_override) {
  t_override = sanitize(p);
  t_has_override = true;
}

ScopedOverride::~ScopedOverride() {
  t_override = prev_;
  t_has_override = had_prev_;
}

void set_params(int m, int n, int k, TuneParams p) {
  std::lock_guard<std::mutex> lock(g_mu);
  ensure_loaded_locked();
  g_table[shape_key(m, n, k)] = Entry{sanitize(p), 0.0};
}

int table_size() {
  std::lock_guard<std::mutex> lock(g_mu);
  return static_cast<int>(g_table.size());
}

void reset() {
  std::lock_guard<std::mutex> lock(g_mu);
  g_table.clear();
  g_loaded = true;
}

SweepResult tune_shape(int m, int n, int k, const SweepOptions& opt) {
  SweepResult result;
  if (m <= 0 || n <= 0 || k <= 0) return result;

  std::vector<float> a(static_cast<std::size_t>(m) * k);
  std::vector<float> b(static_cast<std::size_t>(k) * n);
  std::vector<float> c(static_cast<std::size_t>(m) * n, 0.0f);
  fill_pattern(a, 1);
  fill_pattern(b, 2);

  const double flops1 = static_cast<double>(sgemm_flops(m, n, k));
  const double raw_reps = opt.flops_budget / std::max(flops1, 1.0);
  const int reps =
      raw_reps < 1.0
          ? 1
          : static_cast<int>(std::min(raw_reps, 1e6));
  const int passes = std::max(1, opt.passes);

  // Best-of-passes timing of one pinned schedule. Every call count here is
  // a function of (shape, options) only — see SweepOptions.
  const auto measure = [&](const TuneParams& cand) {
    const ScopedOverride pin(cand);
    nn::sgemm(Trans::kNo, Trans::kNo, m, n, k, 1.0f, a.data(), k, b.data(),
              n, 0.0f, c.data(), n);  // warm up arena + caches
    double best_s = 0.0;
    for (int pass = 0; pass < passes; ++pass) {
      util::WallTimer timer;
      for (int r = 0; r < reps; ++r) {
        nn::sgemm(Trans::kNo, Trans::kNo, m, n, k, 1.0f, a.data(), k,
                  b.data(), n, 0.0f, c.data(), n);
      }
      const double s = timer.seconds();
      if (pass == 0 || s < best_s) best_s = s;
    }
    return best_s > 0.0 ? flops1 * reps / best_s * 1e-9 : 0.0;
  };

  const TuneParams defaults{};
  const TuneParams eff_default = effective_for_shape(defaults, m, n, k);
  std::map<std::string, double> seen;  // effective fingerprint -> GF/s

  TuneParams best = defaults;
  double best_gflops = 0.0;
  const auto consider = [&](TuneParams cand) {
    const TuneParams eff = effective_for_shape(cand, m, n, k);
    const std::string fp = params_fingerprint(eff);
    if (seen.count(fp) != 0) return;
    const double gf = measure(eff);
    seen.emplace(fp, gf);
    ++result.candidates;
    if (gf > best_gflops) {
      best_gflops = gf;
      best = eff;
    }
  };

  // Phase A: microkernel schedule (unroll x prefetch) at default blocking.
  for (const int ku : {1, 2, 4}) {
    for (const int pf : {0, 4, 8}) {
      TuneParams cand = defaults;
      cand.ku = ku;
      cand.pf = pf;
      consider(cand);
    }
  }
  const int best_ku = best.ku;
  const int best_pf = best.pf;
  // Phase B: blocking grid at the winning schedule. The candidate *count*
  // stays machine-independent: whichever (ku, pf) won, the default-blocking
  // point was already measured in phase A, and all other dedup collisions
  // depend only on the shape clamp.
  for (const int mc : {36, 72, 144}) {
    for (const int kc : {64, 128, 256, 512}) {
      for (const int nc : {512, 1024, 2048, 4096}) {
        TuneParams cand;
        cand.mc = mc;
        cand.kc = kc;
        cand.nc = nc;
        cand.ku = best_ku;
        cand.pf = best_pf;
        consider(cand);
      }
    }
  }

  result.default_gflops = seen.at(params_fingerprint(eff_default));
  // Hysteresis: a winner inside the noise band is not worth diverging from
  // the known-good defaults (and keeps fp32 summation grouping stable).
  if (!(best == eff_default) &&
      best_gflops < result.default_gflops * opt.min_gain) {
    best = eff_default;
    best_gflops = result.default_gflops;
  }
  result.best = best;
  result.best_gflops = best_gflops;

  {
    std::lock_guard<std::mutex> lock(g_mu);
    ensure_loaded_locked();
    g_table[shape_key(m, n, k)] = Entry{best, best_gflops};
  }
  return result;
}

std::string cache_path() {
  if (const char* env = std::getenv("ADARNET_TUNE_CACHE")) {
    if (env[0] != '\0') return env;
  }
  if (const char* xdg = std::getenv("XDG_CACHE_HOME")) {
    if (xdg[0] != '\0') return std::string(xdg) + "/adarnet/tuning.json";
  }
  if (const char* home = std::getenv("HOME")) {
    if (home[0] != '\0') {
      return std::string(home) + "/.cache/adarnet/tuning.json";
    }
  }
  return "adarnet_tuning.json";
}

namespace {

void ensure_loaded_locked() {
  if (g_loaded) return;
  g_loaded = true;
  if (env_tuning_disabled()) return;
  const std::string path = cache_path();
  struct stat st{};
  if (::stat(path.c_str(), &st) != 0) return;  // no cache yet: defaults
  std::string error;
  if (!load_cache_locked(path, &error)) {
    std::fprintf(stderr, "[tune] ignoring cache %s: %s\n", path.c_str(),
                 error.c_str());
  }
}

// Replaces the registry with the cache at `path`. A file that cannot be
// used leaves it empty and is counted on nn.gemm.tune.cache_error.
bool load_cache_locked(const std::string& path, std::string* error) {
  g_table.clear();
  const auto reject = [error](const std::string& why) {
    util::metrics::counter("nn.gemm.tune.cache_error").add();
    if (error != nullptr) *error = why;
    return false;
  };
  std::map<std::string, double> flat;
  std::string parse_error;
  if (!util::bench_compare::flatten_json_file(path, flat, &parse_error)) {
    return reject(parse_error);
  }
  const auto field = [&flat](const char* name, double* out) {
    const auto it = flat.find(name);
    if (it == flat.end()) return false;
    *out = it->second;
    return true;
  };
  double version = 0.0;
  double isa = -1.0;
  double l1 = -1.0;
  double l2 = -1.0;
  if (!field("version", &version) || !field("isa", &isa) ||
      !field("l1d_kb", &l1) || !field("l2_kb", &l2)) {
    return reject("missing header fields");
  }
  if (static_cast<int>(version) != kCacheVersion) {
    return reject("version mismatch");
  }
  const HardwareKey hw = hardware_key();
  if (static_cast<int>(isa) != hw.isa || static_cast<int>(l1) != hw.l1d_kb ||
      static_cast<int>(l2) != hw.l2_kb) {
    return reject("hardware key mismatch");
  }
  // shapes/<key>/<field> leaves; an entry missing any schedule field is
  // dropped (robustness to truncated or hand-edited files).
  std::map<std::string, std::map<std::string, double>> shapes;
  for (const auto& [key, value] : flat) {
    if (key.rfind("shapes/", 0) != 0) continue;
    const std::size_t slash = key.find('/', 7);
    if (slash == std::string::npos) continue;
    shapes[key.substr(7, slash - 7)][key.substr(slash + 1)] = value;
  }
  for (const auto& [shape, fields] : shapes) {
    const char* needed[] = {"mc", "kc", "nc", "ku", "pf"};
    bool complete = true;
    for (const char* f : needed) complete = complete && fields.count(f) != 0;
    if (!complete) continue;
    TuneParams p;
    p.mc = static_cast<int>(fields.at("mc"));
    p.kc = static_cast<int>(fields.at("kc"));
    p.nc = static_cast<int>(fields.at("nc"));
    p.ku = static_cast<int>(fields.at("ku"));
    p.pf = static_cast<int>(fields.at("pf"));
    Entry e{sanitize(p), 0.0};
    const auto gf = fields.find("gflops");
    if (gf != fields.end()) e.gflops = gf->second;
    g_table[shape] = e;
  }
  return true;
}

// mkdir -p for the parent directories of `path` (best effort; the write
// below surfaces any real failure).
void make_parent_dirs(const std::string& path) {
  for (std::size_t i = 1; i < path.size(); ++i) {
    if (path[i] != '/') continue;
    const std::string dir = path.substr(0, i);
    if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) return;
  }
}

}  // namespace

bool load_cache(const std::string& path, std::string* error) {
  std::lock_guard<std::mutex> lock(g_mu);
  g_loaded = true;  // explicit load supersedes the lazy one
  return load_cache_locked(path, error);
}

bool save_cache(const std::string& path, std::string* error) {
  std::lock_guard<std::mutex> lock(g_mu);
  const HardwareKey hw = hardware_key();
  std::string body;
  char line[192];
  std::snprintf(line, sizeof(line),
                "{\n  \"version\": %d,\n  \"isa\": %d,\n  \"l1d_kb\": %d,\n"
                "  \"l2_kb\": %d,\n  \"shapes\": {",
                kCacheVersion, hw.isa, hw.l1d_kb, hw.l2_kb);
  body += line;
  bool first = true;
  // Sorted for stable diffs of the artifact across runs.
  std::map<std::string, Entry> sorted(g_table.begin(), g_table.end());
  for (const auto& [shape, e] : sorted) {
    std::snprintf(line, sizeof(line),
                  "%s\n    \"%s\": {\"mc\": %d, \"kc\": %d, \"nc\": %d, "
                  "\"ku\": %d, \"pf\": %d, \"gflops\": %.9g}",
                  first ? "" : ",", shape.c_str(), e.params.mc, e.params.kc,
                  e.params.nc, e.params.ku, e.params.pf, e.gflops);
    body += line;
    first = false;
  }
  body += "\n  }\n}\n";

  make_parent_dirs(path);
  // Atomic publish, matching the checkpoint writer: unique temp name (so
  // racing first-run processes never share a partial file) then rename.
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      if (error != nullptr) *error = "cannot open " + tmp;
      return false;
    }
    out << body;
    out.flush();
    if (!out) {
      if (error != nullptr) *error = "short write to " + tmp;
      std::remove(tmp.c_str());
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    if (error != nullptr) *error = "rename to " + path + " failed";
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

const char* precision_name_impl(Precision p) {
  switch (p) {
    case Precision::kBf16: return "bf16";
    default: return "fp32";
  }
}

}  // namespace adarnet::nn::tuning

namespace adarnet::nn {

const char* precision_name(Precision p) {
  return tuning::precision_name_impl(p);
}

bool parse_precision(const char* s, Precision* out) {
  if (s == nullptr || out == nullptr) return false;
  if (std::strcmp(s, "fp32") == 0 || std::strcmp(s, "f32") == 0) {
    *out = Precision::kFp32;
    return true;
  }
  if (std::strcmp(s, "bf16") == 0 || std::strcmp(s, "bfloat16") == 0) {
    *out = Precision::kBf16;
    return true;
  }
  return false;
}

}  // namespace adarnet::nn
