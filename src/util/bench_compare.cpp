#include "util/bench_compare.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace adarnet::util::bench_compare {

namespace {

// Minimal recursive-descent JSON reader over the subset bench/common.hpp
// emits. Numeric leaves are recorded at their '/'-joined path; everything
// else is parsed (so errors are caught) and dropped.
class Flattener {
 public:
  Flattener(const std::string& text, std::map<std::string, double>& out)
      : s_(text), out_(out) {}

  bool run(std::string* error) {
    skip_ws();
    if (!parse_value("")) {
      if (error != nullptr) *error = error_;
      return false;
    }
    skip_ws();
    if (pos_ != s_.size()) {
      if (error != nullptr) *error = at("trailing content");
      return false;
    }
    return true;
  }

 private:
  [[nodiscard]] std::string at(const std::string& what) const {
    return what + " at offset " + std::to_string(pos_);
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) {
      ++pos_;
    }
  }

  bool fail(const std::string& what) {
    if (error_.empty()) error_ = at(what);
    return false;
  }

  [[nodiscard]] char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

  bool consume(char c) {
    if (peek() != c) return fail(std::string("expected '") + c + "'");
    ++pos_;
    return true;
  }

  static std::string join(const std::string& path, const std::string& key) {
    return path.empty() ? key : path + "/" + key;
  }

  bool parse_value(const std::string& path) {
    skip_ws();
    const char c = peek();
    if (c == '{') return parse_object(path);
    if (c == '[') return parse_array(path);
    if (c == '"') {
      std::string ignored;
      return parse_string(ignored);
    }
    if (c == 't') return parse_literal("true");
    if (c == 'f') return parse_literal("false");
    if (c == 'n') return parse_literal("null");
    return parse_number(path);
  }

  bool parse_object(const std::string& path) {
    if (!consume('{')) return false;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      std::string key;
      if (!parse_string(key)) return false;
      skip_ws();
      if (!consume(':')) return false;
      if (!parse_value(join(path, key))) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      return consume('}');
    }
  }

  bool parse_array(const std::string& path) {
    if (!consume('[')) return false;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return true;
    }
    for (std::size_t index = 0;; ++index) {
      if (!parse_value(join(path, std::to_string(index)))) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      return consume(']');
    }
  }

  bool parse_string(std::string& out) {
    if (!consume('"')) return false;
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= s_.size()) return fail("unterminated escape");
        const char e = s_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u':
            // The writers never emit \u outside of control characters;
            // decode to '?' rather than carrying a UTF-16 decoder.
            if (pos_ + 4 > s_.size()) return fail("short \\u escape");
            pos_ += 4;
            out += '?';
            break;
          default: return fail("bad escape");
        }
      } else {
        out += c;
      }
    }
    return fail("unterminated string");
  }

  bool parse_literal(const char* lit) {
    const std::size_t n = std::string(lit).size();
    if (s_.compare(pos_, n, lit) != 0) return fail("bad literal");
    pos_ += n;
    return true;
  }

  bool parse_number(const std::string& path) {
    const char* begin = s_.c_str() + pos_;
    char* end = nullptr;
    const double v = std::strtod(begin, &end);
    if (end == begin) return fail("expected a value");
    pos_ += static_cast<std::size_t>(end - begin);
    if (!path.empty()) out_[path] = v;
    return true;
  }

  const std::string& s_;
  std::map<std::string, double>& out_;
  std::size_t pos_ = 0;
  std::string error_;
};

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool contains(const std::string& s, const std::string& needle) {
  return s.find(needle) != std::string::npos;
}

// Relative change of `cur` vs `base`; exact zero baselines compare by
// presence of any current value.
double rel_change(double base, double cur) {
  if (base == 0.0) return cur == 0.0 ? 0.0 : (cur > 0.0 ? 1.0 : -1.0);
  return (cur - base) / std::abs(base);
}

}  // namespace

bool flatten_json(const std::string& text, std::map<std::string, double>& out,
                  std::string* error) {
  return Flattener(text, out).run(error);
}

bool flatten_json_file(const std::string& path,
                       std::map<std::string, double>& out,
                       std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return flatten_json(buf.str(), out, error);
}

KeyClass classify(const std::string& key) {
  // The metrics snapshot is run-scoped bookkeeping, never a gate target —
  // classify it first so e.g. metrics/gauges/nn.gemm.gflops_per_s (a raw
  // registry dump of the same quantity) does not double-gate.
  if (contains(key, "metrics/")) return KeyClass::kIgnored;
  // Acceptance bits (accept/...) are 0/1 verdicts a bench computes from
  // its own measurements with the machine-dependence already folded in
  // (slack, ratios of same-run timings): they gate exactly, like the
  // analytic flop/byte counts, even under --portable-only.
  if (contains(key, "accept/")) return KeyClass::kPortable;
  // Per-request attribution contract (DESIGN.md §15): the bench emits only
  // machine-independent values under serving.attribution/ (phase count,
  // gate tolerances, 0/1 verdicts), so they gate exactly; its raw
  // millisecond diagnostics live under attribution_ms/ (ignored below).
  if (contains(key, "serving.attribution/")) return KeyClass::kPortable;
  if (ends_with(key, "gflops_per_s") || contains(key, "cells_per_s") ||
      contains(key, "speedup") || ends_with(key, "qps")) {
    return KeyClass::kThroughput;
  }
  if (ends_with(key, "/flops") || ends_with(key, "/bytes") ||
      ends_with(key, "arithmetic_intensity")) {
    return KeyClass::kPortable;
  }
  return KeyClass::kIgnored;
}

Report compare(const std::map<std::string, double>& baseline,
               const std::map<std::string, double>& current,
               const Options& opt) {
  Report report;
  // Portable values are exact models; the slack only forgives the %.9g
  // round-trip through the JSON writer.
  constexpr double kPortableSlack = 1e-6;

  for (const auto& [key, base] : baseline) {
    const KeyClass cls = classify(key);
    if (cls == KeyClass::kIgnored) continue;
    if (cls == KeyClass::kThroughput && opt.portable_only) continue;
    const auto it = current.find(key);
    if (it == current.end()) {
      report.missing.push_back(key);
      report.pass = false;
      continue;
    }
    Delta d;
    d.key = key;
    d.baseline = base;
    d.current = it->second;
    d.rel_change = rel_change(base, it->second);
    if (cls == KeyClass::kThroughput) {
      d.regression = d.rel_change < -opt.tolerance;
    } else {
      d.regression = std::abs(d.rel_change) > kPortableSlack;
    }
    if (d.regression) report.pass = false;
    report.deltas.push_back(d);
  }
  for (const auto& [key, value] : current) {
    (void)value;
    if (classify(key) == KeyClass::kIgnored) continue;
    if (baseline.find(key) == baseline.end()) report.added.push_back(key);
  }
  return report;
}

std::string Report::to_string() const {
  std::string out;
  char line[256];
  int regressions = 0;
  for (const Delta& d : deltas) {
    if (!d.regression) continue;
    ++regressions;
    std::snprintf(line, sizeof(line),
                  "REGRESSION %s: %.6g -> %.6g (%+.1f%%)\n", d.key.c_str(),
                  d.baseline, d.current, 100.0 * d.rel_change);
    out += line;
  }
  for (const std::string& key : missing) {
    out += "MISSING " + key + ": in baseline but not in current report\n";
  }
  for (const std::string& key : added) {
    out += "NEW " + key + ": not in baseline (refresh bench/baselines)\n";
  }
  std::snprintf(line, sizeof(line),
                "%s: %zu keys compared, %d regressions, %zu missing\n",
                pass ? "PASS" : "FAIL", deltas.size(), regressions,
                missing.size());
  out += line;
  return out;
}

}  // namespace adarnet::util::bench_compare
