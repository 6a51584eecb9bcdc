// The benchmark's frozen inputs: the case table, the model file, the LR
// field files, and their loaders.
//
// The inputs are data, produced once by make_inputs and committed under
// perfbench/data. The benchmark only loads them; it never trains and never
// regenerates a field with the code under test, so a solver change cannot
// silently change the refinement maps the `infer` workload measures.
#pragma once

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "adarnet/model.hpp"
#include "data/cases.hpp"
#include "nn/serialize.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace adarnet;

/// One of the paper's Table 1 configurations.
struct CaseId {
  const char* id;    ///< file-name-safe key, e.g. "naca0012_25000"
  const char* kind;  ///< channel | flat_plate | cylinder | naca0012 | naca1412
  double re;
};

/// The seven Table 1 configurations (paper Section 5), in the fixed order
/// the `infer` workload interleaves them.
inline const std::vector<CaseId>& table1_cases() {
  static const std::vector<CaseId> cases = {
      {"channel_2500", "channel", 2.5e3},
      {"channel_15000", "channel", 1.5e4},
      {"flat_plate_250000", "flat_plate", 2.5e5},
      {"flat_plate_1350000", "flat_plate", 1.35e6},
      {"cylinder_100000", "cylinder", 1e5},
      {"naca0012_25000", "naca0012", 2.5e4},
      {"naca1412_25000", "naca1412", 2.5e4},
  };
  return cases;
}

/// The case at the paper presets divided by `shrink`.
inline mesh::CaseSpec make_spec(const CaseId& c, int shrink) {
  const auto wall = data::shrink(data::paper_wall_preset(), shrink);
  const auto body = data::shrink(data::paper_body_preset(), shrink);
  const std::string kind = c.kind;
  if (kind == "channel") return data::channel_case(c.re, wall);
  if (kind == "flat_plate") return data::flat_plate_case(c.re, wall);
  if (kind == "cylinder") return data::cylinder_case(c.re, body);
  if (kind == "naca0012") return data::naca0012_case(c.re, body);
  if (kind == "naca1412") return data::naca1412_case(c.re, body);
  throw std::invalid_argument("unknown case kind " + kind);
}

/// Grid divisor of the committed model (16x16-cell paper patches / 8).
inline constexpr int kModelShrink = 8;
/// Grid divisor of the `infer` workload's fields.
inline constexpr int kInferShrink = 2;

inline std::string model_weights_path(const std::string& dir) {
  return dir + "/model_s8.adr";
}
inline std::string model_norm_path(const std::string& dir) {
  return dir + "/model_s8.norm";
}
inline std::string field_path(const std::string& dir, const CaseId& c) {
  return dir + "/lr_s2_" + c.id + ".f32";
}

/// Writes NormStats as two text lines ("lo" and "hi", 17 significant
/// digits, so the doubles round-trip exactly).
inline bool save_norm(const data::NormStats& s, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (int row = 0; row < 2; ++row) {
    const auto& v = row == 0 ? s.lo : s.hi;
    std::fprintf(f, "%s %.17g %.17g %.17g %.17g\n", row == 0 ? "lo" : "hi",
                 v[0], v[1], v[2], v[3]);
  }
  return std::fclose(f) == 0;
}

inline bool load_norm(data::NormStats& s, const std::string& path) {
  std::ifstream in(path);
  std::string tag_lo, tag_hi;
  in >> tag_lo >> s.lo[0] >> s.lo[1] >> s.lo[2] >> s.lo[3];
  in >> tag_hi >> s.hi[0] >> s.hi[1] >> s.hi[2] >> s.hi[3];
  return static_cast<bool>(in) && tag_lo == "lo" && tag_hi == "hi";
}

/// A model with the committed weights and normalisation, built for
/// `shrink`. The network is fully convolutional; only the scorer's pooling
/// window follows the patch size, so the shrink-8 weights load into any
/// patch size. Throws when the files are missing or do not match.
inline std::unique_ptr<core::AdarNet> load_model(const std::string& dir,
                                                 int shrink) {
  const auto preset = data::shrink(data::paper_wall_preset(), shrink);
  core::AdarNetConfig cfg;
  cfg.ph = preset.ph;
  cfg.pw = preset.pw;
  util::Rng rng(2023);
  auto model = std::make_unique<core::AdarNet>(cfg, rng);
  if (!nn::load_parameters(model->parameters(), model_weights_path(dir))) {
    throw std::runtime_error("cannot load " + model_weights_path(dir));
  }
  if (!load_norm(model->stats(), model_norm_path(dir))) {
    throw std::runtime_error("cannot load " + model_norm_path(dir));
  }
  return model;
}

// LR field file: "ADRF" | u32 ny | u32 nx | float32 U, V, p, nuTilda, each
// ny * nx row-major (little-endian host order, like nn/serialize).
inline bool save_field(const field::FlowField& f, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  const std::uint32_t dims[2] = {static_cast<std::uint32_t>(f.ny()),
                                 static_cast<std::uint32_t>(f.nx())};
  out.write("ADRF", 4);
  out.write(reinterpret_cast<const char*>(dims), sizeof(dims));
  for (int c = 0; c < field::kNumFlowVars; ++c) {
    const auto& g = f.channel(c);
    std::vector<float> buf(g.data(), g.data() + g.size());
    out.write(reinterpret_cast<const char*>(buf.data()),
              static_cast<std::streamsize>(buf.size() * sizeof(float)));
  }
  return static_cast<bool>(out);
}

inline field::FlowField load_field(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  char magic[4] = {};
  std::uint32_t dims[2] = {0, 0};
  in.read(magic, 4);
  in.read(reinterpret_cast<char*>(dims), sizeof(dims));
  if (!in || std::string(magic, 4) != "ADRF" || dims[0] == 0 ||
      dims[1] == 0 || dims[0] > 4096 || dims[1] > 4096) {
    throw std::runtime_error("bad field file " + path);
  }
  field::FlowField f(static_cast<int>(dims[0]), static_cast<int>(dims[1]));
  std::vector<float> buf(static_cast<std::size_t>(dims[0]) * dims[1]);
  for (int c = 0; c < field::kNumFlowVars; ++c) {
    in.read(reinterpret_cast<char*>(buf.data()),
            static_cast<std::streamsize>(buf.size() * sizeof(float)));
    auto& g = f.channel(c);
    for (std::size_t i = 0; i < buf.size(); ++i) g.data()[i] = buf[i];
  }
  if (!in || in.peek() != std::char_traits<char>::eof()) {
    throw std::runtime_error("truncated or oversized field file " + path);
  }
  return f;
}

}  // namespace perfbench
