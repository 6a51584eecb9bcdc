// AdarNet: the full scorer -> ranker -> decoder model (paper Fig 3).
//
// Inference takes a LR flow field and produces, in one shot, a per-patch
// refinement map plus the predicted flow values of every patch at its
// target resolution. Patches are processed bin-by-bin with a dynamic batch
// size (each bin holds a different number of patches), exactly as the
// paper describes. Within a bin the decoder runs on cache-sized slices of
// the bin batch (kDecoderChunkPixels), each through all six layers before
// the next starts, so no whole-bin activation is ever live; every slice's
// outputs are bitwise those of one whole-bin forward.
#pragma once

#include <memory>
#include <vector>

#include "adarnet/decoder.hpp"
#include "adarnet/ranker.hpp"
#include "adarnet/scorer.hpp"
#include "data/normalize.hpp"
#include "field/flow_field.hpp"
#include "field/patching.hpp"
#include "mesh/composite.hpp"

namespace adarnet::core {

/// Pixel budget of one decoder slice in AdarNet::infer: a slice holds
/// max(1, kDecoderChunkPixels / (h * w)) patches of a bin. 4096 is one
/// 64x64 level-3 patch at shrink 2, whose widest activation pair (64
/// channels in and out) is then 2 MiB, an L2's worth.
inline constexpr int kDecoderChunkPixels = 4096;

/// Model hyperparameters (paper Section 4.2 defaults).
struct AdarNetConfig {
  int bins = 4;  ///< number of target resolutions (levels 0..bins-1)
  int ph = 16;   ///< patch height in LR cells
  int pw = 16;   ///< patch width in LR cells
};

/// One predicted patch at its target resolution (physical units).
struct PatchPrediction {
  int id = 0;                ///< flat patch index (pi * npx + pj)
  int level = 0;             ///< refinement level
  field::FlowField values;   ///< (ph << level) x (pw << level) flow state
};

/// Everything inference produces, with cost accounting for the benches.
struct InferenceResult {
  mesh::RefinementMap map;                 ///< predicted mesh
  std::vector<PatchPrediction> patches;    ///< all N patches, id order
  double seconds = 0.0;                    ///< wall time of the inference
  std::int64_t measured_peak_bytes = 0;    ///< allocator high-water mark
                                           ///< (decoder: one slice live)
  std::int64_t modeled_bytes = 0;          ///< analytic activation model
                                           ///< (whole-bin, layer by layer)
};

/// The ADARNet model: scorer + ranker + shared decoder.
class AdarNet {
 public:
  AdarNet(AdarNetConfig config, util::Rng& rng);

  /// One-shot non-uniform super-resolution of a LR field. Coordinate
  /// channels are the global cell-centre positions normalised to [0, 1].
  InferenceResult infer(const field::FlowField& lr);

  /// Assembles an inference result into a composite mesh + field ready for
  /// the physics solver.
  std::pair<std::unique_ptr<mesh::CompositeMesh>, mesh::CompositeField>
  to_composite(const InferenceResult& result, const mesh::CaseSpec& spec,
               const field::FlowField& lr) const;

  /// Builds the decoder input batch for a set of same-level patches: the
  /// bicubically refined normalised patches concatenated with their global
  /// coordinate channels. Exposed for the trainer.
  nn::Tensor make_decoder_batch(const nn::Tensor& lr_norm,
                                const std::vector<int>& patch_ids, int level,
                                int npx, int npy) const;

  Scorer& scorer() { return scorer_; }
  Decoder& decoder() { return decoder_; }
  data::NormStats& stats() { return stats_; }
  const data::NormStats& stats() const { return stats_; }
  [[nodiscard]] const AdarNetConfig& config() const { return config_; }

  /// All learnable parameters (scorer + decoder), for optimizers and
  /// serialisation (shallow const, see nn::Layer::parameters).
  [[nodiscard]] std::vector<nn::Parameter*> parameters() const;

 private:
  AdarNetConfig config_;
  Scorer scorer_;
  Decoder decoder_;
  data::NormStats stats_ = data::NormStats::identity();
};

}  // namespace adarnet::core
