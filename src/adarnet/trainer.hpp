// Semi-supervised training of ADARNet (paper Sections 3.2 and 4.2).
//
// Two trainable networks are optimised:
//  * The scorer learns a physics-derived score target: the per-patch
//    gradient energy of the LR flow variables, normalised to a
//    distribution (the quantity the paper observes its DNN refines on;
//    see the substitution table in DESIGN.md — the paper does not specify
//    how gradients cross the non-differentiable ranker).
//  * The shared decoder is trained with the hybrid loss of Eq. 1: data MSE
//    against the LR ground truth (HR patches are bicubically downsampled
//    to LR space first, exactly as Section 3.2 prescribes) plus
//    lambda * PDE-residual loss evaluated on the denormalised prediction.
//
// Refinement decisions during decoder training are teacher-forced from the
// score target so every bin sees gradients from epoch one.
// Training is resilient (DESIGN.md §7): non-finite losses or gradients skip
// the optimizer step for that sample, gradients can be norm-clipped, the
// best-epoch parameters are tracked and restored when an epoch's loss
// spikes or is lost entirely, and epoch checkpoints (integrity-checked,
// atomic — nn/serialize v2) make interrupted runs resumable.
#pragma once

#include <limits>
#include <string>
#include <vector>

#include "adarnet/model.hpp"
#include "adarnet/pde_loss.hpp"
#include "data/dataset.hpp"

namespace adarnet::core {

/// Training hyperparameters (paper defaults where given). The Adam rates
/// and the loss-spike rollback factor are constants in trainer.cpp.
struct TrainConfig {
  int epochs = 10;            ///< paper: 350
  double lambda_pde = 0.03;   ///< PDE-loss weight (paper: 0.03)
  ResidualFn residual = &pde_residual_loss;  ///< governing-equation loss;
                              ///< swap (e.g. laplace_residual_loss) to
                              ///< retrain for a different PDE
  int log_every = 1;          ///< epochs between log lines (0 = silent)

  // --- resilience (DESIGN.md §7) -------------------------------------------
  double clip_norm = 0.0;       ///< > 0: global gradient-norm clip applied
                                ///< by the optimizers before each step
  std::string checkpoint_path;  ///< non-empty: write an atomic checkpoint
                                ///< here after every epoch (scorer +
                                ///< decoder), and resume from it when
                                ///< present
};

/// Per-epoch loss history plus resilience bookkeeping. The loss vectors
/// cover only the epochs this call actually ran (start_epoch onward when
/// resuming).
struct TrainStats {
  std::vector<double> scorer_loss;  ///< mean scorer MSE per epoch
  std::vector<double> data_loss;    ///< mean decoder data MSE per epoch
  std::vector<double> pde_loss;     ///< mean PDE residual loss per epoch

  int start_epoch = 0;      ///< first epoch run (> 0 after a resume)
  int skipped_steps = 0;    ///< optimizer steps skipped (non-finite batch)
  int rollbacks = 0;        ///< epochs rolled back to the best parameters
  int best_epoch = -1;      ///< epoch of the best combined loss (-1 = none)
  double best_loss = std::numeric_limits<double>::infinity();

  [[nodiscard]] double final_data_loss() const {
    return data_loss.empty() ? 0.0 : data_loss.back();
  }
  [[nodiscard]] double final_pde_loss() const {
    return pde_loss.empty() ? 0.0 : pde_loss.back();
  }
};

/// The per-patch score target used for both scorer supervision and
/// teacher-forced binning: gradient energy normalised to sum 1.
nn::Tensor score_target(const field::FlowField& lr, int ph, int pw);

/// Trains the model in place on `dataset`. Fits model.stats() from the
/// dataset before training.
TrainStats train(AdarNet& model, const data::Dataset& dataset,
                 const TrainConfig& config, util::Rng& rng);

/// Evaluates the hybrid losses of the current model over a sample set
/// (no parameter updates) — validation metric.
std::pair<double, double> evaluate(AdarNet& model,
                                   const std::vector<data::Sample>& samples,
                                   double lambda_pde);

}  // namespace adarnet::core
