// Counterfactual regression (CFR, Shalit et al. 2017) — the representative
// causal effect estimator the paper adapts (strategies A/B/C) and the
// baseline stage of CERL. Objective (Eq. 5):
//   L = L_Y + alpha * Wass(P, Q) + lambda * (||w1||_2^2 + ||w1||_1)
// with L_Y the factual-outcome MSE over the two heads, Wass the IPM between
// treated/control representation distributions, and the elastic net on the
// first (feature-selection) layer.
//
// This file holds the building blocks of that objective: the optimization
// config, the two-headed factual loss and the batch gathers. Eq. 5 is Eq. 9
// with no previous model and an empty memory, so core::CerlTrainer is the
// one place that trains it: CERL's baseline stage, and CFR-A/B/C as trainer
// configurations (core/strategies.h).
#pragma once

#include <cstdint>
#include <vector>

#include "causal/rep_outcome_net.h"
#include "data/dataset.h"
#include "ot/ipm.h"
#include "train/train_loop.h"

namespace cerl::causal {

/// Optimization hyperparameters of a training stage.
struct TrainConfig {
  int epochs = 120;
  int batch_size = 128;
  double learning_rate = 1e-3;
  int patience = 15;            ///< early-stopping patience (epochs)
  double alpha = 1.0;           ///< IPM weight (Eq. 5 / Eq. 9)
  double lambda = 1e-4;         ///< elastic-net weight
  ot::IpmKind ipm = ot::IpmKind::kWasserstein;
  ot::SinkhornConfig sinkhorn;
  uint64_t seed = 1234;
  bool verbose = false;
};

/// Summary of one training run (lives with the engine in src/train/).
using TrainStats = train::TrainStats;

/// Extracts the loop-mechanics subset of a TrainConfig for train::TrainLoop.
train::LoopOptions MakeLoopOptions(const TrainConfig& config,
                                   const std::string& log_label);

/// Factual-loss forward pass of every CERL stage (Eq. 4 / Eq. 8).
struct FactualForward {
  Var loss;         ///< scalar: (sse_treated + sse_control) / n
  Var rep;          ///< representations of the whole batch
  Var rep_treated;  ///< gathered treated representations
  Var rep_control;  ///< gathered control representations
  int n_treated = 0;
  int n_control = 0;
};

/// Step-reused scratch for BuildFactualLoss's treated/control split (the
/// allocation-free loss-builder path): index vectors retain capacity across
/// steps and the target column matrices are ALIASED by the tape
/// (ConstantView), so a scratch passed to BuildFactualLoss must outlive the
/// tape pass and stay unmodified until Backward has run — own one per loss
/// builder, next to its training loop, exactly like SinkhornWorkspacePool.
struct FactualScratch {
  std::vector<int> treated_idx, control_idx;
  linalg::Matrix y_treated, y_control;  ///< n x 1 head targets
};

/// Builds the two-headed factual MSE (Eq. 4) on scaled inputs/outcomes.
/// Without a scratch the split buffers are per-call locals and the targets
/// are copied onto the tape; with a scratch the steady state allocates
/// nothing and the targets alias the scratch (see FactualScratch).
FactualForward BuildFactualLoss(RepOutcomeNet* net, Tape* tape, Var x_scaled,
                                const std::vector<int>& t,
                                const linalg::Vector& y_scaled,
                                FactualScratch* scratch = nullptr);

/// Gathers elements `idx` of (t, y) into caller-owned buffers (resized as
/// needed, reused across steps). This is the scalar half of batch assembly;
/// covariate-row gathers are owned by train::TrainLoop
/// via its gather-source machinery.
void GatherTreatOutcome(const std::vector<int>& t, const linalg::Vector& y,
                        train::IndexSpan idx, std::vector<int>* t_out,
                        linalg::Vector* y_out);

}  // namespace cerl::causal
