// Counterfactual regression (CFR, Shalit et al. 2017) — the representative
// causal effect estimator the paper adapts (strategies A/B/C) and the
// baseline stage of CERL. Objective (Eq. 5):
//   L = L_Y + alpha * Wass(P, Q) + lambda * (||w1||_2^2 + ||w1||_1)
// with L_Y the factual-outcome MSE over the two heads, Wass the IPM between
// treated/control representation distributions, and the elastic net on the
// first (feature-selection) layer.
#pragma once

#include <cstdint>
#include <vector>

#include "causal/metrics.h"
#include "causal/rep_outcome_net.h"
#include "data/dataset.h"
#include "ot/ipm.h"
#include "train/train_loop.h"

namespace cerl::causal {

/// Optimization hyperparameters shared by CFR and the CERL stages.
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

/// Factual-loss forward pass shared by CFR and CERL stages.
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

/// CFR model: RepOutcomeNet + Eq. 5 training.
class CfrModel {
 public:
  CfrModel(const NetConfig& net_config, const TrainConfig& train_config,
           int input_dim);

  /// Fits scalers on `train` and optimizes Eq. 5 with early stopping on the
  /// validation factual loss.
  TrainStats Train(const data::CausalDataset& train,
                   const data::CausalDataset& valid);

  /// Continues optimization on new data without refitting scalers
  /// (adaptation strategy B).
  TrainStats FineTune(const data::CausalDataset& train,
                      const data::CausalDataset& valid);

  /// Estimated ITE on raw covariates, original outcome units.
  linalg::Vector PredictIte(const linalg::Matrix& x_raw);

  /// PEHE / ATE-error against the dataset's ground truth.
  CausalMetrics Evaluate(const data::CausalDataset& test);

  RepOutcomeNet& net() { return net_; }
  const TrainConfig& train_config() const { return train_config_; }

 private:
  TrainStats RunTraining(const data::CausalDataset& train,
                         const data::CausalDataset& valid,
                         bool refit_scalers);
  static double ValidFactualLoss(RepOutcomeNet* net,
                                 const linalg::Matrix& x_scaled,
                                 const std::vector<int>& t,
                                 const linalg::Vector& y_scaled);

  NetConfig net_config_;
  TrainConfig train_config_;
  Rng rng_;
  RepOutcomeNet net_;
};

}  // namespace cerl::causal
