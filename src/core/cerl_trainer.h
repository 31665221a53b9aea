// CERL — Continual Causal Effect Representation Learning (the paper's
// contribution, Algorithm 1).
//
// Stage 1 (baseline, Eq. 5): train a CFR model on the first domain, then
// store herding-selected representations in the memory bank. Eq. 5 is Eq. 9
// with no previous model and an empty memory, so the baseline runs the same
// stage code as the continual stages (scalers fitted on the domain, the
// same loss builder, validation criterion and training loop) with the
// distillation/transformation terms absent. The CFR strategies A/B/C are
// trainer configurations of this class (core/strategies.h); nothing else in
// the repo trains an estimator.
//
// Stage d >= 2 (continual, Eq. 9): train a new model g_{w_d}, h_{theta_d}
// and the transformation phi_{d-1->d} jointly on
//   L = L_G + alpha * Wass(P, Q) + lambda * ElasticNet(w_d)
//       + beta * L_FD + delta * L_FT
// where L_G (Eq. 8) fits factual outcomes on new data AND transformed
// memory representations, the IPM balances treated/control over the global
// representation space (memory ∪ new), L_FD (Eq. 6) distills the old
// model's representations of the new data, and L_FT (Eq. 7) aligns
// phi(g_{w_{d-1}}(x)) with g_{w_d}(x). Afterwards the memory is migrated:
//   M_d = Herding({R_d, Y_d, T_d} ∪ phi(M_{d-1})).
// Raw covariates of past domains are never kept (accessibility criterion).
//
// Algorithm 1 is exposed as an explicit stage pipeline —
//   ValidateDomain -> BeginStage -> TrainStage -> MigrateStage
// — with all cross-stage state carried in a StageContext rather than hidden
// in the trainer, so the stream engine (src/stream/) can schedule stages of
// many independent trainers on shared workers and overlap stage work across
// streams. ObserveDomain composes the three member stages in order and is
// bit-identical to the historical monolithic loop.
#pragma once

#include <memory>
#include <vector>

#include "causal/cfr.h"
#include "causal/metrics.h"
#include "causal/rep_outcome_net.h"
#include "core/memory_bank.h"
#include "core/transform_net.h"

namespace cerl::core {

/// Full CERL configuration.
struct CerlConfig {
  causal::NetConfig net;
  causal::TrainConfig train;

  /// Distillation weight. The paper fixes beta = 1 (following iCaRL /
  /// feature-adaptation practice); with this implementation's loss
  /// normalization a stronger default keeps the same balance between the
  /// factual term and the distillation term (calibrated on held-out
  /// streams; see EXPERIMENTS.md).
  double beta = 3.0;
  double delta = 1.0;    ///< transformation weight
  int memory_capacity = 500;  ///< M

  /// Ablation switches (Table II).
  bool use_transform = true;  ///< false = "w/o FRT": no memory replay at all
  bool use_herding = true;    ///< false = random memory subsampling
  // "w/o cosine" is net.cosine_normalized_rep = false.

  /// Warm-start g_{w_d} from g_{w_{d-1}} (speeds convergence; the losses,
  /// not the init, carry the old knowledge).
  bool init_from_previous = true;

  /// Learning-rate multiplier for continual stages (d >= 2). Warm-started
  /// stages need smaller steps than the from-scratch baseline stage:
  /// large steps let the new-domain factual term overwrite regions of the
  /// representation the distillation/replay losses cannot observe.
  double continual_lr_scale = 0.3;

  /// Hidden sizes of phi (empty = single affine+tanh layer).
  std::vector<int> transform_hidden = {};
};

/// Continual trainer over an incrementally available domain stream.
class CerlTrainer {
 public:
  CerlTrainer(const CerlConfig& config, int input_dim);

  // --- Stage pipeline (Algorithm 1, stream-engine schedulable) ----------

  /// Pure validation of an incoming domain: shape consistency
  /// against `input_dim`, aligned unit counts, finite covariates/outcomes.
  /// Touches no trainer state; the stream engine runs it at the start of
  /// each domain's ingest stage.
  static Status ValidateDomain(const data::DataSplit& split, int input_dim);

  /// Cross-stage context: every piece of per-stage state (standardized
  /// inputs, distillation targets, phi, the joint parameter set, the stage
  /// RNG) lives here explicitly — the trainer itself keeps only the durable
  /// continual state (current/old model, memory, stage counter).
  struct StageContext;

  /// Ingest/standardize: advances the stage counter, builds (and
  /// warm-starts) the stage model, standardizes the domain with the stage's
  /// scalers (fitted on the domain at stage 1), and — continual stages
  /// only — freezes the old model's representations of the new data and
  /// constructs phi. Must be followed by TrainStage then MigrateStage.
  std::unique_ptr<StageContext> BeginStage(const data::DataSplit& split);

  /// Train + validate: optimizes the stage objective (Eq. 9; Eq. 5 at
  /// stage 1) with the shared engine loop.
  causal::TrainStats TrainStage(StageContext* ctx);

  /// Herd/migrate: M_d = Herding({R_d, Y_d, T_d} ∪ phi(M_{d-1})); stage 1
  /// seeds M_1 = Herding({R_1, Y_1, T_1}).
  void MigrateStage(StageContext* ctx);

  /// Consumes the next domain (Algorithm 1 body): BeginStage + TrainStage +
  /// MigrateStage. Returns training stats.
  causal::TrainStats ObserveDomain(const data::DataSplit& split);

  /// Estimated ITE with the current model h_{theta_d}(g_{w_d}(x)).
  linalg::Vector PredictIte(const linalg::Matrix& x_raw);

  /// PEHE / ATE error of the current model on a test set.
  causal::CausalMetrics Evaluate(const data::CausalDataset& test);

  const MemoryBank& memory() const { return memory_; }
  int stages_seen() const { return stages_seen_; }
  causal::RepOutcomeNet* current_net();
  const CerlConfig& config() const { return config_; }
  int input_dim() const { return input_dim_; }

  /// Persists the continual state — current model (weights + scalers), the
  /// memory bank, the stage counter, and the trainer RNG stream — so a
  /// resumed trainer continues BIT-IDENTICALLY to the uninterrupted run, in
  /// a new process, without any raw data (checkpoint.cc). Requires >= 1
  /// stage. The write is crash-safe: temp file + fsync + atomic rename.
  Status SaveCheckpoint(const std::string& path);

  /// Restores a checkpoint into a freshly constructed trainer (same config
  /// and input dimension as the saver; enforced via parameter shapes).
  /// Must be called before any ObserveDomain.
  Status LoadCheckpoint(const std::string& path);

  /// In-memory checkpoint entry points, shared by SaveCheckpoint /
  /// LoadCheckpoint and by the stream engine's snapshot container (which
  /// embeds one serialized trainer per stream). The payload is the full
  /// CERLCKP1 format including the trailing checksum.
  Status SerializeCheckpoint(std::string* out);

  /// All-or-nothing restore: the payload is fully parsed and validated
  /// (checksum, dimensions, parameter shapes) before ANY trainer state is
  /// touched, so a failed load leaves the trainer exactly as it was.
  Status DeserializeCheckpoint(std::string_view payload);

  /// Returns the trainer to its freshly-constructed state (no model, empty
  /// memory, stage counter 0, re-seeded RNG). DeserializeCheckpoint requires
  /// a fresh trainer, so Reset + Deserialize is the rollback idiom the
  /// stream engine uses to restore a stream's last-good state in place
  /// (CerlTrainer is intentionally not movable: MemoryBank carries a mutex).
  void Reset();

  /// Post-stage numerical health guard: every current-model parameter and
  /// every memory-bank representation must be finite. A trainer that fails
  /// this check has been poisoned by a numerical excursion and must be
  /// rolled back (Reset + DeserializeCheckpoint) before further stages.
  Status CheckNumericalHealth();

 private:
  double StageValidLoss(const StageContext& ctx);

  CerlConfig config_;
  int input_dim_;
  Rng rng_;
  std::unique_ptr<causal::RepOutcomeNet> net_;  ///< current stage model
  MemoryBank memory_;
  int stages_seen_ = 0;
};

/// Everything one stage carries between BeginStage, TrainStage and
/// MigrateStage. Movable-by-pointer (the stream engine hands it between
/// pipeline tasks); not reusable across stages.
struct CerlTrainer::StageContext {
  const data::DataSplit* split = nullptr;
  int stage = 0;          ///< 1-based stage index (== stages_seen at begin)
  /// Stage 1: no previous model, so no distillation/transformation terms
  /// (the plain CFR objective, Eq. 5).
  bool baseline = false;
  causal::TrainConfig stage_train;

  // Standardized stage inputs.
  linalg::Matrix x_train, x_valid;
  linalg::Vector y_train, y_valid;
  /// Old-model representations of the new data, computed once (frozen
  /// distillation target, Eq. 6); empty at the baseline stage.
  linalg::Matrix old_reps_train;

  std::unique_ptr<TransformNet> phi;  ///< phi_{d-1->d} (continual stages)
  /// Joint trainable set (net ∪ phi), in snapshot order.
  std::vector<autodiff::Parameter*> params;
  /// Shuffles + memory-replay sampling for this stage. The baseline stage
  /// continues the net-init stream; a continual stage d draws from
  /// Rng((seed + 7919 d) ^ 0xB007).
  Rng loop_rng{0};
  bool use_memory = false;
  int mem_batch = 0;

  causal::TrainStats stats;  ///< filled by TrainStage
};

}  // namespace cerl::core
