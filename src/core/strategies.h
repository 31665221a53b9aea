// The three adaptation strategies the paper evaluates against CERL
// (§IV-B), built on the CFR estimator:
//   A — train on the first domain only, apply as-is to later domains
//       (suffers under domain shift on new data);
//   B — fine-tune the previous model on each new domain
//       (catastrophic forgetting on old data);
//   C — keep all raw data and retrain from scratch on the union
//       (the ideal upper bound, but needs access to all previous data).
//
// Each strategy is a CerlTrainer configuration (CfrTrainerConfig), so CFR
// and CERL share one training path: the first domain a trainer observes is
// the Eq. 5 baseline stage, bitwise the same model CERL starts from. None
// of them keeps a memory (use_transform = false). A observes domain 0 only;
// C builds a fresh trainer per stage and feeds it the union of the domains
// seen so far; B keeps one trainer whose continual stages have every CERL
// term off (beta = delta = 0) and the baseline learning rate
// (continual_lr_scale = 1), which is warm-started fine-tuning.
#pragma once

#include <functional>
#include <vector>

#include "core/cerl_trainer.h"

namespace cerl::core {

/// Which adaptation strategy to run.
enum class Strategy { kA, kB, kC };

const char* StrategyName(Strategy s);

/// Evaluation snapshot after consuming a prefix of the stream.
struct StageEval {
  int stage = 0;  ///< index of the last domain consumed (0-based)
  std::vector<causal::CausalMetrics> per_domain;  ///< each seen test set
  causal::CausalMetrics pooled;  ///< on the union of all seen test sets
};

/// Full run: one StageEval per consumed domain.
struct StrategyRunResult {
  std::vector<StageEval> stages;
  const StageEval& final_stage() const { return stages.back(); }
};

/// Architecture + optimization configuration for a strategy run.
struct StrategyConfig {
  causal::NetConfig net;
  causal::TrainConfig train;
};

/// The trainer configuration that runs strategy `s`.
CerlConfig CfrTrainerConfig(Strategy s, const StrategyConfig& config);

/// Runs strategy `s` over the domain stream, evaluating after every domain.
StrategyRunResult RunCfrStrategy(Strategy s,
                                 const std::vector<data::DataSplit>& stream,
                                 const StrategyConfig& config);

/// Evaluates an ITE predictor on each seen domain + pooled test set.
StageEval EvaluateStage(int stage, const std::vector<data::DataSplit>& stream,
                        const std::function<linalg::Vector(
                            const linalg::Matrix&)>& predict_ite);

}  // namespace cerl::core
