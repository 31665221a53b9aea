#include "core/strategies.h"

#include <memory>

#include "util/logging.h"

namespace cerl::core {

const char* StrategyName(Strategy s) {
  switch (s) {
    case Strategy::kA: return "CFR-A";
    case Strategy::kB: return "CFR-B";
    case Strategy::kC: return "CFR-C";
  }
  return "?";
}

StageEval EvaluateStage(int stage, const std::vector<data::DataSplit>& stream,
                        const std::function<linalg::Vector(
                            const linalg::Matrix&)>& predict_ite) {
  StageEval eval;
  eval.stage = stage;
  std::vector<const data::CausalDataset*> pooled_parts;
  for (int j = 0; j <= stage; ++j) {
    const data::CausalDataset& test = stream[j].test;
    eval.per_domain.push_back(
        causal::EvaluateOnDataset(test, predict_ite(test.x)));
    pooled_parts.push_back(&test);
  }
  const data::CausalDataset pooled = data::ConcatDatasets(pooled_parts);
  eval.pooled = causal::EvaluateOnDataset(pooled, predict_ite(pooled.x));
  return eval;
}

CerlConfig CfrTrainerConfig(Strategy s, const StrategyConfig& config) {
  CerlConfig cerl;
  cerl.net = config.net;
  cerl.train = config.train;
  cerl.use_transform = false;
  if (s == Strategy::kB) {
    cerl.beta = 0.0;
    cerl.delta = 0.0;
    cerl.continual_lr_scale = 1.0;
  }
  return cerl;
}

StrategyRunResult RunCfrStrategy(Strategy s,
                                 const std::vector<data::DataSplit>& stream,
                                 const StrategyConfig& config) {
  CERL_CHECK(!stream.empty());
  const int input_dim = stream.front().train.num_features();
  const CerlConfig trainer_config = CfrTrainerConfig(s, config);
  StrategyRunResult result;

  std::unique_ptr<CerlTrainer> trainer;
  for (int d = 0; d < static_cast<int>(stream.size()); ++d) {
    if (s == Strategy::kC) {
      // Retrain from scratch on the union of all seen raw data.
      std::vector<const data::CausalDataset*> train_parts, valid_parts;
      for (int j = 0; j <= d; ++j) {
        train_parts.push_back(&stream[j].train);
        valid_parts.push_back(&stream[j].valid);
      }
      data::DataSplit joint;
      joint.train = data::ConcatDatasets(train_parts);
      joint.valid = data::ConcatDatasets(valid_parts);
      trainer = std::make_unique<CerlTrainer>(trainer_config, input_dim);
      trainer->ObserveDomain(joint);
    } else if (d == 0 || s == Strategy::kB) {
      if (d == 0) {
        trainer = std::make_unique<CerlTrainer>(trainer_config, input_dim);
      }
      trainer->ObserveDomain(stream[d]);
    }
    result.stages.push_back(
        EvaluateStage(d, stream, [&trainer](const linalg::Matrix& x) {
          return trainer->PredictIte(x);
        }));
    CERL_LOG(Debug) << StrategyName(s) << " stage " << d << " pooled pehe "
                    << result.stages.back().pooled.pehe;
  }
  return result;
}

}  // namespace cerl::core
