// Accessibility criterion in practice: accuracy as a function of the memory
// budget M. CERL stores at most M learned representation vectors (plus the
// current model); raw covariates of past domains are never retained. This
// example sweeps M on a five-domain synthetic stream — long enough that the
// memory genuinely carries old-domain knowledge — and reports the final
// pooled error next to the storage footprint, including the M = 0 edge case
// (distillation only).
//
// Run: ./build/examples/memory_budget
#include <cstdio>

#include "core/cerl_trainer.h"
#include "core/strategies.h"
#include "data/synthetic.h"

int main() {
  using namespace cerl;

  data::SyntheticConfig data_config;
  data_config.num_domains = 5;
  data_config.units_per_domain = 1200;
  data_config.seed = 77;
  data::SyntheticStream stream = data::GenerateSyntheticStream(data_config);
  Rng rng(78);
  auto splits = data::SplitStream(stream.domains, &rng);

  core::CerlConfig base;
  base.net.rep_hidden = {48};
  base.net.rep_dim = 16;
  base.net.head_hidden = {24};
  base.train.epochs = 50;
  base.train.seed = 6;

  // Ideal reference that keeps all raw data.
  core::StrategyConfig strat{base.net, base.train};
  auto ideal = RunCfrStrategy(core::Strategy::kC, splits, strat);
  const double ideal_pehe = ideal.final_stage().pooled.pehe;

  std::printf("memory budget sweep (5 domains x %d units)\n",
              data_config.units_per_domain);
  std::printf("%-12s %14s %20s\n", "budget M", "pooled PEHE",
              "stored raw records");
  for (int budget : {0, 120, 600, 1200}) {
    core::CerlConfig config = base;
    if (budget == 0) {
      config.use_transform = false;  // no memory at all: distillation only
      config.memory_capacity = 0;
    } else {
      config.memory_capacity = budget;
    }
    core::CerlTrainer cerl(config, data_config.num_features());
    for (const auto& split : splits) cerl.ObserveDomain(split);
    core::StageEval eval = core::EvaluateStage(
        4, splits,
        [&cerl](const linalg::Matrix& x) { return cerl.PredictIte(x); });
    std::printf("%-12d %14.3f %20d\n", budget, eval.pooled.pehe, 0);
  }
  std::printf("%-12s %14.3f %20d   <- retrain-on-everything reference\n",
              "(all raw)", ideal_pehe, 5 * data_config.units_per_domain);
  std::printf("\nCERL needs no raw records from past domains; accuracy "
              "approaches the all-data ideal as M grows.\n");
  return 0;
}
