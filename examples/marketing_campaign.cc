// Marketing-campaign scenario (the paper's motivating Alipay use case).
//
// A payment platform rolls out a coupon campaign city by city. Each city's
// electronic records arrive as a separate observational dataset: users who
// received the coupon (treatment) vs not (control), with spend uplift as
// the outcome. Privacy rules forbid keeping raw user records from earlier
// cities once their batch is processed.
//
// The example contrasts three operating modes as three city cohorts arrive:
//   - fine-tune  (CFR-B): update the model on each new city; forgets old
//     cities;
//   - retrain    (CFR-C): keep every city's raw records (violates the
//     privacy constraint) and retrain from scratch — the accuracy ideal;
//   - CERL: bounded memory of learned representations only.
//
// Run: ./build/examples/marketing_campaign
#include <cstdio>

#include "core/cerl_trainer.h"
#include "core/strategies.h"
#include "data/synthetic.h"

int main() {
  using namespace cerl;
  const char* kCities[] = {"Hangzhou", "Shanghai", "Chengdu"};

  // Each city = one domain: users differ (covariate shift), the coupon's
  // causal mechanism is shared.
  data::SyntheticConfig data_config;
  data_config.num_domains = 3;
  data_config.units_per_domain = 1200;
  data_config.seed = 2026;
  data::SyntheticStream stream = data::GenerateSyntheticStream(data_config);
  Rng rng(11);
  auto splits = data::SplitStream(stream.domains, &rng);

  causal::NetConfig net;
  net.rep_hidden = {48};
  net.rep_dim = 16;
  net.head_hidden = {24};
  causal::TrainConfig train;
  train.epochs = 50;
  train.seed = 3;

  // Fine-tune and retrain baselines.
  core::StrategyConfig strat{net, train};
  auto finetune = RunCfrStrategy(core::Strategy::kB, splits, strat);
  auto retrain = RunCfrStrategy(core::Strategy::kC, splits, strat);

  // CERL with a memory budget of 400 representation vectors.
  core::CerlConfig config;
  config.net = net;
  config.train = train;
  config.memory_capacity = 400;
  core::CerlTrainer cerl(config, data_config.num_features());

  std::printf("campaign rollout — uplift-model quality per city cohort\n");
  std::printf("(sqrt(PEHE): error of per-user uplift estimates; lower is "
              "better)\n\n");
  for (int d = 0; d < 3; ++d) {
    cerl.ObserveDomain(splits[d]);
    std::printf("=== after %s cohort (%d users) ===\n", kCities[d],
                stream.domains[d].num_units());
    std::printf("%-12s %12s %12s %12s\n", "city", "fine-tune", "retrain-all",
                "CERL");
    for (int j = 0; j <= d; ++j) {
      std::printf("%-12s %12.3f %12.3f %12.3f\n", kCities[j],
                  finetune.stages[d].per_domain[j].pehe,
                  retrain.stages[d].per_domain[j].pehe,
                  cerl.Evaluate(splits[j].test).pehe);
    }
    std::printf("storage: retrain-all keeps %d raw user records; CERL keeps "
                "%d representation vectors and no raw data\n\n",
                (d + 1) * data_config.units_per_domain, cerl.memory().size());
  }

  // Business readout for the latest cohort.
  const auto& last = splits[2].test;
  linalg::Vector uplift = cerl.PredictIte(last.x);
  double mean_uplift = 0.0;
  int positive = 0;
  for (double u : uplift) {
    mean_uplift += u;
    positive += u > 0.5;  // users with estimated uplift above 0.5 units
  }
  mean_uplift /= static_cast<double>(uplift.size());
  std::printf("Chengdu test cohort: estimated mean uplift %.3f (true ATE "
              "%.3f); %d of %zu users above the 0.5 targeting threshold\n",
              mean_uplift, last.TrueAte(), positive, uplift.size());
  return 0;
}
