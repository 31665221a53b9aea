// News benchmark walkthrough: how domain shift severity affects a model
// that never adapts (CFR-A) versus CERL.
//
// Media items are represented by word counts; the outcome is the reader's
// opinion on a viewing device (desktop vs mobile = control vs treatment).
// Two batches of items arrive sequentially; their topic composition overlap
// is controlled by the shift scenario (substantial / moderate / none),
// exactly as in the paper's Table I protocol.
//
// Run: ./build/examples/news_domain_shift
#include <cstdio>

#include "core/cerl_trainer.h"
#include "core/strategies.h"
#include "data/topic_benchmark.h"

int main() {
  using namespace cerl;

  causal::NetConfig net;
  net.rep_hidden = {48};
  net.rep_dim = 24;
  net.head_hidden = {24};
  causal::TrainConfig train;
  train.epochs = 50;
  train.seed = 5;

  std::printf("news benchmark: effect-estimation error on the NEW batch\n");
  std::printf("%-14s %16s %10s %16s\n", "shift", "topic overlap",
              "CFR-A", "CERL (no old data)");

  for (data::DomainShift shift :
       {data::DomainShift::kSubstantial, data::DomainShift::kModerate,
        data::DomainShift::kNone}) {
    data::TopicBenchmarkConfig config = data::NewsConfigSmall();
    config.shift = shift;
    config.seed = 9;
    data::TopicBenchmark bench = data::GenerateTopicBenchmark(config);
    Rng rng(10);
    auto splits = data::SplitStream(bench.domains, &rng);

    core::StrategyConfig strat{net, train};
    auto run_a = RunCfrStrategy(core::Strategy::kA, splits, strat);

    core::CerlConfig cerl_config;
    cerl_config.net = net;
    cerl_config.train = train;
    cerl_config.memory_capacity = 160;
    core::CerlTrainer cerl(cerl_config, bench.domains[0].num_features());
    cerl.ObserveDomain(splits[0]);
    cerl.ObserveDomain(splits[1]);

    const char* overlap = shift == data::DomainShift::kSubstantial ? "none"
                          : shift == data::DomainShift::kModerate
                              ? "partial"
                              : "identical";
    std::printf("%-14s %16s %10.3f %16.3f\n", data::DomainShiftName(shift),
                overlap, run_a.final_stage().per_domain[1].pehe,
                cerl.Evaluate(splits[1].test).pehe);
  }
  std::printf("\nthe never-adapted model (CFR-A) degrades as the new batch "
              "drifts away from its training topics; CERL keeps adapting "
              "without storing any previous news items.\n");
  return 0;
}
