// Reproduces Figure 3 (a) and (b): five synthetic domains arrive
// sequentially (the Fig. 4 protocol); after finishing each domain, report
// sqrt(PEHE) and eps_ATE on the pooled test sets of all seen domains, for
// CERL under several memory budgets and for the ideal strategy (retrain
// from scratch on all raw data — CFR-C). Also runs the in-text cosine-
// normalization ablation at the middle memory budget (paper: sqrt(PEHE)
// 1.80 -> 1.92, eps_ATE 0.55 -> 0.61 at M=5000), and the null control:
// CERL with every term off (beta = delta = 0, no memory), which shares
// each CERL series' stage-1 model and stage seeds.
//
// Paper memory budgets: M in {1000, 5000, 10000} of 10000 units/domain;
// the ratios (0.1 / 0.5 / 1.0 of one domain) are kept across scales.
//
// Usage: fig3ab_memory [--scale=tiny|small|paper] [--seed=N] [--out=csv]
#include <cstdio>

#include "bench_common.h"
#include "data/synthetic.h"
#include "util/timer.h"

namespace cerl::bench {
namespace {

struct SeriesPoint {
  int stage;
  double pehe;
  double ate;
};

std::vector<SeriesPoint> RunCerlSeries(
    const std::vector<data::DataSplit>& splits,
    const core::CerlConfig& config) {
  core::CerlTrainer trainer(config, splits[0].train.num_features());
  std::vector<SeriesPoint> series;
  for (int d = 0; d < static_cast<int>(splits.size()); ++d) {
    trainer.ObserveDomain(splits[d]);
    core::StageEval eval = core::EvaluateStage(
        d, splits,
        [&trainer](const linalg::Matrix& x) { return trainer.PredictIte(x); });
    series.push_back({d + 1, eval.pooled.pehe, eval.pooled.ate_error});
  }
  return series;
}

int Run(const Flags& flags) {
  const Scale scale = ParseScale(flags);
  const uint64_t seed = flags.GetInt("seed", 5);

  data::SyntheticConfig data_config;
  data_config.num_domains = 5;
  data_config.seed = seed;
  switch (scale) {
    case Scale::kTiny: data_config.units_per_domain = 500; break;
    case Scale::kSmall: data_config.units_per_domain = 1500; break;
    case Scale::kPaper: data_config.units_per_domain = 10000; break;
  }
  const int n = data_config.units_per_domain;
  const std::vector<std::pair<std::string, int>> budgets = {
      {"M=0.1n", n / 10}, {"M=0.5n", n / 2}, {"M=1.0n", n}};

  std::printf(
      "== Fig. 3(a,b) — 5 sequential domains, n=%d/domain, scale=%s ==\n", n,
      ScaleName(scale));
  std::printf("paper reference (M=10000, 5 domains): ideal sqPEHE ~1.8; CERL"
              " with M in {1000,5000,10000} tracks it closely\n");

  WallTimer timer;
  data::SyntheticStream stream = data::GenerateSyntheticStream(data_config);
  Rng split_rng(seed + 31);
  auto splits = data::SplitStream(stream.domains, &split_rng);

  core::StrategyConfig strat;
  strat.net = SyntheticNetConfig(scale);
  strat.train = BenchTrainConfig(scale, seed + 41);

  // Ideal: retrain on all raw data after each domain (CFR-C).
  core::StrategyRunResult ideal =
      RunCfrStrategy(core::Strategy::kC, splits, strat);

  core::CerlConfig base;
  base.net = strat.net;
  base.train = strat.train;

  CsvWriter csv({"series", "stage", "pooled_pehe", "pooled_ate"});
  std::vector<std::vector<SeriesPoint>> cerl_series;
  for (const auto& [label, budget] : budgets) {
    core::CerlConfig config = base;
    config.memory_capacity = budget;
    cerl_series.push_back(RunCerlSeries(splits, config));
    for (const auto& p : cerl_series.back()) {
      csv.AddRow({label, std::to_string(p.stage), CsvWriter::Cell(p.pehe),
                  CsvWriter::Cell(p.ate)});
    }
  }
  const std::vector<SeriesPoint> null_series =
      RunCerlSeries(splits, NullControlConfig(base));
  for (const auto& p : null_series) {
    csv.AddRow({"null", std::to_string(p.stage), CsvWriter::Cell(p.pehe),
                CsvWriter::Cell(p.ate)});
  }
  for (const auto& stage : ideal.stages) {
    csv.AddRow({"ideal", std::to_string(stage.stage + 1),
                CsvWriter::Cell(stage.pooled.pehe),
                CsvWriter::Cell(stage.pooled.ate_error)});
  }

  // Print the two panels as columns over stages.
  for (const char* metric : {"sqrt(PEHE)", "eps_ATE"}) {
    const bool is_pehe = std::string(metric) == "sqrt(PEHE)";
    std::printf("\n-- Fig 3(%s): pooled %s after each domain --\n",
                is_pehe ? "a" : "b", metric);
    std::printf("%-10s", "stage");
    for (const auto& [label, budget] : budgets) {
      std::printf(" %10s", label.c_str());
    }
    std::printf(" %10s %10s\n", "null", "ideal");
    for (int d = 0; d < 5; ++d) {
      std::printf("%-10d", d + 1);
      for (const auto& series : cerl_series) {
        std::printf(" %10.3f", is_pehe ? series[d].pehe : series[d].ate);
      }
      std::printf(" %10.3f", is_pehe ? null_series[d].pehe
                                     : null_series[d].ate);
      std::printf(" %10.3f\n", is_pehe ? ideal.stages[d].pooled.pehe
                                       : ideal.stages[d].pooled.ate_error);
    }
  }

  // In-text cosine ablation at the middle budget.
  core::CerlConfig no_cosine = base;
  no_cosine.memory_capacity = budgets[1].second;
  no_cosine.net.cosine_normalized_rep = false;
  auto ablation = RunCerlSeries(splits, no_cosine);
  std::printf("\ncosine ablation at %s, stage 5: with=%.3f/%.3f "
              "without=%.3f/%.3f (paper: 1.80/0.55 -> 1.92/0.61)\n",
              budgets[1].first.c_str(), cerl_series[1][4].pehe,
              cerl_series[1][4].ate, ablation[4].pehe, ablation[4].ate);
  csv.AddRow({"M=0.5n w/o cosine", "5", CsvWriter::Cell(ablation[4].pehe),
              CsvWriter::Cell(ablation[4].ate)});

  VerdictPrinter verdicts;
  verdicts.Check("largest memory budget is at least as good as the smallest",
                 cerl_series[2][4].pehe <= cerl_series[0][4].pehe * 1.05);
  verdicts.Check("CERL (M=1.0n) tracks the ideal within 1.5x at stage 5",
                 cerl_series[2][4].pehe <
                     1.5 * ideal.stages[4].pooled.pehe + 0.05);
  verdicts.Check("no blow-up across stages for any budget",
                 cerl_series[0][4].pehe < 3.0 * cerl_series[0][0].pehe);
  verdicts.Check("removing cosine normalization hurts",
                 ablation[4].pehe > cerl_series[1][4].pehe);

  std::printf("\ntotal time: %.1fs\n", timer.ElapsedSeconds());
  MaybeWriteCsv(flags, csv, "fig3ab_memory.csv");
  verdicts.Summary();
  return 0;
}

}  // namespace
}  // namespace cerl::bench

int main(int argc, char** argv) {
  cerl::Flags flags(argc, argv);
  return cerl::bench::Run(flags);
}
