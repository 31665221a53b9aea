// Reproduces Figure 3 (c) and (d): hyperparameter robustness of CERL on the
// synthetic two-domain stream. (c) sweeps the representation-balance weight
// alpha, (d) sweeps the transformation weight delta; the paper reports that
// performance is stable over a large parameter range (beta is fixed
// following the continual-learning literature).
//
// Usage: fig3cd_sensitivity [--scale=tiny|small|paper] [--seed=N] [--out=csv]
#include <algorithm>
#include <cstdio>

#include "bench_common.h"
#include "data/synthetic.h"
#include "util/timer.h"

namespace cerl::bench {
namespace {

struct SweepPoint {
  double value;
  double pooled_pehe;
  double pooled_ate;
};

SweepPoint RunPoint(const std::vector<data::DataSplit>& splits,
                    const core::CerlConfig& config, double value) {
  core::CerlTrainer trainer(config, splits[0].train.num_features());
  for (const auto& split : splits) trainer.ObserveDomain(split);
  core::StageEval eval = core::EvaluateStage(
      static_cast<int>(splits.size()) - 1, splits,
      [&trainer](const linalg::Matrix& x) { return trainer.PredictIte(x); });
  return {value, eval.pooled.pehe, eval.pooled.ate_error};
}

void PrintSweep(const char* panel, const char* param,
                const std::vector<SweepPoint>& points) {
  std::printf("\n-- Fig 3(%s): sweep over %s --\n", panel, param);
  std::printf("%-10s %12s %12s\n", param, "pooled PEHE", "pooled eATE");
  for (const auto& p : points) {
    std::printf("%-10.3g %12.3f %12.3f\n", p.value, p.pooled_pehe,
                p.pooled_ate);
  }
}

double Spread(const std::vector<SweepPoint>& points) {
  double lo = points[0].pooled_pehe, hi = points[0].pooled_pehe;
  for (const auto& p : points) {
    lo = std::min(lo, p.pooled_pehe);
    hi = std::max(hi, p.pooled_pehe);
  }
  return hi / std::max(lo, 1e-12);
}

int Run(const Flags& flags) {
  const Scale scale = ParseScale(flags);
  const uint64_t seed = flags.GetInt("seed", 6);

  data::SyntheticConfig data_config;
  data_config.num_domains = 2;
  data_config.seed = seed;
  switch (scale) {
    case Scale::kTiny: data_config.units_per_domain = 600; break;
    case Scale::kSmall: data_config.units_per_domain = 1500; break;
    case Scale::kPaper: data_config.units_per_domain = 10000; break;
  }
  std::printf("== Fig. 3(c,d) — hyperparameter robustness, n=%d/domain ==\n",
              data_config.units_per_domain);

  WallTimer timer;
  data::SyntheticStream stream = data::GenerateSyntheticStream(data_config);
  Rng split_rng(seed + 57);
  auto splits = data::SplitStream(stream.domains, &split_rng);

  core::CerlConfig base;
  base.net = SyntheticNetConfig(scale);
  base.train = BenchTrainConfig(scale, seed + 61);
  base.memory_capacity = data_config.units_per_domain / 2;

  const std::vector<double> alphas = {0.03, 0.1, 0.3, 1.0, 3.0};
  const std::vector<double> deltas = {0.03, 0.1, 0.3, 1.0, 3.0};

  std::vector<SweepPoint> alpha_points;
  for (double alpha : alphas) {
    core::CerlConfig config = base;
    config.train.alpha = alpha;
    alpha_points.push_back(RunPoint(splits, config, alpha));
  }
  std::vector<SweepPoint> delta_points;
  for (double delta : deltas) {
    core::CerlConfig config = base;
    config.delta = delta;
    delta_points.push_back(RunPoint(splits, config, delta));
  }

  PrintSweep("c", "alpha", alpha_points);
  PrintSweep("d", "delta", delta_points);

  CsvWriter csv({"panel", "param_value", "pooled_pehe", "pooled_ate"});
  for (const auto& p : alpha_points) {
    csv.AddRow({"c_alpha", CsvWriter::Cell(p.value),
                CsvWriter::Cell(p.pooled_pehe), CsvWriter::Cell(p.pooled_ate)});
  }
  for (const auto& p : delta_points) {
    csv.AddRow({"d_delta", CsvWriter::Cell(p.value),
                CsvWriter::Cell(p.pooled_pehe), CsvWriter::Cell(p.pooled_ate)});
  }

  VerdictPrinter verdicts;
  verdicts.Check(
      "performance stable over the alpha range (max/min PEHE <= 1.4)",
      Spread(alpha_points) <= 1.4);
  verdicts.Check(
      "performance stable over the delta range (max/min PEHE <= 1.4)",
      Spread(delta_points) <= 1.4);

  std::printf("\ntotal time: %.1fs\n", timer.ElapsedSeconds());
  MaybeWriteCsv(flags, csv, "fig3cd_sensitivity.csv");
  verdicts.Summary();
  return 0;
}

}  // namespace
}  // namespace cerl::bench

int main(int argc, char** argv) {
  cerl::Flags flags(argc, argv);
  return cerl::bench::Run(flags);
}
