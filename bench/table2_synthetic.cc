// Reproduces Table II: the §IV-C synthetic benchmark (35 confounders, 10
// instruments, 35 adjusters, 20 irrelevant; partially linear outcome,
// probit propensity) with two sequential domains. Rows: CFR-A/B/C, CERL,
// and the three ablations the paper reports — CERL w/o FRT (no feature
// representation transformation => no memory replay), w/o herding (random
// memory subsampling), and w/o cosine normalization. Two extension rows
// follow: CERL with a linear-MMD IPM, and the null control — CERL with
// every term off (beta = delta = 0, no memory) at the continual learning
// rate. Every continual row trains the same stage-1 model (CFR-A's) and
// the same stage-2 seed, so per-seed differences between them are paired.
// Averaged over --reps independent simulations (paper: 10).
//
// Usage: table2_synthetic [--scale=tiny|small|paper] [--seed=N] [--reps=K]
//                         [--out=csv]
#include <cstdio>

#include "bench_common.h"
#include "causal/baselines.h"
#include "data/synthetic.h"
#include "util/check.h"
#include "util/timer.h"

namespace cerl::bench {
namespace {

data::SyntheticConfig SyntheticDataConfig(Scale scale, uint64_t seed) {
  data::SyntheticConfig c;
  c.num_domains = 2;
  c.seed = seed;
  switch (scale) {
    case Scale::kTiny: c.units_per_domain = 600; break;
    case Scale::kSmall: c.units_per_domain = 2000; break;
    case Scale::kPaper: c.units_per_domain = 10000; break;
  }
  return c;
}

const std::vector<PaperRow>& PaperReference() {
  static const std::vector<PaperRow> kRows = {
      {"CFR-A", 1.47, 0.35, 2.51, 0.73},
      {"CFR-B", 1.82, 0.47, 1.63, 0.45},
      {"CFR-C", 1.49, 0.36, 1.62, 0.44},
      {"CERL", 1.49, 0.37, 1.63, 0.44},
      {"w/o FRT", 1.71, 0.43, 1.63, 0.44},
      {"w/o herding", 1.57, 0.40, 1.63, 0.44},
      {"w/o cosine", 1.51, 0.38, 1.65, 0.44}};
  return kRows;
}

int Run(const Flags& flags) {
  const Scale scale = ParseScale(flags);
  const uint64_t seed = flags.GetInt("seed", 3);
  const int reps = flags.GetInt("reps", scale == Scale::kTiny ? 1 : 3);
  std::printf("== Table II (synthetic) — scale=%s seed=%llu reps=%d ==\n",
              ScaleName(scale), static_cast<unsigned long long>(seed), reps);

  WallTimer timer;
  std::vector<MethodRow> acc;
  for (int rep = 0; rep < reps; ++rep) {
    data::SyntheticConfig data_config =
        SyntheticDataConfig(scale, seed + 1000 * rep);
    data::SyntheticStream stream = data::GenerateSyntheticStream(data_config);
    Rng split_rng(seed + 1000 * rep + 5);
    auto splits = data::SplitStream(stream.domains, &split_rng);

    core::StrategyConfig strat;
    strat.net = SyntheticNetConfig(scale);
    strat.train = BenchTrainConfig(scale, seed + 1000 * rep + 17);

    core::CerlConfig base;
    base.net = strat.net;
    base.train = strat.train;
    // Paper: M = 10000 with 10000 units/domain. With a 60% train split that
    // budget never forces a reduction on a 2-domain stream, which would make
    // the herding ablation vacuous; use half a domain so the memory is
    // genuinely under pressure (see EXPERIMENTS.md).
    base.memory_capacity = data_config.units_per_domain / 2;

    std::vector<MethodRow> rows = RunStrategyRows(splits, strat);
    rows.push_back(RunCerlRow(splits, base, "CERL"));
    {
      core::CerlConfig ablation = base;
      ablation.use_transform = false;
      rows.push_back(RunCerlRow(splits, ablation, "w/o FRT"));
    }
    {
      core::CerlConfig ablation = base;
      ablation.use_herding = false;
      rows.push_back(RunCerlRow(splits, ablation, "w/o herding"));
    }
    {
      core::CerlConfig ablation = base;
      ablation.net.cosine_normalized_rep = false;
      rows.push_back(RunCerlRow(splits, ablation, "w/o cosine"));
    }
    {
      // Extension ablation (not in the paper's table): linear MMD instead
      // of the Wasserstein IPM — the cheaper balance penalty CFR also
      // supports.
      core::CerlConfig ablation = base;
      ablation.train.ipm = ot::IpmKind::kLinearMmd;
      rows.push_back(RunCerlRow(splits, ablation, "CERL (MMD)"));
    }
    // Null control: warm-started fine-tuning at CERL's continual learning
    // rate. It differs from CFR-B only in continual_lr_scale, and from CERL
    // only in the terms.
    rows.push_back(RunCerlRow(splits, NullControlConfig(base), "null control"));
    {
      // Non-neural reference: per-arm ridge regression (T-learner), trained
      // on the union of both domains (it has no continual mechanism).
      causal::RidgeTLearner tlearner;
      const data::CausalDataset joint = data::ConcatDatasets(
          {&splits[0].train, &splits[1].train});
      MethodRow row;
      row.name = "ridge T-learner";
      row.needs_previous_raw_data = true;
      row.within_memory_budget = false;
      Status fit = tlearner.Fit(joint);
      CERL_CHECK_MSG(fit.ok(), fit.ToString().c_str());
      row.previous = tlearner.Evaluate(splits[0].test);
      row.current = tlearner.Evaluate(splits[1].test);
      rows.push_back(row);
    }
    AccumulateRows(&acc, rows);
  }
  DivideRows(&acc, reps);

  PrintMethodTable("-- two sequential synthetic domains --", acc,
                   PaperReference());
  CsvWriter csv({"scenario", "method", "prev_pehe", "prev_ate", "new_pehe",
                 "new_ate"});
  AppendRowsToCsv(&csv, "synthetic", acc);

  VerdictPrinter verdicts;
  const MethodRow& a = acc[0];
  const MethodRow& b = acc[1];
  const MethodRow& c = acc[2];
  const MethodRow& cerl = acc[3];
  const MethodRow& wo_frt = acc[4];
  const MethodRow& wo_herd = acc[5];
  const MethodRow& wo_cos = acc[6];
  verdicts.Check("CFR-A declines on new data vs CFR-C",
                 a.current.pehe > 1.1 * c.current.pehe);
  verdicts.Check("CFR-B forgets previous data vs CFR-C",
                 b.previous.pehe > 1.05 * c.previous.pehe);
  verdicts.Check("CERL beats fine-tuning on previous data",
                 cerl.previous.pehe < b.previous.pehe);
  verdicts.Check("CERL tracks CFR-C on new data (<=1.5x)",
                 cerl.current.pehe < 1.5 * c.current.pehe);
  verdicts.Check("removing FRT hurts previous-domain accuracy",
                 wo_frt.previous.pehe > cerl.previous.pehe);
  verdicts.Check("removing herding hurts previous-domain accuracy",
                 wo_herd.previous.pehe > cerl.previous.pehe);
  verdicts.Check("removing cosine norm hurts previous-domain accuracy",
                 wo_cos.previous.pehe > cerl.previous.pehe);

  std::printf("\ntotal time: %.1fs\n", timer.ElapsedSeconds());
  MaybeWriteCsv(flags, csv, "table2_synthetic.csv");
  verdicts.Summary();
  return 0;
}

}  // namespace
}  // namespace cerl::bench

int main(int argc, char** argv) {
  cerl::Flags flags(argc, argv);
  return cerl::bench::Run(flags);
}
