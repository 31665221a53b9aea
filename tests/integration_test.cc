// End-to-end integration: the full pipeline (data generation -> strategies
// -> CERL) at miniature scale, asserting the qualitative shape the paper
// reports in Tables I/II — strategy A degrades on shifted new data, CERL
// remains usable on both old and new domains without raw-data access.
#include <gtest/gtest.h>

#include <cmath>

#include "core/cerl_trainer.h"
#include "core/strategies.h"
#include "data/synthetic.h"
#include "data/topic_benchmark.h"
#include "util/rng.h"

namespace cerl {
namespace {

using core::Strategy;
using core::StrategyConfig;
using core::CerlConfig;
using core::CerlTrainer;

StrategyConfig MiniStrategyConfig(uint64_t seed) {
  StrategyConfig c;
  c.net.rep_hidden = {48};
  c.net.rep_dim = 16;
  c.net.head_hidden = {24};
  c.train.epochs = 60;
  c.train.batch_size = 64;
  c.train.learning_rate = 3e-3;
  c.train.patience = 20;
  c.train.alpha = 0.3;
  c.train.lambda = 1e-5;
  c.train.seed = seed;
  return c;
}

CerlConfig MiniCerlConfig(uint64_t seed) {
  CerlConfig c;
  const StrategyConfig base = MiniStrategyConfig(seed);
  c.net = base.net;
  c.train = base.train;
  c.memory_capacity = 600;
  return c;
}

TEST(SyntheticIntegrationTest, TableTwoShape) {
  // Averaged over two simulations: single-seed comparisons are noisy at
  // this miniature scale (the paper averages 10 repetitions of 10k units).
  double a_new = 0.0, b_prev = 0.0, c_prev = 0.0, c_new = 0.0;
  double cerl_prev = 0.0, cerl_new = 0.0;
  const int seeds = 2;
  for (int s = 0; s < seeds; ++s) {
    data::SyntheticConfig data_config;
    data_config.units_per_domain = 1200;
    data_config.num_domains = 2;
    data_config.seed = 17 + 100 * s;
    data::SyntheticStream stream = data::GenerateSyntheticStream(data_config);
    Rng split_rng(18 + s);
    auto splits = data::SplitStream(stream.domains, &split_rng);

    StrategyConfig config = MiniStrategyConfig(19 + s);
    auto run_a = RunCfrStrategy(Strategy::kA, splits, config);
    auto run_b = RunCfrStrategy(Strategy::kB, splits, config);
    auto run_c = RunCfrStrategy(Strategy::kC, splits, config);

    CerlTrainer cerl(MiniCerlConfig(19 + s), data_config.num_features());
    cerl.ObserveDomain(splits[0]);
    cerl.ObserveDomain(splits[1]);
    const auto prev = cerl.Evaluate(splits[0].test);
    const auto neu = cerl.Evaluate(splits[1].test);
    ASSERT_TRUE(std::isfinite(prev.pehe));
    ASSERT_TRUE(std::isfinite(neu.pehe));
    // Everything well below the trivial predict-zero error (tau = sin^2 has
    // RMS ~ 0.6 around its mean, and ~0.61 including the mean offset).
    ASSERT_LT(prev.pehe, 0.8);
    ASSERT_LT(neu.pehe, 0.8);

    a_new += run_a.final_stage().per_domain[1].pehe / seeds;
    b_prev += run_b.final_stage().per_domain[0].pehe / seeds;
    c_prev += run_c.final_stage().per_domain[0].pehe / seeds;
    c_new += run_c.final_stage().per_domain[1].pehe / seeds;
    cerl_prev += prev.pehe / seeds;
    cerl_new += neu.pehe / seeds;
  }

  // CFR-A never saw domain 2; CERL adapts to it. CERL should do at least as
  // well there (with slack for noise).
  EXPECT_LT(cerl_new, a_new + 0.05);
  // On previous-domain data CERL must retain at least as well as plain
  // fine-tuning (CFR-B) — without touching domain-1 raw data again. The
  // strict ordering is asserted on the forgetting-inducing stream in
  // core_test and in the table2 bench (3-repetition averages); here we
  // allow a noise cushion because two miniature seeds are compared.
  EXPECT_LT(cerl_prev, 1.25 * b_prev + 0.05);
  // And it tracks the ideal retrain-on-everything strategy within a modest
  // factor on both domains (the paper reports near-parity at 10k units x
  // 10 repetitions; at this miniature scale we check the direction).
  EXPECT_LT(cerl_prev, 2.5 * c_prev + 0.05);
  EXPECT_LT(cerl_new, 1.6 * c_new + 0.05);
}

TEST(TopicIntegrationTest, RunsEndToEndOnNewsLikeData) {
  data::TopicBenchmarkConfig config;
  config.corpus.num_docs = 500;
  config.corpus.vocab_size = 140;
  config.corpus.num_topics = 8;
  config.corpus.doc_length_mean = 40.0;
  config.lda.num_topics = 8;
  config.lda.iterations = 25;
  config.shift = data::DomainShift::kSubstantial;
  config.seed = 23;
  data::TopicBenchmark bench = data::GenerateTopicBenchmark(config);
  Rng split_rng(24);
  auto splits = data::SplitStream(bench.domains, &split_rng);

  StrategyConfig strat = MiniStrategyConfig(25);
  strat.train.epochs = 60;
  strat.train.patience = 60;
  auto run_c = RunCfrStrategy(Strategy::kC, splits, strat);

  CerlConfig cerl_config = MiniCerlConfig(25);
  cerl_config.train.epochs = 60;
  cerl_config.train.patience = 60;
  CerlTrainer cerl(cerl_config, bench.domains[0].num_features());
  cerl.ObserveDomain(splits[0]);
  cerl.ObserveDomain(splits[1]);

  const auto prev = cerl.Evaluate(splits[0].test);
  const auto neu = cerl.Evaluate(splits[1].test);
  ASSERT_TRUE(std::isfinite(prev.pehe));
  ASSERT_TRUE(std::isfinite(neu.pehe));

  // Predict-zero PEHE equals the RMS of the true ITE. At this miniature
  // scale (105 training docs in domain 1) not even the retrain-on-all
  // ideal beats predict-zero on the small previous domain, so the
  // meaningful claims are relative: CERL learns real effects where data
  // exists, and tracks the ideal within a modest factor on the rest.
  auto rms_ite = [](const data::CausalDataset& d) {
    double s = 0.0;
    auto ite = d.TrueIte();
    for (double v : ite) s += v * v;
    return std::sqrt(s / ite.size());
  };
  EXPECT_LT(neu.pehe, 0.75 * rms_ite(splits[1].test));
  EXPECT_LT(prev.pehe, 2.0 * run_c.final_stage().per_domain[0].pehe);
  // Memory respects the budget.
  EXPECT_LE(cerl.memory().size(), cerl_config.memory_capacity);
}

TEST(FiveDomainIntegrationTest, SequentialStreamStaysStable) {
  // Fig. 3/4 shape at miniature scale: five sequential domains, pooled
  // error stays bounded as domains accumulate.
  data::SyntheticConfig data_config;
  data_config.units_per_domain = 400;
  data_config.num_domains = 5;
  data_config.seed = 29;
  data::SyntheticStream stream = data::GenerateSyntheticStream(data_config);
  Rng split_rng(30);
  auto splits = data::SplitStream(stream.domains, &split_rng);

  CerlConfig config = MiniCerlConfig(31);
  config.train.epochs = 20;
  config.memory_capacity = 200;
  CerlTrainer cerl(config, data_config.num_features());

  std::vector<double> pooled_pehe;
  for (int d = 0; d < 5; ++d) {
    cerl.ObserveDomain(splits[d]);
    auto eval = core::EvaluateStage(
        d, splits,
        [&cerl](const linalg::Matrix& x) { return cerl.PredictIte(x); });
    pooled_pehe.push_back(eval.pooled.pehe);
    EXPECT_LE(cerl.memory().size(), config.memory_capacity);
  }
  // No blow-up: the last pooled error remains in the useful range.
  for (double pehe : pooled_pehe) {
    ASSERT_TRUE(std::isfinite(pehe));
    ASSERT_LT(pehe, 0.9);
  }
}

}  // namespace
}  // namespace cerl
