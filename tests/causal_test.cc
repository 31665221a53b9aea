// Tests for the causal layer: metrics, scalers, herding (vs random,
// property-style), the representation network, CFR training (a CFR-configured
// core::CerlTrainer) on a toy DGP with selection bias, and the strategy
// drivers.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "causal/cfr.h"
#include "causal/herding.h"
#include "causal/metrics.h"
#include "causal/scaler.h"
#include "core/strategies.h"
#include "linalg/ops.h"
#include "util/rng.h"

namespace cerl::causal {
namespace {

using data::CausalDataset;
using data::DataSplit;
using linalg::Matrix;
using linalg::Vector;

TEST(MetricsTest, PerfectPredictionIsZero) {
  Vector truth = {1.0, 2.0, 3.0};
  CausalMetrics m = EvaluateIte(truth, truth);
  EXPECT_DOUBLE_EQ(m.pehe, 0.0);
  EXPECT_DOUBLE_EQ(m.ate_error, 0.0);
}

TEST(MetricsTest, HandComputedValues) {
  Vector truth = {1.0, 1.0};
  Vector pred = {2.0, 0.0};
  CausalMetrics m = EvaluateIte(truth, pred);
  EXPECT_DOUBLE_EQ(m.pehe, 1.0);       // sqrt((1 + 1) / 2)
  EXPECT_DOUBLE_EQ(m.ate_error, 0.0);  // errors cancel in the mean
  Vector biased = {2.0, 2.0};
  m = EvaluateIte(truth, biased);
  EXPECT_DOUBLE_EQ(m.pehe, 1.0);
  EXPECT_DOUBLE_EQ(m.ate_error, 1.0);
}

TEST(ScalerTest, FeatureStandardizeRoundTrip) {
  Matrix x = {{1.0, 10.0}, {3.0, 20.0}, {5.0, 30.0}};
  FeatureScaler scaler;
  scaler.Fit(x);
  Matrix z = scaler.Apply(x);
  Vector means = linalg::ColumnMeans(z);
  Vector stds = linalg::ColumnStds(z);
  for (double m : means) EXPECT_NEAR(m, 0.0, 1e-12);
  for (double s : stds) EXPECT_NEAR(s, 1.0, 1e-12);
}

TEST(ScalerTest, OutcomeInverseTransform) {
  OutcomeScaler scaler;
  scaler.Fit({10.0, 20.0, 30.0});
  const double z = scaler.Transform(25.0);
  EXPECT_NEAR(scaler.InverseTransform(z), 25.0, 1e-12);
  EXPECT_GT(scaler.scale(), 0.0);
}

TEST(HerdingTest, SelectsExactCountDistinct) {
  Rng rng(1);
  Matrix rows(50, 4);
  for (int64_t i = 0; i < rows.size(); ++i) rows.data()[i] = rng.Normal();
  auto idx = HerdingSelect(rows, 20);
  EXPECT_EQ(idx.size(), 20u);
  std::vector<int> sorted = idx;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end());
}

TEST(HerdingTest, FirstPickIsClosestToMean) {
  Matrix rows = {{10.0, 0.0}, {0.1, 0.0}, {-10.0, 1.0}, {5.0, -1.0}};
  // Mean ~ (1.275, 0); row 1 is nearest.
  auto idx = HerdingSelect(rows, 1);
  EXPECT_EQ(idx[0], 1);
}

// Property: herding approximates the population mean at least as well as
// random subsampling, across many draws.
TEST(HerdingTest, BeatsRandomSubsamplingOnMeanApproximation) {
  Rng rng(2);
  int herding_wins = 0;
  const int trials = 20;
  for (int trial = 0; trial < trials; ++trial) {
    Matrix rows(80, 6);
    for (int64_t i = 0; i < rows.size(); ++i) {
      rows.data()[i] = rng.Normal(rng.Uniform(-1, 1), 1.0);
    }
    auto herd = HerdingSelect(rows, 10);
    auto rand = RandomSelect(80, 10, &rng);
    if (MeanApproximationError(rows, herd) <=
        MeanApproximationError(rows, rand)) {
      ++herding_wins;
    }
  }
  EXPECT_GE(herding_wins, 18);  // Herding should essentially always win.
}

// Direct-form greedy score of candidate c given the selected prefix.
double HerdingScore(const Matrix& rows, const std::vector<int>& prefix,
                    int c) {
  const linalg::Vector mean = linalg::ColumnMeans(rows);
  linalg::Vector sum(rows.cols(), 0.0);
  for (int s : prefix) {
    for (int j = 0; j < rows.cols(); ++j) sum[j] += rows(s, j);
  }
  const double inv = 1.0 / static_cast<double>(prefix.size() + 1);
  double dist = 0.0;
  for (int j = 0; j < rows.cols(); ++j) {
    const double v = mean[j] - (sum[j] + rows(c, j)) * inv;
    dist += v * v;
  }
  return dist;
}

// Direct-form herding (the original O(count·n·d) scalar scan), the oracle
// HerdingSelect is tested against: pick the argmin over unused candidates
// of || mean - (sum + x_c) / (k + 1) ||^2, first minimum on ties.
std::vector<int> HerdingSelectReference(const linalg::Matrix& rows,
                                        int count) {
  const int n = rows.rows();
  const int d = rows.cols();
  const linalg::Vector mean = linalg::ColumnMeans(rows);
  std::vector<int> selected;
  selected.reserve(count);
  std::vector<char> used(n, 0);
  linalg::Vector running_sum(d, 0.0);

  for (int k = 0; k < count; ++k) {
    int best = -1;
    double best_dist = std::numeric_limits<double>::infinity();
    const double inv = 1.0 / static_cast<double>(k + 1);
    for (int c = 0; c < n; ++c) {
      if (used[c]) continue;
      const double* row = rows.row(c);
      double dist = 0.0;
      for (int j = 0; j < d; ++j) {
        const double v = mean[j] - (running_sum[j] + row[j]) * inv;
        dist += v * v;
      }
      if (dist < best_dist) {
        best_dist = dist;
        best = c;
      }
    }
    used[best] = 1;
    selected.push_back(best);
    const double* row = rows.row(best);
    for (int j = 0; j < d; ++j) running_sum[j] += row[j];
  }
  return selected;
}

// The expanded-norm fast path must pick the same exemplars, in the same
// order, as the direct-form reference scan — except where the two
// candidates' scores tie within floating-point rounding (the expanded form
// rounds differently, and FP contraction makes the exact bits
// platform-dependent), in which case either pick is a correct greedy step.
TEST(HerdingTest, MatchesReferenceImplementation) {
  for (uint64_t seed = 11; seed < 16; ++seed) {
    Rng rng(seed);
    const int n = 120 + static_cast<int>(seed) * 7;
    const int d = 3 + static_cast<int>(seed % 4);
    Matrix rows(n, d);
    for (int64_t i = 0; i < rows.size(); ++i) {
      rows.data()[i] = rng.Normal(rng.Uniform(-1, 1), 1.0);
    }
    const int count = n / 3;
    const std::vector<int> fast = HerdingSelect(rows, count);
    const std::vector<int> reference = HerdingSelectReference(rows, count);
    ASSERT_EQ(fast.size(), reference.size());
    std::vector<int> prefix;
    for (int k = 0; k < count; ++k) {
      if (fast[k] != reference[k]) {
        // Both picks must be greedy-optimal within FP noise; after a tie
        // the two runs legitimately diverge, so stop comparing.
        const double fast_score = HerdingScore(rows, prefix, fast[k]);
        const double ref_score = HerdingScore(rows, prefix, reference[k]);
        EXPECT_NEAR(fast_score, ref_score,
                    1e-9 * (1.0 + std::fabs(ref_score)))
            << "seed " << seed << " pick " << k;
        break;
      }
      prefix.push_back(fast[k]);
    }
  }
}

TEST(HerdingTest, SelectingAllPerfectlyMatchesMean) {
  Rng rng(3);
  Matrix rows(15, 3);
  for (int64_t i = 0; i < rows.size(); ++i) rows.data()[i] = rng.Normal();
  auto idx = HerdingSelect(rows, 15);
  EXPECT_NEAR(MeanApproximationError(rows, idx), 0.0, 1e-12);
}

// Toy observational DGP with selection bias and heterogeneous effects:
//   mu0 = x1 + 0.5 x2, tau = 1 + x0, p(T=1) = sigmoid(x0 + x3).
CausalDataset ToyDgp(Rng* rng, int n) {
  const int p = 6;
  CausalDataset d;
  d.x = Matrix(n, p);
  d.t.resize(n);
  d.y.resize(n);
  d.mu0.resize(n);
  d.mu1.resize(n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < p; ++j) d.x(i, j) = rng->Normal();
    const double tau = 1.0 + d.x(i, 0);
    d.mu0[i] = d.x(i, 1) + 0.5 * d.x(i, 2);
    d.mu1[i] = d.mu0[i] + tau;
    const double logit = d.x(i, 0) + d.x(i, 3);
    const double prop = 1.0 / (1.0 + std::exp(-logit));
    d.t[i] = rng->Uniform() < prop ? 1 : 0;
    d.y[i] = (d.t[i] == 1 ? d.mu1[i] : d.mu0[i]) + rng->Normal(0, 0.1);
  }
  return d;
}

NetConfig SmallNet() {
  NetConfig net;
  net.rep_hidden = {16};
  net.rep_dim = 8;
  net.head_hidden = {8};
  return net;
}

TrainConfig FastTrain(uint64_t seed = 11) {
  TrainConfig t;
  t.epochs = 60;
  t.batch_size = 64;
  t.learning_rate = 3e-3;
  t.patience = 60;  // no early stop on the tiny toy
  t.alpha = 0.2;
  t.lambda = 1e-5;
  t.seed = seed;
  return t;
}

TEST(RepOutcomeNetTest, ShapesAndIteComputation) {
  Rng rng(4);
  RepOutcomeNet net(&rng, SmallNet(), 6);
  CausalDataset d = ToyDgp(&rng, 50);
  net.x_scaler().Fit(d.x);
  net.y_scaler().Fit(d.y);
  Matrix reps = net.Representations(d.x);
  EXPECT_EQ(reps.rows(), 50);
  EXPECT_EQ(reps.cols(), 8);
  // Cosine-normalized tanh representations stay within (-1, 1).
  for (int64_t i = 0; i < reps.size(); ++i) {
    ASSERT_LT(std::fabs(reps.data()[i]), 1.0);
  }
  Vector ite = net.PredictIte(d.x);
  Vector y1 = net.PredictOutcome(d.x, 1);
  Vector y0 = net.PredictOutcome(d.x, 0);
  for (int i = 0; i < 50; ++i) EXPECT_NEAR(ite[i], y1[i] - y0[i], 1e-9);
}

TEST(RepOutcomeNetTest, CopyParametersMatchesOutputs) {
  Rng rng1(5), rng2(6);
  RepOutcomeNet a(&rng1, SmallNet(), 6);
  RepOutcomeNet b(&rng2, SmallNet(), 6);
  CausalDataset d = ToyDgp(&rng1, 20);
  a.x_scaler().Fit(d.x);
  a.y_scaler().Fit(d.y);
  b.CopyParametersFrom(a);
  EXPECT_EQ(Matrix::MaxAbsDiff(a.Representations(d.x),
                               b.Representations(d.x)),
            0.0);
}

// CFR trains through core::CerlTrainer: a trainer configured for a CFR
// strategy runs Eq. 5 as the baseline stage of its first domain.
core::CerlConfig CfrConfig(core::Strategy s) {
  return core::CfrTrainerConfig(s, {SmallNet(), FastTrain()});
}

TEST(CfrTest, TrainingImprovesPeheOverInit) {
  Rng rng(7);
  DataSplit split;
  split.train = ToyDgp(&rng, 600);
  split.valid = ToyDgp(&rng, 150);
  CausalDataset test = ToyDgp(&rng, 300);
  core::CerlTrainer trainer(CfrConfig(core::Strategy::kA), 6);
  // BeginStage builds the model and fits its scalers, so the untrained
  // evaluation sits between it and TrainStage.
  auto stage = trainer.BeginStage(split);
  const CausalMetrics before = trainer.Evaluate(test);
  TrainStats stats = trainer.TrainStage(stage.get());
  trainer.MigrateStage(stage.get());
  const CausalMetrics after = trainer.Evaluate(test);
  EXPECT_GT(stats.epochs_run, 0);
  EXPECT_LT(after.pehe, before.pehe);
  // True ITE std is 1; a trained model should be well under that error.
  EXPECT_LT(after.pehe, 0.75);
  EXPECT_LT(after.ate_error, 0.4);
}

TEST(CfrTest, ContinualStageKeepsXScaler) {
  Rng rng(8);
  DataSplit first;
  first.train = ToyDgp(&rng, 300);
  first.valid = ToyDgp(&rng, 100);
  core::CerlTrainer trainer(CfrConfig(core::Strategy::kB), 6);
  trainer.ObserveDomain(first);
  // CFR-B's continual stage warm-starts from the previous model, scalers
  // included (no refit): verify by checking the transformed output of a
  // fixed point.
  Matrix probe(1, 6, 0.5);
  Matrix before = trainer.current_net()->x_scaler().Apply(probe);
  DataSplit second;
  second.train = ToyDgp(&rng, 300);
  second.valid = ToyDgp(&rng, 100);
  trainer.ObserveDomain(second);
  Matrix after = trainer.current_net()->x_scaler().Apply(probe);
  EXPECT_EQ(Matrix::MaxAbsDiff(before, after), 0.0);
}

TEST(StrategiesTest, NamesAndStageEvalShape) {
  EXPECT_STREQ(core::StrategyName(core::Strategy::kA), "CFR-A");
  EXPECT_STREQ(core::StrategyName(core::Strategy::kB), "CFR-B");
  EXPECT_STREQ(core::StrategyName(core::Strategy::kC), "CFR-C");

  Rng rng(9);
  std::vector<DataSplit> stream;
  for (int d = 0; d < 2; ++d) {
    stream.push_back(data::SplitDataset(ToyDgp(&rng, 300), &rng));
  }
  core::StrategyConfig config;
  config.net = SmallNet();
  config.train = FastTrain();
  config.train.epochs = 15;
  core::StrategyRunResult result =
      core::RunCfrStrategy(core::Strategy::kA, stream, config);
  ASSERT_EQ(result.stages.size(), 2u);
  EXPECT_EQ(result.stages[0].per_domain.size(), 1u);
  EXPECT_EQ(result.stages[1].per_domain.size(), 2u);
  EXPECT_GT(result.final_stage().pooled.pehe, 0.0);
}

TEST(BuildFactualLossTest, SingleGroupBatchIsHandled) {
  Rng rng(10);
  RepOutcomeNet net(&rng, SmallNet(), 6);
  CausalDataset d = ToyDgp(&rng, 12);
  std::vector<int> all_treated(12, 1);
  net.x_scaler().Fit(d.x);
  net.y_scaler().Fit(d.y);
  autodiff::Tape tape;
  autodiff::Var x = tape.Constant(net.x_scaler().Apply(d.x));
  FactualForward fwd = BuildFactualLoss(&net, &tape, x, all_treated,
                                        net.y_scaler().Transform(d.y));
  EXPECT_EQ(fwd.n_treated, 12);
  EXPECT_EQ(fwd.n_control, 0);
  EXPECT_EQ(fwd.rep_control.rows(), 0);
  EXPECT_TRUE(std::isfinite(fwd.loss.scalar()));
  tape.Backward(fwd.loss);  // Must not crash with an empty group.
}

// The scratch overload (tape-aliased targets, reused split buffers) must
// produce the same loss and gradients as the per-call-local path, and must
// keep the tape arena allocation-free across steady-state re-recordings.
TEST(BuildFactualLossTest, ScratchPathMatchesLocalAndIsZeroChurn) {
  Rng rng(11);
  RepOutcomeNet net(&rng, SmallNet(), 6);
  CausalDataset d = ToyDgp(&rng, 24);
  net.x_scaler().Fit(d.x);
  net.y_scaler().Fit(d.y);
  const Matrix x_scaled = net.x_scaler().Apply(d.x);
  const Vector y_scaled = net.y_scaler().Transform(d.y);

  double local_loss = 0.0;
  {
    autodiff::Tape tape;
    FactualForward fwd = BuildFactualLoss(
        &net, &tape, tape.Constant(x_scaled), d.t, y_scaled);
    local_loss = fwd.loss.scalar();
  }

  autodiff::Tape tape;
  FactualScratch scratch;
  int64_t allocs = -1;
  for (int step = 0; step < 4; ++step) {
    tape.Reset();
    FactualForward fwd = BuildFactualLoss(
        &net, &tape, tape.Constant(x_scaled), d.t, y_scaled, &scratch);
    EXPECT_DOUBLE_EQ(fwd.loss.scalar(), local_loss);
    tape.Backward(fwd.loss);
    if (step == 0) {
      allocs = tape.arena_allocations();
    } else {
      EXPECT_EQ(tape.arena_allocations(), allocs) << "step " << step;
    }
  }
}

}  // namespace
}  // namespace cerl::causal
