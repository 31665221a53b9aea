// Tests for the CERL core: memory bank semantics (append/transform/reduce,
// group balance, capacity), the transformation network, the continual
// trainer on a toy shifted stream (knowledge retention vs fine-tuning,
// memory invariants, ablation configurations), and the CFR strategies as
// trainer configurations.
#include <gtest/gtest.h>

#include <cmath>

#include "core/cerl_trainer.h"
#include "core/memory_bank.h"
#include "core/strategies.h"
#include "core/transform_net.h"
#include "autodiff/composite.h"
#include "nn/optim.h"
#include "util/rng.h"

namespace cerl::core {
namespace {

using data::CausalDataset;
using data::DataSplit;
using linalg::Matrix;
using linalg::Vector;

Matrix RandomReps(Rng* rng, int n, int d) {
  Matrix m(n, d);
  for (int64_t i = 0; i < m.size(); ++i) m.data()[i] = rng->Normal();
  return m;
}

TEST(MemoryBankTest, AppendAccumulates) {
  Rng rng(1);
  MemoryBank bank;
  EXPECT_TRUE(bank.empty());
  bank.Append(RandomReps(&rng, 5, 3), Vector(5, 1.0), {1, 0, 1, 0, 1});
  bank.Append(RandomReps(&rng, 4, 3), Vector(4, 2.0), {0, 0, 1, 1});
  EXPECT_EQ(bank.size(), 9);
  EXPECT_EQ(bank.num_treated(), 5);
  EXPECT_EQ(bank.rep_dim(), 3);
  EXPECT_DOUBLE_EQ(bank.y()[7], 2.0);
}

TEST(MemoryBankTest, ReduceRespectsCapacityAndBalance) {
  Rng rng(2);
  MemoryBank bank;
  // 40 treated, 60 control.
  std::vector<int> t(100);
  for (int i = 0; i < 100; ++i) t[i] = i < 40 ? 1 : 0;
  bank.Append(RandomReps(&rng, 100, 4), Vector(100, 0.0), t);
  bank.Reduce(20, /*use_herding=*/true, &rng);
  EXPECT_EQ(bank.size(), 20);
  EXPECT_EQ(bank.num_treated(), 10);  // Same number per group.
}

TEST(MemoryBankTest, ReduceGivesLeftoverToLargerGroup) {
  Rng rng(3);
  MemoryBank bank;
  // Only 3 treated: the treated side cannot fill its half of 20.
  std::vector<int> t(100);
  for (int i = 0; i < 100; ++i) t[i] = i < 3 ? 1 : 0;
  bank.Append(RandomReps(&rng, 100, 4), Vector(100, 0.0), t);
  bank.Reduce(20, /*use_herding=*/true, &rng);
  EXPECT_EQ(bank.size(), 20);  // Capacity fully used.
  EXPECT_EQ(bank.num_treated(), 3);
}

TEST(MemoryBankTest, ReduceNoopUnderCapacity) {
  Rng rng(4);
  MemoryBank bank;
  bank.Append(RandomReps(&rng, 10, 4), Vector(10, 0.0),
              std::vector<int>(10, 1));
  bank.Reduce(50, true, &rng);
  EXPECT_EQ(bank.size(), 10);
}

TEST(MemoryBankTest, RandomReductionAlsoBalanced) {
  Rng rng(5);
  MemoryBank bank;
  std::vector<int> t(60);
  for (int i = 0; i < 60; ++i) t[i] = i % 2;
  bank.Append(RandomReps(&rng, 60, 4), Vector(60, 0.0), t);
  bank.Reduce(30, /*use_herding=*/false, &rng);
  EXPECT_EQ(bank.size(), 30);
  EXPECT_EQ(bank.num_treated(), 15);
}

TEST(MemoryBankTest, TransformMapsReps) {
  Rng rng(6);
  MemoryBank bank;
  bank.Append(RandomReps(&rng, 8, 3), Vector(8, 0.0),
              std::vector<int>(8, 0));
  bank.Transform([](const Matrix& reps) {
    Matrix out = reps;
    out.Scale(2.0);
    return out;
  });
  EXPECT_EQ(bank.rep_dim(), 3);
  // y and t untouched, reps scaled.
  EXPECT_EQ(bank.size(), 8);
}

TEST(MemoryBankTest, SampleBatchInRange) {
  Rng rng(7);
  MemoryBank bank;
  bank.Append(RandomReps(&rng, 12, 2), Vector(12, 0.0),
              std::vector<int>(12, 1));
  auto idx = bank.SampleBatch(40, &rng);
  EXPECT_EQ(idx.size(), 40u);
  for (int i : idx) EXPECT_TRUE(i >= 0 && i < 12);
}

TEST(TransformNetTest, ShapesAndBoundedOutput) {
  Rng rng(8);
  TransformNet phi(&rng, 6, {10});
  Matrix reps = RandomReps(&rng, 15, 6);
  Matrix mapped = phi.Apply(reps);
  EXPECT_EQ(mapped.rows(), 15);
  EXPECT_EQ(mapped.cols(), 6);
  for (int64_t i = 0; i < mapped.size(); ++i) {
    ASSERT_LT(std::fabs(mapped.data()[i]), 1.0);
  }
  EXPECT_FALSE(phi.Parameters().empty());
}

TEST(TransformNetTest, CanLearnIdentityOnBoundedReps) {
  // phi should be able to fit a simple map (here: identity on tanh-bounded
  // representations) — the capability L_FT relies on.
  Rng rng(9);
  TransformNet phi(&rng, 4, {});
  Matrix reps(40, 4);
  for (int64_t i = 0; i < reps.size(); ++i) {
    reps.data()[i] = std::tanh(rng.Normal());
  }
  nn::Adam opt(phi.Parameters(), 0.05);
  double loss_val = 1.0;
  for (int step = 0; step < 300; ++step) {
    autodiff::Tape tape;
    autodiff::Var in = tape.Constant(reps);
    autodiff::Var out = phi.Forward(&tape, in);
    autodiff::Var loss = autodiff::MseLoss(out, tape.Constant(reps));
    loss_val = loss.scalar();
    opt.ZeroGrad();
    tape.Backward(loss);
    opt.Step();
  }
  EXPECT_LT(loss_val, 0.01);
}

// Toy DGP with a controllable covariate mean shift between domains. The
// outcome mechanism is deliberately nonlinear (sin/cos): a model fine-tuned
// only on the shifted region then extrapolates badly back to the original
// region, i.e. genuine catastrophic forgetting — the failure mode CERL's
// distillation + memory replay exist to prevent. (With a globally linear
// mechanism, fine-tuning would extrapolate fine and there would be nothing
// to retain.)
CausalDataset ShiftedToy(Rng* rng, int n, double shift) {
  const int p = 8;
  CausalDataset d;
  d.x = Matrix(n, p);
  d.t.resize(n);
  d.y.resize(n);
  d.mu0.resize(n);
  d.mu1.resize(n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < p; ++j) d.x(i, j) = rng->Normal(shift, 1.0);
    const double tau = 1.0 + std::sin(d.x(i, 0));
    d.mu0[i] = std::sin(d.x(i, 1)) + std::cos(d.x(i, 2));
    d.mu1[i] = d.mu0[i] + tau;
    const double prop =
        1.0 / (1.0 + std::exp(-(0.7 * d.x(i, 0) + 0.7 * d.x(i, 3) -
                                1.4 * shift)));
    d.t[i] = rng->Uniform() < prop ? 1 : 0;
    d.y[i] = (d.t[i] == 1 ? d.mu1[i] : d.mu0[i]) + rng->Normal(0, 0.1);
  }
  return d;
}

CerlConfig FastCerlConfig() {
  CerlConfig c;
  c.net.rep_hidden = {16};
  c.net.rep_dim = 8;
  c.net.head_hidden = {8};
  c.train.epochs = 50;
  c.train.batch_size = 64;
  c.train.learning_rate = 3e-3;
  c.train.patience = 50;
  c.train.alpha = 0.2;
  c.train.lambda = 1e-5;
  c.train.seed = 33;
  c.memory_capacity = 120;
  return c;
}

std::vector<DataSplit> MakeShiftedStream(uint64_t seed, double shift) {
  Rng rng(seed);
  std::vector<DataSplit> stream;
  stream.push_back(data::SplitDataset(ShiftedToy(&rng, 500, 0.0), &rng));
  stream.push_back(data::SplitDataset(ShiftedToy(&rng, 500, shift), &rng));
  return stream;
}

TEST(CerlTrainerTest, BaselineStageBuildsMemory) {
  auto stream = MakeShiftedStream(10, 2.0);
  CerlConfig config = FastCerlConfig();
  CerlTrainer trainer(config, 8);
  trainer.ObserveDomain(stream[0]);
  EXPECT_EQ(trainer.stages_seen(), 1);
  EXPECT_FALSE(trainer.memory().empty());
  EXPECT_LE(trainer.memory().size(), config.memory_capacity);
  EXPECT_EQ(trainer.memory().rep_dim(), config.net.rep_dim);
  // Baseline should already estimate effects on its own domain.
  auto metrics = trainer.Evaluate(stream[0].test);
  EXPECT_LT(metrics.pehe, 1.0);  // Predict-zero baseline would be ~1.2.
}

TEST(CerlTrainerTest, ContinualStageKeepsBothDomainsUsable) {
  auto stream = MakeShiftedStream(11, 2.0);
  CerlConfig config = FastCerlConfig();
  CerlTrainer trainer(config, 8);
  trainer.ObserveDomain(stream[0]);
  trainer.ObserveDomain(stream[1]);
  EXPECT_EQ(trainer.stages_seen(), 2);
  EXPECT_LE(trainer.memory().size(), config.memory_capacity);

  auto prev = trainer.Evaluate(stream[0].test);
  auto neu = trainer.Evaluate(stream[1].test);
  EXPECT_TRUE(std::isfinite(prev.pehe));
  EXPECT_TRUE(std::isfinite(neu.pehe));
  // Both domains should beat the trivial predict-zero PEHE (~1.2 given
  // tau = 1 + 0.5 x0 with x0 ~ N(0 or 2, 1)).
  EXPECT_LT(neu.pehe, 1.1);
  EXPECT_LT(prev.pehe, 1.1);
}

// The tape of one CERL continual step (Eq. 9: factual loss, distillation,
// transformation, memory replay, IPM and elastic net) holds exactly this
// many nodes. One epoch with a batch larger than the training split makes
// the stage a single step. Each nn::Linear layer (with ELU, tanh or no
// activation) records one LinearAct node; as MatMul -> AddRowBroadcast ->
// activation the same step recorded 159 nodes. The Wasserstein penalty is
// one node; as PairwiseSquaredDistances -> ConstantView(plan) -> Mul -> Sum
// it was four (141 nodes).
TEST(CerlTrainerTest, ContinualStepTapeNodeCount) {
  auto stream = MakeShiftedStream(12, 2.0);
  CerlConfig config = FastCerlConfig();
  config.train.epochs = 1;
  config.train.batch_size = 1000;
  CerlTrainer trainer(config, 8);
  trainer.ObserveDomain(stream[0]);
  const causal::TrainStats stats = trainer.ObserveDomain(stream[1]);
  ASSERT_EQ(stats.steps, 1);
  EXPECT_EQ(stats.tape_nodes, 138);
}

// The baseline stage (Eq. 5) runs the continual stage's loss builder
// without the distillation/transformation terms and without memory replay,
// and gathers only x_train: one step records exactly this many nodes.
TEST(CerlTrainerTest, BaselineStepTapeNodeCount) {
  auto stream = MakeShiftedStream(12, 2.0);
  CerlConfig config = FastCerlConfig();
  config.train.epochs = 1;
  config.train.batch_size = 1000;
  CerlTrainer trainer(config, 8);
  const causal::TrainStats stats = trainer.ObserveDomain(stream[0]);
  ASSERT_EQ(stats.steps, 1);
  EXPECT_EQ(stats.tape_nodes, 58);
}

// Every stage reads only t and y of the validation split, so a first domain
// whose validation split carries no mu0/mu1 (which ValidateDomain accepts)
// trains — to the same model as with the ground truth present.
TEST(CerlTrainerTest, FirstDomainWithoutValidationGroundTruthTrains) {
  auto stream = MakeShiftedStream(15, 2.0);
  CerlConfig config = FastCerlConfig();
  config.train.epochs = 10;
  DataSplit no_truth = stream[0];
  no_truth.valid.mu0.clear();
  no_truth.valid.mu1.clear();
  ASSERT_TRUE(CerlTrainer::ValidateDomain(no_truth, 8).ok());
  CerlTrainer trainer(config, 8);
  const causal::TrainStats stats = trainer.ObserveDomain(no_truth);
  EXPECT_EQ(trainer.stages_seen(), 1);
  EXPECT_GT(stats.epochs_run, 0);
  CerlTrainer reference(config, 8);
  reference.ObserveDomain(stream[0]);
  EXPECT_EQ(trainer.PredictIte(stream[0].test.x),
            reference.PredictIte(stream[0].test.x));
}

TEST(CerlTrainerTest, MemoryNeverStoresRawCovariates) {
  auto stream = MakeShiftedStream(12, 1.5);
  CerlConfig config = FastCerlConfig();
  CerlTrainer trainer(config, 8);
  trainer.ObserveDomain(stream[0]);
  trainer.ObserveDomain(stream[1]);
  // Representation dim (8) != covariate dim (8 here by coincidence would be
  // bad luck; assert on the documented invariant instead): stored vectors
  // are bounded representations, not unbounded raw covariates.
  const Matrix& reps = trainer.memory().reps();
  for (int64_t i = 0; i < reps.size(); ++i) {
    ASSERT_LE(std::fabs(reps.data()[i]), 1.0);
  }
}

TEST(CerlTrainerTest, AblationConfigurationsRun) {
  auto stream = MakeShiftedStream(13, 1.5);
  for (int ablation = 0; ablation < 3; ++ablation) {
    CerlConfig config = FastCerlConfig();
    config.train.epochs = 12;
    if (ablation == 0) config.use_transform = false;
    if (ablation == 1) config.use_herding = false;
    if (ablation == 2) config.net.cosine_normalized_rep = false;
    CerlTrainer trainer(config, 8);
    trainer.ObserveDomain(stream[0]);
    trainer.ObserveDomain(stream[1]);
    auto metrics = trainer.Evaluate(stream[0].test);
    EXPECT_TRUE(std::isfinite(metrics.pehe)) << "ablation " << ablation;
    if (ablation == 0) {
      EXPECT_TRUE(trainer.memory().empty());  // w/o FRT keeps no memory.
    }
  }
}

TEST(CerlTrainerTest, RetainsPreviousDomainBetterThanFineTuning) {
  // The headline claim at small scale: under covariate shift with a
  // nonlinear mechanism, CERL's previous-domain error stays below plain
  // fine-tuning (CFR-B), which forgets. Averaged over seeds to be robust.
  double cerl_prev = 0.0, finetune_prev = 0.0;
  const int seeds = 3;
  for (int s = 0; s < seeds; ++s) {
    auto stream = MakeShiftedStream(100 + s, 3.0);
    CerlConfig config = FastCerlConfig();
    config.train.seed = 200 + s;
    CerlTrainer trainer(config, 8);
    trainer.ObserveDomain(stream[0]);
    trainer.ObserveDomain(stream[1]);
    cerl_prev += trainer.Evaluate(stream[0].test).pehe;

    StrategyConfig strat;
    strat.net = config.net;
    strat.train = config.train;
    auto result = RunCfrStrategy(Strategy::kB, stream, strat);
    finetune_prev += result.final_stage().per_domain[0].pehe;
  }
  EXPECT_LT(cerl_prev / seeds, finetune_prev / seeds);
}

// CFR-A is the baseline stage of every CERL configuration: after each
// domain its metrics equal, bitwise, those of a default CerlTrainer that
// observed domain 0 (whose memory seeding draws on the trainer's own RNG,
// not on the model's).
TEST(CfrStrategyTest, CfrAIsTheCerlBaselineStageBitwise) {
  auto stream = MakeShiftedStream(14, 2.0);
  CerlConfig config = FastCerlConfig();
  config.train.epochs = 20;
  CerlTrainer trainer(config, 8);
  trainer.ObserveDomain(stream[0]);
  StrategyConfig strat;
  strat.net = config.net;
  strat.train = config.train;
  const StrategyRunResult run = RunCfrStrategy(Strategy::kA, stream, strat);
  ASSERT_EQ(run.stages.size(), stream.size());
  for (const StageEval& stage : run.stages) {
    for (size_t j = 0; j < stage.per_domain.size(); ++j) {
      const causal::CausalMetrics m = trainer.Evaluate(stream[j].test);
      EXPECT_EQ(stage.per_domain[j].pehe, m.pehe) << "domain " << j;
      EXPECT_EQ(stage.per_domain[j].ate_error, m.ate_error) << "domain " << j;
    }
  }
}

}  // namespace
}  // namespace cerl::core
