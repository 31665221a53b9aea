// Tests for optimal transport: Sinkhorn marginal feasibility, limiting
// behaviour (identical sets, singletons, translations), and the
// differentiable IPM penalties (values and gradients).
#include <gtest/gtest.h>

#include <cmath>

#include "autodiff/ops.h"
#include "grad_check.h"
#include "linalg/ops.h"
#include "ot/ipm.h"
#include "ot/sinkhorn.h"
#include "util/rng.h"

namespace cerl::ot {
namespace {

using autodiff::Tape;
using autodiff::Var;
using linalg::Matrix;

Matrix RandomMatrix(Rng* rng, int rows, int cols, double shift = 0.0) {
  Matrix m(rows, cols);
  for (int64_t i = 0; i < m.size(); ++i) {
    m.data()[i] = rng->Normal(shift, 1.0);
  }
  return m;
}

TEST(SinkhornTest, PlanHasUniformMarginals) {
  Rng rng(1);
  Matrix a = RandomMatrix(&rng, 7, 3);
  Matrix b = RandomMatrix(&rng, 11, 3, 0.5);
  SinkhornConfig config;
  auto result = SolveSinkhorn(linalg::PairwiseSquaredDistances(a, b), config);
  ASSERT_TRUE(result.ok());
  const Matrix& plan = result.value().plan;
  for (int i = 0; i < 7; ++i) {
    double row = 0.0;
    for (int j = 0; j < 11; ++j) row += plan(i, j);
    EXPECT_NEAR(row, 1.0 / 7, 1e-4);
  }
  for (int j = 0; j < 11; ++j) {
    double col = 0.0;
    for (int i = 0; i < 7; ++i) col += plan(i, j);
    EXPECT_NEAR(col, 1.0 / 11, 1e-4);
  }
}

TEST(SinkhornTest, IdenticalSetsNearZeroCost) {
  Rng rng(2);
  Matrix a = RandomMatrix(&rng, 10, 4);
  SinkhornConfig config;
  auto d = SinkhornDistance(a, a, config);
  ASSERT_TRUE(d.ok());
  // Entropic smoothing keeps it slightly above 0 but well below the mean
  // pairwise cost.
  double mean_cost = 0.0;
  Matrix c = linalg::PairwiseSquaredDistances(a, a);
  for (int64_t i = 0; i < c.size(); ++i) mean_cost += c.data()[i];
  mean_cost /= c.size();
  EXPECT_LT(d.value(), 0.25 * mean_cost);
}

TEST(SinkhornTest, SingletonMatchesSquaredDistance) {
  Matrix a = {{0.0, 0.0}};
  Matrix b = {{3.0, 4.0}};
  SinkhornConfig config;
  auto d = SinkhornDistance(a, b, config);
  ASSERT_TRUE(d.ok());
  EXPECT_NEAR(d.value(), 25.0, 1e-9);  // Only one feasible plan.
}

TEST(SinkhornTest, TranslationIncreasesCost) {
  Rng rng(3);
  Matrix a = RandomMatrix(&rng, 20, 5);
  Matrix near = RandomMatrix(&rng, 20, 5, 0.2);
  Matrix far = RandomMatrix(&rng, 20, 5, 2.0);
  SinkhornConfig config;
  auto d_near = SinkhornDistance(a, near, config);
  auto d_far = SinkhornDistance(a, far, config);
  ASSERT_TRUE(d_near.ok());
  ASSERT_TRUE(d_far.ok());
  EXPECT_GT(d_far.value(), d_near.value());
}

TEST(SinkhornTest, EmptyInputRejected) {
  SinkhornConfig config;
  EXPECT_FALSE(SolveSinkhorn(Matrix(0, 3), config).ok());
  EXPECT_FALSE(SinkhornDistance(Matrix(0, 2), Matrix(3, 2), config).ok());
}

TEST(SinkhornTest, SmallRegularizationStaysFinite) {
  Rng rng(4);
  Matrix a = RandomMatrix(&rng, 15, 3);
  Matrix b = RandomMatrix(&rng, 15, 3, 5.0);  // Large costs.
  SinkhornConfig config;
  config.reg_fraction = 0.005;  // Stress: drives the scaling path to under-
  auto d = SinkhornDistance(a, b, config);  // flow, exercising the fallback.
  ASSERT_TRUE(d.ok());
  EXPECT_TRUE(std::isfinite(d.value()));
  EXPECT_GT(d.value(), 0.0);
}

TEST(PairwiseVarTest, MatchesNumericValues) {
  Rng rng(5);
  Matrix a = RandomMatrix(&rng, 6, 4);
  Matrix b = RandomMatrix(&rng, 9, 4);
  Tape tape;
  Var d = PairwiseSquaredDistancesVar(tape.Constant(a), tape.Constant(b));
  Matrix expect = linalg::PairwiseSquaredDistances(a, b);
  EXPECT_LT(Matrix::MaxAbsDiff(d.value(), expect), 1e-9);
}

TEST(PairwiseVarTest, GradientCheck) {
  Rng rng(6);
  autodiff::CheckGradients(
      {RandomMatrix(&rng, 4, 3), RandomMatrix(&rng, 5, 3)},
      [](Tape*, const std::vector<Var>& v) {
        return autodiff::Sum(
            autodiff::Square(PairwiseSquaredDistancesVar(v[0], v[1])));
      },
      1e-5);
}

TEST(MmdTest, ZeroForIdenticalDistributionsAndGradient) {
  Rng rng(7);
  Matrix a = RandomMatrix(&rng, 8, 3);
  {
    Tape tape;
    Var penalty = LinearMmdPenalty(tape.Constant(a), tape.Constant(a));
    EXPECT_NEAR(penalty.scalar(), 0.0, 1e-12);
  }
  autodiff::CheckGradients(
      {RandomMatrix(&rng, 5, 3), RandomMatrix(&rng, 7, 3)},
      [](Tape*, const std::vector<Var>& v) {
        return LinearMmdPenalty(v[0], v[1]);
      },
      1e-5);
}

TEST(WassersteinPenaltyTest, DecreasesAsDistributionsAlign) {
  Rng rng(8);
  SinkhornConfig config;
  Matrix a = RandomMatrix(&rng, 12, 4);
  Matrix close = RandomMatrix(&rng, 12, 4, 0.3);
  Matrix far = RandomMatrix(&rng, 12, 4, 3.0);
  Tape tape;
  SinkhornWorkspace ws_close, ws_far;
  Var pen_close = WassersteinPenalty(tape.Constant(a), tape.Constant(close),
                                     config, ws_close.lease());
  Var pen_far = WassersteinPenalty(tape.Constant(a), tape.Constant(far),
                                   config, ws_far.lease());
  EXPECT_GT(pen_far.scalar(), pen_close.scalar());
  EXPECT_GT(pen_close.scalar(), 0.0);
}

TEST(WassersteinPenaltyTest, GradientPullsGroupsTogether) {
  // Minimizing the penalty by gradient descent on one group must shrink the
  // separation — a behavioural check on the (envelope-style) gradient.
  Rng rng(9);
  SinkhornConfig config;
  Matrix fixed = RandomMatrix(&rng, 10, 3);
  autodiff::Parameter moving(RandomMatrix(&rng, 10, 3, 4.0), "m");
  double initial = 0.0, final = 0.0;
  SinkhornWorkspace ws;
  for (int step = 0; step < 60; ++step) {
    Tape tape;
    Var pen = WassersteinPenalty(tape.Param(&moving), tape.Constant(fixed),
                                 config, ws.lease());
    if (step == 0) initial = pen.scalar();
    final = pen.scalar();
    moving.ZeroGrad();
    tape.Backward(pen);
    for (int64_t i = 0; i < moving.value.size(); ++i) {
      moving.value.data()[i] -= 0.1 * moving.grad.data()[i];
    }
  }
  EXPECT_LT(final, 0.2 * initial);
}

TEST(IpmPenaltyTest, EmptyGroupYieldsZero) {
  Tape tape;
  SinkhornConfig config;
  Var empty = tape.Constant(Matrix(0, 3));
  Var some = tape.Constant(Matrix(4, 3, 1.0));
  SinkhornWorkspace ws;
  EXPECT_DOUBLE_EQ(
      IpmPenalty(IpmKind::kWasserstein, empty, some, config, ws.lease())
          .scalar(),
      0.0);
  EXPECT_DOUBLE_EQ(
      IpmPenalty(IpmKind::kLinearMmd, some, empty, config, ws.lease())
          .scalar(),
      0.0);
}

TEST(IpmPenaltyTest, DispatchesBothKinds) {
  Rng rng(10);
  Tape tape;
  SinkhornConfig config;
  Var a = tape.Constant(RandomMatrix(&rng, 6, 3));
  Var b = tape.Constant(RandomMatrix(&rng, 8, 3, 1.0));
  SinkhornWorkspace ws;
  EXPECT_GT(
      IpmPenalty(IpmKind::kWasserstein, a, b, config, ws.lease()).scalar(),
      0.0);
  EXPECT_GT(IpmPenalty(IpmKind::kLinearMmd, a, b, config, ws.lease()).scalar(),
            0.0);
}

}  // namespace
}  // namespace cerl::ot
