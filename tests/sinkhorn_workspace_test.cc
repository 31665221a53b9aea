// Tests for the SinkhornWorkspace hot path: agreement with the reference
// solver, warm-start equivalence and iteration savings, zero-allocation
// steady state, the log-domain fallback, and the workspace-threaded
// Wasserstein penalty.
#include <gtest/gtest.h>

#include <cmath>

#include "autodiff/ops.h"
#include "linalg/ops.h"
#include "ot/ipm.h"
#include "ot/sinkhorn.h"
#include "ot/workspace_pool.h"
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

// Mimics one SGD step's representation drift.
void Drift(Rng* rng, Matrix* reps, double scale) {
  for (int64_t i = 0; i < reps->size(); ++i) {
    reps->data()[i] += rng->Normal(0.0, scale);
  }
}

Matrix CostOf(const Matrix& a, const Matrix& b) {
  return linalg::PairwiseSquaredDistances(a, b);
}

TEST(SinkhornWorkspaceTest, ColdSolveMatchesReferenceSolver) {
  Rng rng(1);
  Matrix a = RandomMatrix(&rng, 13, 5);
  Matrix b = RandomMatrix(&rng, 9, 5, 0.7);
  Matrix cost = CostOf(a, b);
  SinkhornConfig config;

  auto reference = SolveSinkhorn(cost, config);
  ASSERT_TRUE(reference.ok());

  SinkhornWorkspace ws;
  auto info = SolveSinkhorn(cost, config, &ws);
  ASSERT_TRUE(info.ok());
  EXPECT_FALSE(info.value().warm_started);
  EXPECT_FALSE(info.value().used_log_domain);
  EXPECT_NEAR(info.value().cost, reference.value().cost,
              1e-6 * (1.0 + std::fabs(reference.value().cost)));
  EXPECT_LT(Matrix::MaxAbsDiff(ws.plan(), reference.value().plan), 1e-6);
}

TEST(SinkhornWorkspaceTest, WarmStartMatchesColdWithinTolerance) {
  Rng rng(2);
  Matrix a = RandomMatrix(&rng, 16, 8);
  Matrix b = RandomMatrix(&rng, 16, 8, 0.5);
  SinkhornConfig config;

  SinkhornWorkspace warm_ws;
  ASSERT_TRUE(SolveSinkhorn(CostOf(a, b), config, &warm_ws).ok());

  Drift(&rng, &a, 1e-3);
  Matrix drifted_cost = CostOf(a, b);
  auto warm = SolveSinkhorn(drifted_cost, config, &warm_ws);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm.value().warm_started);

  SinkhornWorkspace cold_ws;
  auto cold = SolveSinkhorn(drifted_cost, config, &cold_ws);
  ASSERT_TRUE(cold.ok());
  EXPECT_FALSE(cold.value().warm_started);

  // Both are fixed points of the same problem within the solver tolerance.
  EXPECT_NEAR(warm.value().cost, cold.value().cost,
              1e-4 * (1.0 + std::fabs(cold.value().cost)));
  EXPECT_LT(Matrix::MaxAbsDiff(warm_ws.plan(), cold_ws.plan()), 1e-4);
  // And the plan still has the uniform marginals — both sides: a
  // zero-iteration warm accept must not trade exact columns (the cold
  // solver's invariant) for stale duals.
  const Matrix& plan = warm_ws.plan();
  for (int i = 0; i < plan.rows(); ++i) {
    double row = 0.0;
    for (int j = 0; j < plan.cols(); ++j) row += plan(i, j);
    EXPECT_NEAR(row, 1.0 / plan.rows(), 1e-4);
  }
  for (int j = 0; j < plan.cols(); ++j) {
    double col = 0.0;
    for (int i = 0; i < plan.rows(); ++i) col += plan(i, j);
    EXPECT_NEAR(col, 1.0 / plan.cols(), 1e-4);
  }
}

TEST(SinkhornWorkspaceTest, WarmStartCutsIterations) {
  Rng rng(3);
  Matrix a = RandomMatrix(&rng, 24, 8);
  Matrix b = RandomMatrix(&rng, 24, 8, 1.0);
  SinkhornConfig config;

  SinkhornWorkspace ws;
  auto first = SolveSinkhorn(CostOf(a, b), config, &ws);
  ASSERT_TRUE(first.ok());
  const int cold_iterations = first.value().iterations;
  EXPECT_GT(cold_iterations, 1);

  int total_warm = 0;
  for (int step = 0; step < 5; ++step) {
    Drift(&rng, &a, 1e-4);
    auto warm = SolveSinkhorn(CostOf(a, b), config, &ws);
    ASSERT_TRUE(warm.ok());
    EXPECT_TRUE(warm.value().warm_started);
    EXPECT_LT(warm.value().iterations, cold_iterations);
    total_warm += warm.value().iterations;
  }
  // Representations drift slowly between steps => several-fold fewer
  // iterations on average (usually zero or one per warm solve).
  EXPECT_LT(total_warm, 5 * cold_iterations / 2);
}

TEST(SinkhornWorkspaceTest, SteadyStateAllocatesNothing) {
  Rng rng(4);
  Matrix a = RandomMatrix(&rng, 20, 6);
  Matrix b = RandomMatrix(&rng, 15, 6, 0.4);
  SinkhornConfig config;

  SinkhornWorkspace ws;
  ASSERT_TRUE(SolveSinkhorn(CostOf(a, b), config, &ws).ok());
  const int64_t after_first = ws.allocations();
  EXPECT_GT(after_first, 0);
  for (int step = 0; step < 10; ++step) {
    Drift(&rng, &a, 1e-3);
    ASSERT_TRUE(SolveSinkhorn(CostOf(a, b), config, &ws).ok());
    EXPECT_EQ(ws.allocations(), after_first);
  }
}

TEST(SinkhornWorkspaceTest, ShapesBelowHighWaterReuseBuffers) {
  Rng rng(5);
  SinkhornConfig config;
  SinkhornWorkspace ws;
  // Establish the high-water shape, then alternate smaller/transposed
  // shapes: no further growth is allowed.
  Matrix big_a = RandomMatrix(&rng, 32, 6);
  Matrix big_b = RandomMatrix(&rng, 32, 6, 0.3);
  ASSERT_TRUE(SolveSinkhorn(CostOf(big_a, big_b), config, &ws).ok());
  const int64_t high_water = ws.allocations();
  for (int step = 0; step < 6; ++step) {
    const int n1 = 8 + 4 * (step % 3);
    const int n2 = 32 - 4 * (step % 3);
    Matrix a = RandomMatrix(&rng, n1, 6);
    Matrix b = RandomMatrix(&rng, n2, 6, 0.3);
    auto info = SolveSinkhorn(CostOf(a, b), config, &ws);
    ASSERT_TRUE(info.ok());
    // Shape changed => duals are adapted (truncate / pad-with-1.0), so the
    // solve still counts as warm-started, and no new buffers appear.
    EXPECT_TRUE(info.value().warm_started);
    EXPECT_EQ(ws.allocations(), high_water);
  }
}

TEST(SinkhornWorkspaceTest, AdaptiveWarmStartOffGoesColdOnShapeChange) {
  Rng rng(5);
  SinkhornConfig config;
  config.adaptive_warm_start = false;
  SinkhornWorkspace ws;
  Matrix big_a = RandomMatrix(&rng, 24, 6);
  Matrix big_b = RandomMatrix(&rng, 20, 6, 0.3);
  ASSERT_TRUE(SolveSinkhorn(CostOf(big_a, big_b), config, &ws).ok());
  // With adaptation disabled, a shape change must fall back to a cold
  // start (the pre-adaptive contract).
  Matrix a = RandomMatrix(&rng, 12, 6);
  Matrix b = RandomMatrix(&rng, 16, 6, 0.3);
  auto info = SolveSinkhorn(CostOf(a, b), config, &ws);
  ASSERT_TRUE(info.ok());
  EXPECT_FALSE(info.value().warm_started);
}

TEST(SinkhornWorkspaceTest, AdaptedWarmStartMatchesReferenceSolution) {
  Rng rng(13);
  SinkhornConfig config;
  Matrix big_a = RandomMatrix(&rng, 26, 5);
  Matrix big_b = RandomMatrix(&rng, 22, 5, 0.4);
  SinkhornWorkspace ws;
  ASSERT_TRUE(SolveSinkhorn(CostOf(big_a, big_b), config, &ws).ok());
  // Shrinking and growing both dimensions across solves: every adapted
  // solve must land on the same plan as a cold-started workspace within
  // the solver tolerance (adaptation may only change the starting point).
  const int shapes[][2] = {{12, 30}, {30, 12}, {26, 22}};
  for (const auto& s : shapes) {
    Matrix a = RandomMatrix(&rng, s[0], 5);
    Matrix b = RandomMatrix(&rng, s[1], 5, 0.4);
    Matrix cost = CostOf(a, b);
    auto adapted = SolveSinkhorn(cost, config, &ws);
    SinkhornWorkspace cold_ws;
    auto cold = SolveSinkhorn(cost, config, &cold_ws);
    ASSERT_TRUE(adapted.ok());
    ASSERT_TRUE(cold.ok());
    EXPECT_TRUE(adapted.value().warm_started);
    EXPECT_NEAR(adapted.value().cost, cold.value().cost,
                1e-4 * std::max(1.0, std::fabs(cold.value().cost)));
  }
}

TEST(SinkhornWorkspaceTest, LogDomainFallbackAndWarmStartDrop) {
  Rng rng(7);
  Matrix a = RandomMatrix(&rng, 15, 3);
  Matrix b = RandomMatrix(&rng, 15, 3, 5.0);  // Large costs.
  SinkhornConfig config;
  // Small enough that the scaling iteration cannot reach the tolerance
  // (verified against the reference solver, which also falls back here).
  config.reg_fraction = 0.002;

  SinkhornWorkspace ws;
  auto info = SolveSinkhorn(CostOf(a, b), config, &ws);
  ASSERT_TRUE(info.ok());
  EXPECT_TRUE(info.value().used_log_domain);
  EXPECT_TRUE(std::isfinite(info.value().cost));
  EXPECT_GT(info.value().cost, 0.0);
  // The scaling duals are invalid after a log-domain solve; the next solve
  // must not claim a warm start.
  auto next = SolveSinkhorn(CostOf(a, b), config, &ws);
  ASSERT_TRUE(next.ok());
  EXPECT_FALSE(next.value().warm_started);
}

// The pool's reason to exist: on a stream of heterogeneous treated/control
// splits, one workspace never warm-starts (the shape changes every solve),
// while the shape-keyed pool warm-starts every revisit of a shape.
TEST(SinkhornWorkspacePoolTest, WarmStartsFireAcrossHeterogeneousShapes) {
  Rng rng(12);
  SinkhornConfig config;
  // Two alternating split shapes, as adjacent minibatches produce.
  Matrix a_small = RandomMatrix(&rng, 12, 6);
  Matrix b_small = RandomMatrix(&rng, 20, 6, 0.4);
  Matrix a_big = RandomMatrix(&rng, 16, 6);
  Matrix b_big = RandomMatrix(&rng, 16, 6, 0.4);

  SinkhornWorkspace single;
  SinkhornWorkspacePool pool;
  int single_warm = 0, pool_warm = 0;
  const int kSteps = 10;
  for (int step = 0; step < kSteps; ++step) {
    Matrix& a = step % 2 == 0 ? a_small : a_big;
    Matrix& b = step % 2 == 0 ? b_small : b_big;
    Drift(&rng, &a, 1e-3);
    const Matrix cost = CostOf(a, b);

    auto single_info = SolveSinkhorn(cost, config, &single);
    ASSERT_TRUE(single_info.ok());
    single_warm += single_info.value().warm_started ? 1 : 0;

    auto pooled_info =
        SolveSinkhorn(cost, config, pool.Acquire(a.rows(), b.rows()));
    ASSERT_TRUE(pooled_info.ok());
    pool_warm += pooled_info.value().warm_started ? 1 : 0;
  }
  // The single workspace alternates shapes: every solve after the first is
  // shape-adapted rather than cold (exact-shape warm starts never fire).
  EXPECT_EQ(single_warm, kSteps - 1);
  // The pool warm-starts every solve after each shape's first visit, with
  // exact-shape duals (no adaptation needed).
  EXPECT_EQ(pool_warm, kSteps - 2);
  EXPECT_GT(pool.warm_acquires(), 0);
  EXPECT_GT(pool.warm_hit_rate(), 0.0);
  EXPECT_EQ(pool.size(), 2);
  EXPECT_EQ(pool.evictions(), 0);
}

TEST(SinkhornWorkspacePoolTest, BoundedLruEvictsAndStaysCorrect) {
  Rng rng(13);
  SinkhornConfig config;
  SinkhornWorkspacePool pool(/*capacity=*/2);
  // Three shapes cycling through a capacity-2 pool: each acquire misses
  // (its shape was evicted a step ago) but solves stay correct.
  for (int step = 0; step < 9; ++step) {
    const int n1 = 8 + 4 * (step % 3);
    Matrix a = RandomMatrix(&rng, n1, 5);
    Matrix b = RandomMatrix(&rng, 10, 5, 0.3);
    SinkhornWorkspace* ws = pool.Acquire(n1, 10);
    auto info = SolveSinkhorn(CostOf(a, b), config, ws);
    ASSERT_TRUE(info.ok());
    auto reference = SolveSinkhorn(CostOf(a, b), config);
    ASSERT_TRUE(reference.ok());
    EXPECT_NEAR(info.value().cost, reference.value().cost,
                1e-6 * (1.0 + std::fabs(reference.value().cost)));
  }
  EXPECT_EQ(pool.size(), 2);
  EXPECT_GT(pool.evictions(), 0);
  EXPECT_EQ(pool.warm_acquires(), 0);  // every revisit was evicted already
}

TEST(SinkhornWorkspaceTest, EmptyCostRejected) {
  SinkhornWorkspace ws;
  SinkhornConfig config;
  EXPECT_FALSE(SolveSinkhorn(Matrix(0, 3), config, &ws).ok());
  EXPECT_FALSE(SolveSinkhorn(Matrix(3, 0), config, &ws).ok());
}

TEST(WassersteinPenaltyWorkspaceTest, MatchesLegacyValueAndGradient) {
  Rng rng(8);
  SinkhornConfig config;
  Matrix fixed = RandomMatrix(&rng, 12, 4);
  Matrix moving_init = RandomMatrix(&rng, 10, 4, 1.5);

  autodiff::Parameter legacy_param(moving_init, "legacy");
  autodiff::Parameter ws_param(moving_init, "ws");
  SinkhornWorkspace ws;

  Tape legacy_tape;
  Var legacy_pen = WassersteinPenalty(legacy_tape.Param(&legacy_param),
                                      legacy_tape.Constant(fixed), config);
  legacy_param.ZeroGrad();
  legacy_tape.Backward(legacy_pen);

  Tape ws_tape;
  Var ws_pen = WassersteinPenalty(ws_tape.Param(&ws_param),
                                  ws_tape.Constant(fixed), config, &ws);
  ws_param.ZeroGrad();
  ws_tape.Backward(ws_pen);

  EXPECT_NEAR(ws_pen.scalar(), legacy_pen.scalar(),
              1e-6 * (1.0 + std::fabs(legacy_pen.scalar())));
  EXPECT_LT(Matrix::MaxAbsDiff(ws_param.grad, legacy_param.grad), 1e-5);
}

TEST(WassersteinPenaltyWorkspaceTest, SteadyStateStepIsZeroChurn) {
  Rng rng(9);
  SinkhornConfig config;
  Matrix fixed = RandomMatrix(&rng, 14, 4);
  autodiff::Parameter moving(RandomMatrix(&rng, 14, 4, 2.0), "m");

  Tape tape;
  SinkhornWorkspace ws;
  int64_t tape_allocs = -1, ws_allocs = -1;
  double first = 0.0, last = 0.0;
  for (int step = 0; step < 12; ++step) {
    tape.Reset();
    Var pen = WassersteinPenalty(tape.Param(&moving),
                                 tape.ConstantView(&fixed), config, &ws);
    if (step == 0) first = pen.scalar();
    last = pen.scalar();
    moving.ZeroGrad();
    tape.Backward(pen);
    for (int64_t i = 0; i < moving.value.size(); ++i) {
      moving.value.data()[i] -= 0.05 * moving.grad.data()[i];
    }
    if (step == 0) {
      tape_allocs = tape.arena_allocations();
      ws_allocs = ws.allocations();
    } else {
      // Fixed batch shape => neither the tape arena nor the Sinkhorn
      // workspace may allocate after the first step.
      EXPECT_EQ(tape.arena_allocations(), tape_allocs) << "step " << step;
      EXPECT_EQ(ws.allocations(), ws_allocs) << "step " << step;
    }
  }
  // And the optimization still works (the groups move together).
  EXPECT_LT(last, first);
}

TEST(WassersteinPenaltyWorkspaceTest, IpmPenaltyDispatchThreadsWorkspace) {
  Rng rng(10);
  SinkhornConfig config;
  Tape tape;
  SinkhornWorkspace ws;
  Var a = tape.Constant(RandomMatrix(&rng, 6, 3));
  Var b = tape.Constant(RandomMatrix(&rng, 8, 3, 1.0));
  EXPECT_GT(
      IpmPenalty(IpmKind::kWasserstein, a, b, config, &ws).scalar(), 0.0);
  EXPECT_TRUE(ws.has_warm_start(6, 8));
  // The MMD branch must ignore (and not disturb) the workspace.
  EXPECT_GT(IpmPenalty(IpmKind::kLinearMmd, a, b, config, &ws).scalar(), 0.0);
  EXPECT_TRUE(ws.has_warm_start(6, 8));
}

}  // namespace
}  // namespace cerl::ot
