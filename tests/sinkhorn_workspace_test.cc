// Tests for the Sinkhorn hot path: agreement with the reference solver,
// warm-start equivalence and iteration savings, zero-allocation steady
// state, the log-domain fallback, the duals-only pool (against a pool of
// whole workspaces), and the fused Wasserstein penalty node (against the
// unfused chain, bit for bit).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "autodiff/ops.h"
#include "ipm_chain_oracle.h"
#include "linalg/ops.h"
#include "linalg/simd.h"
#include "ot/ipm.h"
#include "ot/sinkhorn.h"
#include "ot/workspace_pool.h"
#include "util/keyed_pool.h"
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
    SinkhornLease lease = pool.Acquire(n1, 10);
    auto info = SolveSinkhorn(CostOf(a, b), config, lease);
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
  Var legacy_pen = testing::WassersteinPenaltyChain(
      legacy_tape.Param(&legacy_param), legacy_tape.Constant(fixed), config);
  legacy_param.ZeroGrad();
  legacy_tape.Backward(legacy_pen);

  Tape ws_tape;
  Var ws_pen = WassersteinPenalty(ws_tape.Param(&ws_param),
                                  ws_tape.Constant(fixed), config, ws.lease());
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
                                 tape.ConstantView(&fixed), config,
                                 ws.lease());
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
      IpmPenalty(IpmKind::kWasserstein, a, b, config, ws.lease()).scalar(),
      0.0);
  EXPECT_TRUE(ws.has_warm_start(6, 8));
  // The MMD branch must ignore (and not disturb) the workspace.
  EXPECT_GT(IpmPenalty(IpmKind::kLinearMmd, a, b, config, ws.lease()).scalar(),
            0.0);
  EXPECT_TRUE(ws.has_warm_start(6, 8));
}

// --- fused penalty node against the unfused chain --------------------------

bool SameBits(const Matrix& x, const Matrix& y) {
  return x.SameShape(y) &&
         std::memcmp(x.data(), y.data(), sizeof(double) * x.size()) == 0;
}

bool SameBits(double x, double y) {
  return std::memcmp(&x, &y, sizeof(double)) == 0;
}

// Representations with edge values mixed in: exact zeros, +-0, duplicated
// rows (zero-cost pairs), tiny and subnormal entries, and a far outlier row
// whose Gibbs-kernel entries underflow (zero plan entries, so dC = fma(g,
// 0, 0) and its sign of zero matter).
Matrix EdgeReps(Rng* rng, int rows, int cols, double shift) {
  Matrix m = RandomMatrix(rng, rows, cols, shift);
  for (int i = 0; i < rows; ++i) {
    for (int c = 0; c < cols; ++c) {
      switch ((i + c) % 9) {
        case 0: m(i, c) = 0.0; break;
        case 1: m(i, c) = -0.0; break;
        case 2: m(i, c) = std::numeric_limits<double>::denorm_min(); break;
        case 3: m(i, c) = 1e-160; break;
        default: break;
      }
    }
  }
  if (rows > 2) {
    for (int c = 0; c < cols; ++c) m(1, c) = m(0, c);
  }
  if (rows > 3) {
    for (int c = 0; c < cols; ++c) m(rows - 1, c) = 40.0;
  }
  return m;
}

// Inputs of one penalty: each side is a Param (requires grad) or a
// ConstantView, optionally concatenated with a detached memory block the
// way CerlTrainer joins memory representations to the global IPM.
struct SideSpec {
  int rows;
  int mem_rows;  // 0: no memory concat
  bool grad;
};

Var BuildSide(Tape* tape, autodiff::Parameter* p, const Matrix& mem,
              const SideSpec& spec) {
  Var x = spec.grad ? tape->Param(p) : tape->ConstantView(&p->value);
  if (spec.mem_rows > 0) x = autodiff::ConcatRows(x, tape->Constant(mem));
  return x;
}

// Value, gA and gB of the fused node equal the chain's bit for bit, in both
// kernel tables, with and without requires_grad on either side, on the
// memory-concat shapes, 1 x n and n x 1, and through a sequence of warm
// solves (the fused node and the chain each own a workspace that sees the
// same problems). The root is scaled by +1, -0.5 and 0 so dC sees positive,
// negative and zero upstream gradients.
TEST(WassersteinPenaltyFusedTest, MatchesChainBitwise) {
  const SideSpec shapes[][2] = {
      {{13, 0, true}, {9, 0, true}},    {{1, 0, true}, {7, 0, true}},
      {{7, 0, true}, {1, 0, true}},     {{1, 0, true}, {1, 0, true}},
      {{20, 0, true}, {3, 0, false}},   {{5, 0, false}, {18, 0, true}},
      {{6, 0, false}, {6, 0, false}},   {{37, 12, true}, {29, 11, true}},
      {{0, 16, false}, {44, 16, true}}, {{64, 0, true}, {51, 0, true}},
  };
  const double root_scales[] = {1.0, -0.5, 0.0};
  for (bool scalar : {false, true}) {
    linalg::simd::ForceScalarForTesting(scalar);
    for (const auto& spec : shapes) {
      Rng rng(101);
      const int d = 6;
      // A 0-row side with memory models a batch whose new half is empty.
      autodiff::Parameter pa(EdgeReps(&rng, std::max(1, spec[0].rows), d, 0.0));
      autodiff::Parameter pb(EdgeReps(&rng, std::max(1, spec[1].rows), d, 0.6));
      autodiff::Parameter qa(pa.value), qb(pb.value);
      const Matrix mem_a = RandomMatrix(&rng, spec[0].mem_rows, d, 0.2);
      const Matrix mem_b = RandomMatrix(&rng, spec[1].mem_rows, d, 0.4);
      SideSpec sa = spec[0], sb = spec[1];
      if (sa.rows == 0) sa.grad = false;
      SinkhornConfig config;
      SinkhornWorkspace fused_ws, chain_ws;
      Tape fused_tape, chain_tape;
      for (int step = 0; step < 6; ++step) {
        const double k = root_scales[step % 3];
        fused_tape.Reset();
        chain_tape.Reset();
        Var fa = BuildSide(&fused_tape, &pa, mem_a, sa);
        Var fb = BuildSide(&fused_tape, &pb, mem_b, sb);
        Var ca = BuildSide(&chain_tape, &qa, mem_a, sa);
        Var cb = BuildSide(&chain_tape, &qb, mem_b, sb);
        const int nodes_before = fused_tape.size();
        Var fused = WassersteinPenalty(fa, fb, config, fused_ws.lease());
        // One 1 x 1 node: the tape holds no n1 x n2 buffer.
        ASSERT_EQ(fused_tape.size(), nodes_before + 1);
        ASSERT_EQ(fused.rows(), 1);
        ASSERT_EQ(fused.cols(), 1);
        Var chain = testing::WassersteinPenaltyChain(ca, cb, config, &chain_ws);
        ASSERT_TRUE(SameBits(fused.scalar(), chain.scalar()))
            << fused.scalar() << " vs " << chain.scalar();
        pa.ZeroGrad();
        pb.ZeroGrad();
        qa.ZeroGrad();
        qb.ZeroGrad();
        Var froot = autodiff::ScalarMul(fused, k);
        Var croot = autodiff::ScalarMul(chain, k);
        if (fused_tape.RequiresGrad(froot.id())) {
          fused_tape.Backward(froot);
          chain_tape.Backward(croot);
        }
        EXPECT_TRUE(SameBits(pa.grad, qa.grad))
            << (scalar ? "scalar " : "active ") << sa.rows << "x" << sb.rows
            << " step " << step;
        EXPECT_TRUE(SameBits(pb.grad, qb.grad))
            << (scalar ? "scalar " : "active ") << sa.rows << "x" << sb.rows
            << " step " << step;
        // Drift both copies identically so later solves warm-start.
        for (int64_t i = 0; i < pa.value.size(); ++i) {
          pa.value.data()[i] -= 0.01 * pa.grad.data()[i];
          qa.value.data()[i] = pa.value.data()[i];
        }
        for (int64_t i = 0; i < pb.value.size(); ++i) {
          pb.value.data()[i] -= 0.01 * pb.grad.data()[i];
          qb.value.data()[i] = pb.value.data()[i];
        }
      }
    }
  }
  linalg::simd::ForceScalarForTesting(false);
}

// --- duals-only pool against a pool of whole workspaces ---------------------

// The pool before the split: one full SinkhornWorkspace (own kernel, plan
// and duals) per (n1, n2) key, in the same LRU.
class WholeWorkspacePool {
 public:
  SinkhornWorkspace* Acquire(int n1, int n2) {
    const uint64_t key =
        (static_cast<uint64_t>(static_cast<uint32_t>(n1)) << 32) |
        static_cast<uint32_t>(n2);
    return pool_.Acquire(key,
                         [] { return std::make_unique<SinkhornWorkspace>(); });
  }

 private:
  KeyedLruPool<SinkhornWorkspace> pool_{SinkhornWorkspacePool::kDefaultCapacity};
};

// More than 8 shapes, revisited in an order that produces hits, misses,
// recycled records (the LRU hands an evicted shape's duals to a new key)
// and adaptive warm starts: every solve must give the oracle's plan and
// cost bits, and the same iteration count and warm/cold outcome.
TEST(SinkhornWorkspacePoolTest, DualsOnlyPoolMatchesWholeWorkspacePool) {
  Rng rng(31);
  SinkhornConfig config;
  SinkhornWorkspacePool pool;
  WholeWorkspacePool oracle;
  const int d = 5;
  int warm = 0, adapted_or_recycled = 0;
  for (int step = 0; step < 60; ++step) {
    // 12 shapes; a skewed walk so some stay resident and others recycle.
    const int s = step % 5 == 0 ? (step / 5) % 12 : (step * 7) % 4;
    const int n1 = 9 + 3 * s;
    const int n2 = 40 - 2 * s;
    const Matrix cost =
        CostOf(RandomMatrix(&rng, n1, d), RandomMatrix(&rng, n2, d, 0.3));
    const SinkhornLease lease = pool.Acquire(n1, n2);
    SinkhornWorkspace* whole = oracle.Acquire(n1, n2);
    if (!lease.duals->has_warm_start(n1, n2) &&
        lease.duals->warm_rows > 0) {
      ++adapted_or_recycled;
    }
    auto got = SolveSinkhorn(cost, config, lease);
    auto want = SolveSinkhorn(cost, config, whole);
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(want.ok());
    EXPECT_TRUE(SameBits(got.value().cost, want.value().cost)) << step;
    EXPECT_TRUE(SameBits(lease.scratch->plan(), whole->plan())) << step;
    EXPECT_EQ(got.value().iterations, want.value().iterations) << step;
    EXPECT_EQ(got.value().warm_started, want.value().warm_started) << step;
    warm += got.value().warm_started ? 1 : 0;
  }
  EXPECT_GT(pool.evictions(), 0);
  EXPECT_GT(pool.warm_acquires(), 0);
  EXPECT_GT(adapted_or_recycled, 0);
  EXPECT_GT(warm, 0);
  EXPECT_EQ(pool.size(), SinkhornWorkspacePool::kDefaultCapacity);
}

// The pool's n1 x n2 memory is one scratch however many shapes it serves:
// after the largest shape, the penalty's cost buffer, the kernel and the
// plan (plus K·v and Kᵀ·u) are allocated once, and no later shape adds a
// buffer. A pool of whole workspaces would hold a kernel and a plan per
// retained shape.
TEST(SinkhornWorkspacePoolTest, OneKernelAndPlanForAllShapes) {
  Rng rng(37);
  SinkhornConfig config;
  SinkhornWorkspacePool pool;
  Tape tape;
  const int d = 4;
  int64_t after_largest = -1;
  for (int step = 0; step < 40; ++step) {
    const int n1 = step == 0 ? 48 : 10 + (step * 5) % 37;
    const int n2 = step == 0 ? 48 : 47 - (step * 3) % 29;
    autodiff::Parameter reps(RandomMatrix(&rng, n1, d));
    const Matrix other = RandomMatrix(&rng, n2, d, 0.5);
    tape.Reset();
    Var pen = WassersteinPenalty(tape.Param(&reps), tape.ConstantView(&other),
                                 config, pool.Acquire(n1, n2));
    reps.ZeroGrad();
    tape.Backward(pen);
    if (step == 0) {
      after_largest = pool.scratch().allocations();
      // cost/dC, kernel, plan, K·v, Kᵀ·u: one each.
      EXPECT_EQ(after_largest, 5);
    }
    EXPECT_EQ(pool.scratch().allocations(), after_largest) << step;
  }
  EXPECT_GT(pool.evictions(), 0);
}

}  // namespace
}  // namespace cerl::ot
