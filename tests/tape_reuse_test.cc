// Tape arena reuse: Reset() + re-record must be bit-identical to a fresh
// tape (same values, same gradients) for every hot op, must tolerate shape
// and topology changes between passes, and must perform zero tape-node
// Matrix allocations in steady state. Also grad-checks (central
// differences) the in-place backward rewrites on composite expressions
// that chain every touched op.
#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "autodiff/composite.h"
#include "autodiff/ops.h"
#include "autodiff/tape.h"
#include "causal/cfr.h"
#include "grad_check.h"
#include "nn/mlp.h"
#include "nn/optim.h"
#include "ot/ipm.h"
#include "util/rng.h"

namespace cerl::autodiff {
namespace {

using linalg::Matrix;

Matrix RandomMatrix(Rng* rng, int rows, int cols) {
  Matrix m(rows, cols);
  for (int64_t i = 0; i < m.size(); ++i) m.data()[i] = rng->Uniform(-1.5, 1.5);
  return m;
}

// A loss expression over two leaves; every rewritten-in-place backward op
// appears: MatMul/MatMulBt, Add/Sub/Mul, broadcasts, scalar ops, the
// elementwise family, reductions, Transpose/ConcatRows/GatherRows.
Var EveryOpLoss(Tape* tape, Var a, Var b) {
  Var cat = ConcatRows(a, b);                       // 6 x 4
  Var picked = GatherRows(cat, {0, 5, 2, 2});       // reuse a row
  Var prod = MatMul(Transpose(picked), picked);     // 4 x 4
  Var sym = MatMulBt(prod, prod);                   // 4 x 4
  Var bias = tape->Constant(Matrix(1, 4, 0.25));
  Var shifted = AddRowBroadcast(sym, bias);
  Var scaled = MulColBroadcast(shifted, RowSum(Tanh(sym)));
  Var mixed = Mul(Sub(scaled, prod), Add(prod, prod));
  Var acts = Add(Sigmoid(mixed), Elu(ScalarMul(mixed, 0.5)));
  Var pos = ScalarAdd(Square(acts), 1.0);
  Var logs = Add(Log(pos), Sqrt(pos));
  Var more = Add(Add(Exp(ScalarMul(logs, 0.1)), Reciprocal(pos)), Abs(mixed));
  Var red = Add(Add(Sum(more), Mean(more)), Sum(ColSum(more)));
  return red;
}

TEST(TapeReuseTest, EveryOpGradCheck) {
  Rng rng(40);
  CheckGradients(
      {RandomMatrix(&rng, 3, 4), RandomMatrix(&rng, 3, 4)},
      [](Tape* tape, const std::vector<Var>& v) {
        return EveryOpLoss(tape, v[0], v[1]);
      },
      1e-4, 1e-6);
}

// Runs `build` on a fresh tape and on a dirtied-then-Reset tape; values and
// leaf gradients must match bit for bit.
void ExpectReuseBitIdentical(
    const std::vector<Matrix>& inputs,
    const std::function<Var(Tape*, const std::vector<Var>&)>& build) {
  auto run = [&](Tape* tape, Matrix* loss, std::vector<Matrix>* grads) {
    std::vector<Var> leaves;
    for (const auto& m : inputs) leaves.push_back(tape->Leaf(m));
    Var out = build(tape, leaves);
    tape->Backward(out);
    *loss = out.value();
    grads->clear();
    for (const Var& leaf : leaves) grads->push_back(leaf.grad());
  };

  Matrix fresh_loss;
  std::vector<Matrix> fresh_grads;
  {
    Tape fresh;
    run(&fresh, &fresh_loss, &fresh_grads);
  }

  Tape reused;
  {
    // Dirty the arena with a different topology and different shapes first.
    Rng rng(7);
    Var x = reused.Leaf(RandomMatrix(&rng, 5, 3));
    reused.Backward(Sum(Relu(MatMulBt(x, x))));
  }
  for (int pass = 0; pass < 3; ++pass) {
    reused.Reset();
    Matrix loss;
    std::vector<Matrix> grads;
    run(&reused, &loss, &grads);
    ASSERT_EQ(loss.rows(), fresh_loss.rows());
    EXPECT_EQ(loss(0, 0), fresh_loss(0, 0)) << "pass " << pass;
    ASSERT_EQ(grads.size(), fresh_grads.size());
    for (size_t i = 0; i < grads.size(); ++i) {
      ASSERT_TRUE(grads[i].SameShape(fresh_grads[i]));
      for (int64_t e = 0; e < grads[i].size(); ++e) {
        ASSERT_EQ(grads[i].data()[e], fresh_grads[i].data()[e])
            << "pass " << pass << " input " << i << " element " << e;
      }
    }
  }
}

TEST(TapeReuseTest, ReusedTapeBitIdenticalToFreshEveryOp) {
  Rng rng(41);
  ExpectReuseBitIdentical(
      {RandomMatrix(&rng, 3, 4), RandomMatrix(&rng, 3, 4)},
      [](Tape* tape, const std::vector<Var>& v) {
        return EveryOpLoss(tape, v[0], v[1]);
      });
}

TEST(TapeReuseTest, ReusedTapeBitIdenticalToFreshMlpStyleLoss) {
  Rng rng(42);
  ExpectReuseBitIdentical(
      {RandomMatrix(&rng, 6, 5), RandomMatrix(&rng, 5, 3),
       RandomMatrix(&rng, 1, 3), RandomMatrix(&rng, 6, 3)},
      [](Tape*, const std::vector<Var>& v) {
        Var h = Elu(AddRowBroadcast(MatMul(v[0], v[1]), v[2]));
        return MseLoss(h, v[3]);
      });
}

TEST(TapeReuseTest, ParamBindingAccumulatesAcrossResets) {
  Parameter p(Matrix(2, 2, 3.0), "w");
  Tape tape;
  for (int pass = 0; pass < 3; ++pass) {
    tape.Reset();
    Var w1 = tape.Param(&p);
    Var w2 = tape.Param(&p);
    Var loss = Add(Sum(Square(w1)), Sum(w2));  // d/dw = 2w + 1 = 7
    p.ZeroGrad();
    tape.Backward(loss);
    for (int64_t i = 0; i < p.grad.size(); ++i) {
      EXPECT_DOUBLE_EQ(p.grad.data()[i], 7.0) << "pass " << pass;
    }
  }
}

TEST(TapeReuseTest, ShapeChangeAcrossResetsStaysCorrect) {
  Rng rng(43);
  Tape tape;
  for (int rows : {8, 3, 8, 5}) {
    Matrix m = RandomMatrix(&rng, rows, 4);
    tape.Reset();
    Var x = tape.Leaf(m);
    Var loss = Sum(Square(x));
    tape.Backward(loss);
    double expect = 0.0;
    for (int64_t i = 0; i < m.size(); ++i) expect += m.data()[i] * m.data()[i];
    EXPECT_DOUBLE_EQ(loss.scalar(), expect);
    for (int64_t i = 0; i < m.size(); ++i) {
      EXPECT_DOUBLE_EQ(x.grad().data()[i], 2.0 * m.data()[i]);
    }
  }
}

TEST(TapeReuseTest, GatherIndicesChangePerPass) {
  Rng rng(44);
  Matrix m = RandomMatrix(&rng, 6, 3);
  Tape tape;
  for (int shift = 0; shift < 3; ++shift) {
    tape.Reset();
    std::vector<int> idx = {shift, shift + 1, shift};
    Var x = tape.Leaf(m);
    Var g = GatherRows(x, idx);
    tape.Backward(Sum(g));
    for (int r = 0; r < 6; ++r) {
      const double expected = (r == shift) ? 2.0 : (r == shift + 1 ? 1.0 : 0.0);
      for (int c = 0; c < 3; ++c) EXPECT_DOUBLE_EQ(x.grad()(r, c), expected);
    }
  }
}

// The zero-churn acceptance property: after warm-up, a fixed-topology
// training step performs no tape-node Matrix allocations at all.
TEST(TapeReuseTest, SteadyStateTrainingStepAllocatesNothing) {
  Rng rng(45);
  nn::MlpConfig config;
  config.dims = {20, 12, 4, 1};
  nn::Mlp mlp(&rng, config);
  nn::Adam opt(mlp.Parameters(), 1e-3);
  Matrix x = RandomMatrix(&rng, 16, 20);
  Matrix y = RandomMatrix(&rng, 16, 1);

  Tape tape;
  auto step = [&] {
    tape.Reset();
    Var out = mlp.Forward(&tape, tape.ConstantView(&x));
    Var loss = MseLoss(out, tape.ConstantView(&y));
    opt.ZeroGrad();
    tape.Backward(loss);
    opt.Step();
  };

  step();  // warm-up allocates the arena
  step();  // second pass settles any lazily-created grad buffers
  const int64_t warm = tape.arena_allocations();
  EXPECT_GT(warm, 0);
  for (int i = 0; i < 50; ++i) step();
  EXPECT_EQ(tape.arena_allocations(), warm)
      << "steady-state steps must not allocate tape-node matrices";
}

// Shape churn: the treated/control split of every CFR/CERL batch differs,
// so the split-dependent nodes change shape between passes. Reshaping in
// place within retained capacity must make the arena allocation-free once
// both shapes have been seen, with values and gradients still bitwise equal
// to a fresh tape's.
TEST(TapeReuseTest, AlternatingTreatedSplitStopsAllocating) {
  Rng rng(46);
  causal::NetConfig config;
  config.rep_hidden = {32};
  config.rep_dim = 16;
  config.head_hidden = {32};
  causal::RepOutcomeNet net(&rng, config, /*input_dim=*/8);
  std::vector<Parameter*> params = net.Parameters();

  struct Batch {
    Matrix x;
    std::vector<int> t;
    linalg::Vector y;
  };
  auto make_batch = [&rng](int n_treated, int n_control) {
    Batch b;
    const int n = n_treated + n_control;
    b.x = RandomMatrix(&rng, n, 8);
    b.t.assign(n, 0);
    const std::vector<int> perm = rng.Permutation(n);  // scatter the arms
    for (int i = 0; i < n_treated; ++i) b.t[perm[i]] = 1;
    for (int i = 0; i < n; ++i) b.y.push_back(rng.Uniform(-1.0, 1.0));
    return b;
  };
  const Batch batches[2] = {make_batch(60, 68), make_batch(70, 58)};
  for (const Batch& b : batches) {
    int treated = 0;
    for (int ti : b.t) treated += ti;
    ASSERT_TRUE(treated == 60 || treated == 70);
  }

  // One factual + pairwise-distance step; returns loss and every gradient.
  auto step = [&](Tape* tape, const Batch& b, causal::FactualScratch* scratch,
                  std::vector<Matrix>* grads) {
    for (Parameter* p : params) p->ZeroGrad();
    Var x = tape->ConstantView(&b.x);
    causal::FactualForward fwd =
        causal::BuildFactualLoss(&net, tape, x, b.t, b.y, scratch);
    Var dist = ot::PairwiseSquaredDistancesVar(fwd.rep_treated,
                                               fwd.rep_control);
    Var loss = Add(fwd.loss, ScalarMul(Mean(dist), 0.25));
    tape->Backward(loss);
    grads->clear();
    for (Parameter* p : params) grads->push_back(p->grad);
    return loss.scalar();
  };

  Tape tape;
  causal::FactualScratch scratch;
  int64_t after_second = 0;
  for (int pass = 0; pass < 8; ++pass) {
    const Batch& b = batches[pass % 2];
    std::vector<Matrix> fresh_grads;
    double fresh_loss;
    {
      Tape fresh;
      causal::FactualScratch fresh_scratch;
      fresh_loss = step(&fresh, b, &fresh_scratch, &fresh_grads);
    }
    tape.Reset();
    std::vector<Matrix> grads;
    const double loss = step(&tape, b, &scratch, &grads);
    EXPECT_EQ(loss, fresh_loss) << "pass " << pass;
    ASSERT_EQ(grads.size(), fresh_grads.size());
    for (size_t i = 0; i < grads.size(); ++i) {
      ASSERT_TRUE(grads[i].SameShape(fresh_grads[i]));
      for (int64_t e = 0; e < grads[i].size(); ++e) {
        ASSERT_EQ(grads[i].data()[e], fresh_grads[i].data()[e])
            << "pass " << pass << " param " << i << " element " << e;
      }
    }
    if (pass == 1) after_second = tape.arena_allocations();
    if (pass >= 2) {
      EXPECT_EQ(tape.arena_allocations(), after_second)
          << "pass " << pass << " reallocated on a split flip";
    }
  }
  EXPECT_GT(after_second, 0);
}

// Leases nest LIFO on one thread: each nesting level gets its own tape, and
// a released tape comes back empty (Reset) to the next lease.
TEST(TapeReuseTest, NestedLeasesGetDistinctResetTapes) {
  Tape* outer_tape = nullptr;
  {
    TapeLease outer;
    outer_tape = outer.get();
    Parameter p(Matrix(1, 1, 2.0), "p");
    outer->Param(&p);
    TapeLease inner;
    EXPECT_NE(inner.get(), outer.get());
    EXPECT_EQ(inner->size(), 0);
    inner->Leaf(Matrix(2, 2, 1.0));
  }
  TapeLease again;
  EXPECT_EQ(again->size(), 0);
  TapeLease second;
  EXPECT_NE(again.get(), second.get());
  EXPECT_TRUE(again.get() == outer_tape || second.get() == outer_tape);
}

TEST(TapeReuseTest, ConstantViewAliasesWithoutCopy) {
  Matrix m(2, 2, 1.0);
  Tape tape;
  Var v = tape.ConstantView(&m);
  m(0, 0) = 42.0;  // visible through the alias: no snapshot was taken
  EXPECT_DOUBLE_EQ(v.value()(0, 0), 42.0);
}

}  // namespace
}  // namespace cerl::autodiff
