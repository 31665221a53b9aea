// Gradient correctness for every autodiff primitive and composite, checked
// against central differences, plus tape-mechanics tests (parameter
// binding, gradient accumulation across multiple uses).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>

#include "autodiff/composite.h"
#include "autodiff/ops.h"
#include "autodiff/tape.h"
#include "grad_check.h"
#include "linalg/simd.h"
#include "util/rng.h"

namespace cerl::autodiff {
namespace {

using linalg::Matrix;

Matrix RandomMatrix(Rng* rng, int rows, int cols, double lo = -1.5,
                    double hi = 1.5) {
  Matrix m(rows, cols);
  for (int64_t i = 0; i < m.size(); ++i) m.data()[i] = rng->Uniform(lo, hi);
  return m;
}

// Keeps values away from non-smooth points (|x| > margin).
Matrix RandomSignedAwayFromZero(Rng* rng, int rows, int cols,
                                double margin = 0.2) {
  Matrix m(rows, cols);
  for (int64_t i = 0; i < m.size(); ++i) {
    const double sign = rng->Uniform() < 0.5 ? -1.0 : 1.0;
    m.data()[i] = sign * rng->Uniform(margin, 1.5);
  }
  return m;
}

Matrix RandomPositive(Rng* rng, int rows, int cols, double lo = 0.3,
                      double hi = 2.0) {
  return RandomMatrix(rng, rows, cols, lo, hi);
}

TEST(TapeTest, ScalarOfOneByOne) {
  Tape tape;
  Var v = tape.Constant(Matrix(1, 1, 3.5));
  EXPECT_DOUBLE_EQ(v.scalar(), 3.5);
}

TEST(TapeTest, ParamGradientFlushedToParameter) {
  Parameter p(Matrix(2, 2, 1.0), "w");
  Tape tape;
  Var w = tape.Param(&p);
  Var loss = Sum(Square(w));
  p.ZeroGrad();
  tape.Backward(loss);
  // d/dw sum(w^2) = 2w = 2.
  for (int64_t i = 0; i < p.grad.size(); ++i) {
    EXPECT_DOUBLE_EQ(p.grad.data()[i], 2.0);
  }
}

TEST(TapeTest, DoubleBindingAccumulates) {
  Parameter p(Matrix(1, 1, 3.0), "w");
  Tape tape;
  Var w1 = tape.Param(&p);
  Var w2 = tape.Param(&p);
  Var loss = Add(Sum(Square(w1)), Sum(w2));  // d/dw = 2w + 1 = 7
  p.ZeroGrad();
  tape.Backward(loss);
  EXPECT_DOUBLE_EQ(p.grad(0, 0), 7.0);
}

TEST(TapeTest, ConstantsReceiveNoGradientWork) {
  Tape tape;
  Var c = tape.Constant(Matrix(2, 2, 1.0));
  Var l = tape.Leaf(Matrix(2, 2, 2.0));
  Var loss = Sum(Mul(c, l));
  tape.Backward(loss);
  EXPECT_FALSE(tape.RequiresGrad(c.id()));
  EXPECT_TRUE(tape.RequiresGrad(l.id()));
}

TEST(GradTest, MatMul) {
  Rng rng(1);
  CheckGradients(
      {RandomMatrix(&rng, 3, 4), RandomMatrix(&rng, 4, 2)},
      [](Tape*, const std::vector<Var>& v) {
        return Sum(Square(MatMul(v[0], v[1])));
      });
}

TEST(GradTest, MatMulBt) {
  Rng rng(2);
  CheckGradients(
      {RandomMatrix(&rng, 3, 4), RandomMatrix(&rng, 5, 4)},
      [](Tape*, const std::vector<Var>& v) {
        return Sum(Square(MatMulBt(v[0], v[1])));
      });
}

TEST(GradTest, AddSubMul) {
  Rng rng(3);
  CheckGradients(
      {RandomMatrix(&rng, 3, 3), RandomMatrix(&rng, 3, 3),
       RandomMatrix(&rng, 3, 3)},
      [](Tape*, const std::vector<Var>& v) {
        return Sum(Square(Mul(Sub(v[0], v[1]), Add(v[1], v[2]))));
      });
}

TEST(GradTest, AddRowBroadcast) {
  Rng rng(4);
  CheckGradients(
      {RandomMatrix(&rng, 4, 3), RandomMatrix(&rng, 1, 3)},
      [](Tape*, const std::vector<Var>& v) {
        return Sum(Square(AddRowBroadcast(v[0], v[1])));
      });
}

TEST(GradTest, MulColBroadcast) {
  Rng rng(5);
  CheckGradients(
      {RandomMatrix(&rng, 4, 3), RandomSignedAwayFromZero(&rng, 4, 1)},
      [](Tape*, const std::vector<Var>& v) {
        return Sum(Square(MulColBroadcast(v[0], v[1])));
      });
}

TEST(GradTest, ScalarOps) {
  Rng rng(6);
  CheckGradients({RandomMatrix(&rng, 3, 2)},
                 [](Tape*, const std::vector<Var>& v) {
                   return Sum(ScalarAdd(ScalarMul(v[0], -2.5), 0.7));
                 });
}

TEST(GradTest, Reciprocal) {
  Rng rng(7);
  CheckGradients({RandomPositive(&rng, 3, 3)},
                 [](Tape*, const std::vector<Var>& v) {
                   return Sum(Reciprocal(v[0]));
                 },
                 1e-5);
}

TEST(GradTest, ReluAwayFromKink) {
  Rng rng(8);
  CheckGradients({RandomSignedAwayFromZero(&rng, 4, 4)},
                 [](Tape*, const std::vector<Var>& v) {
                   return Sum(Square(Relu(v[0])));
                 });
}

TEST(GradTest, Elu) {
  Rng rng(9);
  CheckGradients({RandomSignedAwayFromZero(&rng, 4, 4)},
                 [](Tape*, const std::vector<Var>& v) {
                   return Sum(Square(Elu(v[0])));
                 });
}

TEST(GradTest, TanhSigmoid) {
  Rng rng(10);
  CheckGradients({RandomMatrix(&rng, 3, 4)},
                 [](Tape*, const std::vector<Var>& v) {
                   return Sum(Mul(Tanh(v[0]), Sigmoid(v[0])));
                 });
}

TEST(GradTest, ExpLog) {
  Rng rng(11);
  CheckGradients({RandomPositive(&rng, 3, 3)},
                 [](Tape*, const std::vector<Var>& v) {
                   return Sum(Mul(Log(v[0]), Exp(ScalarMul(v[0], 0.3))));
                 },
                 1e-5);
}

TEST(GradTest, SqrtSquareAbs) {
  Rng rng(12);
  CheckGradients({RandomPositive(&rng, 3, 3)},
                 [](Tape*, const std::vector<Var>& v) {
                   return Sum(Add(Sqrt(v[0]), Square(Abs(v[0]))));
                 },
                 1e-5);
}

TEST(GradTest, Reductions) {
  Rng rng(13);
  CheckGradients({RandomMatrix(&rng, 4, 5)},
                 [](Tape*, const std::vector<Var>& v) {
                   Var a = Sum(Square(RowSum(v[0])));
                   Var b = Sum(Square(ColSum(v[0])));
                   return Add(Add(a, b), Mean(Square(v[0])));
                 });
}

TEST(GradTest, TransposeConcatGather) {
  Rng rng(14);
  CheckGradients(
      {RandomMatrix(&rng, 3, 4), RandomMatrix(&rng, 2, 4)},
      [](Tape*, const std::vector<Var>& v) {
        Var cat = ConcatRows(v[0], v[1]);                  // 5 x 4
        Var picked = GatherRows(cat, {0, 4, 2, 2});        // reuse row 2
        return Sum(Square(MatMul(Transpose(picked), picked)));
      });
}

TEST(GradTest, RowL2NormalizeAndCosine) {
  Rng rng(15);
  CheckGradients(
      {RandomSignedAwayFromZero(&rng, 4, 3),
       RandomSignedAwayFromZero(&rng, 4, 3)},
      [](Tape*, const std::vector<Var>& v) {
        Var cos = CosineRowwise(v[0], v[1]);
        return Sum(Square(cos));
      },
      1e-5);
}

TEST(GradTest, MeanCosineDistance) {
  Rng rng(16);
  CheckGradients(
      {RandomSignedAwayFromZero(&rng, 5, 4),
       RandomSignedAwayFromZero(&rng, 5, 4)},
      [](Tape*, const std::vector<Var>& v) {
        return MeanCosineDistance(v[0], v[1]);
      },
      1e-5);
}

TEST(GradTest, MseAndPenalties) {
  Rng rng(17);
  CheckGradients(
      {RandomSignedAwayFromZero(&rng, 4, 2),
       RandomSignedAwayFromZero(&rng, 4, 2)},
      [](Tape*, const std::vector<Var>& v) {
        return Add(MseLoss(v[0], v[1]), ElasticNetPenalty(v[0]));
      },
      1e-5);
}

TEST(GradTest, TwoLayerNetworkComposition) {
  Rng rng(18);
  // x(2x3) -> W1(3x4) + b1 -> tanh -> W2(4x1) -> mse vs target
  CheckGradients(
      {RandomMatrix(&rng, 2, 3), RandomMatrix(&rng, 3, 4),
       RandomMatrix(&rng, 1, 4), RandomMatrix(&rng, 4, 1),
       RandomMatrix(&rng, 2, 1)},
      [](Tape*, const std::vector<Var>& v) {
        Var h = Tanh(AddRowBroadcast(MatMul(v[0], v[1]), v[2]));
        Var out = MatMul(h, v[3]);
        return MseLoss(out, v[4]);
      },
      1e-5);
}

TEST(GradTest, LinearAct) {
  for (linalg::simd::EwFwd act :
       {linalg::simd::EwFwd::kNone, linalg::simd::EwFwd::kElu,
        linalg::simd::EwFwd::kTanh}) {
    Rng rng(20);
    CheckGradients(
        {RandomMatrix(&rng, 4, 3), RandomMatrix(&rng, 3, 5),
         RandomMatrix(&rng, 1, 5)},
        [act](Tape*, const std::vector<Var>& v) {
          return Sum(Square(LinearAct(v[0], v[1], v[2], act)));
        },
        1e-5);
  }
}

// One dense layer's value and the gradients of x, w and b, recorded either
// as the fused LinearAct node or as the MatMul -> AddRowBroadcast -> act
// chain it replaces. The upstream gradient is an arbitrary G: the loss is
// Sum(y .* G).
struct DenseLayerRun {
  Matrix y, gx, gw, gb;
  int nodes = 0;  ///< nodes the layer itself recorded
};

DenseLayerRun RunDenseLayer(bool fused, linalg::simd::EwFwd act,
                            const Matrix& x, bool x_requires_grad,
                            const Matrix& w, const Matrix& b,
                            const Matrix& g) {
  Tape tape;
  Var xv = x_requires_grad ? tape.Leaf(x) : tape.Constant(x);
  Var wv = tape.Leaf(w);
  Var bv = tape.Leaf(b);
  const int before = tape.size();
  Var y;
  if (fused) {
    y = LinearAct(xv, wv, bv, act);
  } else {
    y = AddRowBroadcast(MatMul(xv, wv), bv);
    if (act == linalg::simd::EwFwd::kElu) y = Elu(y);
    if (act == linalg::simd::EwFwd::kTanh) y = Tanh(y);
  }
  DenseLayerRun run;
  run.nodes = tape.size() - before;
  tape.Backward(Sum(Mul(y, tape.Constant(g))));
  run.y = y.value();
  if (x_requires_grad) run.gx = xv.grad();
  run.gw = wv.grad();
  run.gb = bv.grad();
  return run;
}

bool SameBits(const Matrix& a, const Matrix& b) {
  return a.SameShape(b) &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(),
                      sizeof(double) * static_cast<size_t>(a.size())) == 0);
}

// LinearAct against the chain, by bit pattern, in both kernel tables: the
// value and every gradient, over shapes that cover the GEMM's m % 4 and
// n % 4 tails, with signed zeros in x, w and b and pre-activations from
// deep in ELU's saturated range to tanh's +-1 plateau. The node keeps only
// y; ELU's derivative read from y must equal the chain's, read from the
// pre-activation.
TEST(LinearActTest, BitwiseEqualsChainInBothTables) {
  using linalg::simd::EwFwd;
  for (bool scalar : {true, false}) {
    linalg::simd::ForceScalarForTesting(scalar);
    Rng rng(21);
    auto draw = [&rng](int rows, int cols, double scale) {
      Matrix m = RandomMatrix(&rng, rows, cols, -scale, scale);
      for (int64_t i = 0; i < m.size(); i += 7) m.data()[i] = 0.0;
      for (int64_t i = 3; i < m.size(); i += 11) m.data()[i] = -0.0;
      return m;
    };
    for (int m : {1, 3, 4, 5, 17, 128}) {
      for (int in : {1, 3, 8, 32}) {
        for (int out : {1, 2, 5, 32, 33}) {
          const Matrix x = draw(m, in, 3.0);
          const Matrix w = draw(in, out, 4.0);
          const Matrix b = draw(1, out, 2.0);
          const Matrix g = draw(m, out, 1.0);
          for (EwFwd act : {EwFwd::kNone, EwFwd::kElu, EwFwd::kTanh}) {
            for (bool x_grad : {true, false}) {
              const DenseLayerRun chain =
                  RunDenseLayer(false, act, x, x_grad, w, b, g);
              const DenseLayerRun fused =
                  RunDenseLayer(true, act, x, x_grad, w, b, g);
              const std::string where =
                  std::string(linalg::simd::Kernels().name) +
                  " m=" + std::to_string(m) + " in=" + std::to_string(in) +
                  " out=" + std::to_string(out) +
                  " act=" + std::to_string(static_cast<int>(act));
              EXPECT_TRUE(SameBits(fused.y, chain.y)) << where;
              EXPECT_TRUE(SameBits(fused.gx, chain.gx)) << where;
              EXPECT_TRUE(SameBits(fused.gw, chain.gw)) << where;
              EXPECT_TRUE(SameBits(fused.gb, chain.gb)) << where;
              EXPECT_EQ(fused.nodes, 1);
              EXPECT_EQ(chain.nodes, act == EwFwd::kNone ? 2 : 3);
            }
          }
        }
      }
    }
  }
  linalg::simd::ForceScalarForTesting(false);
}

TEST(ValueTest, CosineOfIdenticalRowsIsOne) {
  Tape tape;
  Rng rng(19);
  Matrix m = RandomSignedAwayFromZero(&rng, 6, 5);
  Var a = tape.Constant(m);
  Var b = tape.Constant(m);
  Var cos = CosineRowwise(a, b);
  for (int i = 0; i < 6; ++i) EXPECT_NEAR(cos.value()(i, 0), 1.0, 1e-9);
  EXPECT_NEAR(MeanCosineDistance(a, b).scalar(), 0.0, 1e-9);
}

TEST(ValueTest, CosineOfOppositeRowsIsMinusOne) {
  Tape tape;
  Matrix m = {{1.0, 2.0}, {-3.0, 0.5}};
  Matrix neg = m;
  neg.Scale(-1.0);
  Var cos = CosineRowwise(tape.Constant(m), tape.Constant(neg));
  EXPECT_NEAR(cos.value()(0, 0), -1.0, 1e-9);
  EXPECT_NEAR(cos.value()(1, 0), -1.0, 1e-9);
}

TEST(ValueTest, RowL2NormalizeProducesUnitRows) {
  Tape tape;
  Rng rng(20);
  Var x = tape.Constant(RandomSignedAwayFromZero(&rng, 5, 7));
  Var n = RowL2Normalize(x);
  for (int i = 0; i < 5; ++i) {
    double s = 0.0;
    for (int j = 0; j < 7; ++j) s += n.value()(i, j) * n.value()(i, j);
    EXPECT_NEAR(s, 1.0, 1e-9);
  }
}

}  // namespace
}  // namespace cerl::autodiff
