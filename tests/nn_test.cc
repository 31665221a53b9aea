// Tests for the NN layer: layer forward/backward shapes, gradient checks
// through Linear / CosineLinear / Mlp, optimizer convergence on convex and
// non-convex toys, elastic-net shrinkage, and parameter serialization.
#include <gtest/gtest.h>

#include <cmath>

#include "autodiff/composite.h"
#include "autodiff/ops.h"
#include "grad_check.h"
#include "nn/cosine_linear.h"
#include "nn/init.h"
#include "nn/linear.h"
#include "nn/mlp.h"
#include "nn/optim.h"
#include "nn/serialize.h"
#include "util/rng.h"

namespace cerl::nn {
namespace {

using autodiff::CheckGradients;
using autodiff::Tape;
using autodiff::Var;
using linalg::Matrix;

Matrix RandomMatrix(Rng* rng, int rows, int cols) {
  Matrix m(rows, cols);
  for (int64_t i = 0; i < m.size(); ++i) m.data()[i] = rng->Normal(0, 1);
  return m;
}

TEST(InitTest, XavierBoundsAndHeScale) {
  Rng rng(1);
  Matrix x = XavierUniform(&rng, 100, 50);
  const double bound = std::sqrt(6.0 / 150.0);
  for (int64_t i = 0; i < x.size(); ++i) {
    ASSERT_LE(std::fabs(x.data()[i]), bound);
  }
  Matrix h = HeNormal(&rng, 200, 100);
  double sumsq = 0.0;
  for (int64_t i = 0; i < h.size(); ++i) sumsq += h.data()[i] * h.data()[i];
  EXPECT_NEAR(sumsq / h.size(), 2.0 / 200.0, 2e-3);
}

TEST(LinearTest, ForwardShapeAndAffineValue) {
  Rng rng(2);
  Linear layer(&rng, 3, 2, Activation::kNone);
  layer.weight().value = Matrix{{1, 0}, {0, 1}, {1, 1}};
  layer.bias().value = Matrix{{0.5, -0.5}};
  Tape tape;
  Var x = tape.Constant(Matrix{{1, 2, 3}});
  Var out = layer.Forward(&tape, x);
  EXPECT_EQ(out.rows(), 1);
  EXPECT_EQ(out.cols(), 2);
  EXPECT_DOUBLE_EQ(out.value()(0, 0), 1 + 3 + 0.5);
  EXPECT_DOUBLE_EQ(out.value()(0, 1), 2 + 3 - 0.5);
}

TEST(LinearTest, GradientMatchesNumeric) {
  Rng rng(3);
  Linear layer(&rng, 4, 3, Activation::kTanh);
  Matrix x = RandomMatrix(&rng, 5, 4);
  // Treat weight and bias as checked inputs by copying them in/out.
  CheckGradients(
      {layer.weight().value, layer.bias().value},
      [&](Tape* tape, const std::vector<Var>& v) {
        Var xin = tape->Constant(x);
        Var out = autodiff::Tanh(
            autodiff::AddRowBroadcast(autodiff::MatMul(xin, v[0]), v[1]));
        return autodiff::Sum(autodiff::Square(out));
      },
      1e-5);
}

// ELU, tanh and no activation run in the layer's one LinearAct node; relu
// and sigmoid follow it as their own node. Either way the value is
// act(x W + b).
TEST(LinearTest, ActivationFusesIntoOneNodeWhereTheEpilogueHasIt) {
  struct Case {
    Activation act;
    int nodes;  // weight and bias leaves + the layer's own nodes
    double (*f)(double);
  };
  const Case cases[] = {
      {Activation::kNone, 3, [](double v) { return v; }},
      {Activation::kElu, 3, [](double v) { return v > 0 ? v : std::expm1(v); }},
      {Activation::kTanh, 3, [](double v) { return std::tanh(v); }},
      {Activation::kRelu, 4, [](double v) { return v > 0 ? v : 0.0; }},
      {Activation::kSigmoid, 4,
       [](double v) { return 1.0 / (1.0 + std::exp(-v)); }},
  };
  for (const Case& c : cases) {
    Rng rng(4);
    Linear layer(&rng, 3, 2, c.act);
    layer.weight().value = Matrix{{1, 0}, {0, -1}, {1, 1}};
    layer.bias().value = Matrix{{0.5, -0.5}};
    Tape tape;
    Var x = tape.Constant(Matrix{{1, 2, -3}});
    const int before = tape.size();
    Var out = layer.Forward(&tape, x);
    EXPECT_EQ(tape.size() - before, c.nodes) << static_cast<int>(c.act);
    EXPECT_NEAR(out.value()(0, 0), c.f(1 - 3 + 0.5), 1e-15);
    EXPECT_NEAR(out.value()(0, 1), c.f(-2 - 3 - 0.5), 1e-15);
  }
}

TEST(CosineLinearTest, OutputsBoundedByActivation) {
  Rng rng(4);
  CosineLinear layer(&rng, 6, 4, Activation::kNone);
  Tape tape;
  Var x = tape.Constant(RandomMatrix(&rng, 20, 6));
  Var out = layer.Forward(&tape, x);
  // Pre-activation cosine similarity is bounded in [-1, 1].
  for (int64_t i = 0; i < out.value().size(); ++i) {
    ASSERT_GE(out.value().data()[i], -1.0 - 1e-9);
    ASSERT_LE(out.value().data()[i], 1.0 + 1e-9);
  }
}

TEST(CosineLinearTest, InvariantToInputScale) {
  Rng rng(5);
  CosineLinear layer(&rng, 5, 3, Activation::kNone);
  Matrix x = RandomMatrix(&rng, 4, 5);
  Matrix x10 = x;
  x10.Scale(10.0);
  Tape tape;
  Var a = layer.Forward(&tape, tape.Constant(x));
  Var b = layer.Forward(&tape, tape.Constant(x10));
  EXPECT_LT(Matrix::MaxAbsDiff(a.value(), b.value()), 1e-9);
}

TEST(MlpTest, BuildsRequestedArchitecture) {
  Rng rng(6);
  MlpConfig config;
  config.dims = {10, 8, 4};
  Mlp mlp(&rng, config);
  EXPECT_EQ(mlp.in_dim(), 10);
  EXPECT_EQ(mlp.out_dim(), 4);
  // 10*8 + 8 + 8*4 + 4 parameters.
  EXPECT_EQ(mlp.NumParameters(), 10 * 8 + 8 + 8 * 4 + 4);
  Tape tape;
  Var out = mlp.Forward(&tape, tape.Constant(RandomMatrix(&rng, 3, 10)));
  EXPECT_EQ(out.rows(), 3);
  EXPECT_EQ(out.cols(), 4);
}

TEST(MlpTest, CosineOutputLayerHasNoBias) {
  Rng rng(7);
  MlpConfig config;
  config.dims = {6, 5, 4};
  config.cosine_normalized_output = true;
  Mlp mlp(&rng, config);
  // Linear (W+b) + CosineLinear (W only).
  EXPECT_EQ(mlp.NumParameters(), 6 * 5 + 5 + 5 * 4);
}

TEST(MlpTest, FirstLayerWeightIsElasticTarget) {
  Rng rng(8);
  MlpConfig config;
  config.dims = {7, 5, 2};
  Mlp mlp(&rng, config);
  EXPECT_EQ(mlp.FirstLayerWeight().value.rows(), 7);
  EXPECT_EQ(mlp.FirstLayerWeight().value.cols(), 5);
}

TEST(SgdTest, MinimizesQuadratic) {
  // min ||w - c||^2 -> w = c.
  autodiff::Parameter w(Matrix(1, 3, 0.0), "w");
  Matrix target{{1.0, -2.0, 0.5}};
  Sgd opt({&w}, /*lr=*/0.1, /*momentum=*/0.9);
  for (int step = 0; step < 200; ++step) {
    Tape tape;
    Var wv = tape.Param(&w);
    Var loss = autodiff::Sum(
        autodiff::Square(autodiff::Sub(wv, tape.Constant(target))));
    opt.ZeroGrad();
    tape.Backward(loss);
    opt.Step();
  }
  EXPECT_LT(Matrix::MaxAbsDiff(w.value, target), 1e-4);
}

TEST(AdamTest, MinimizesQuadratic) {
  autodiff::Parameter w(Matrix(2, 2, 5.0), "w");
  Matrix target{{0.0, 1.0}, {-1.0, 2.0}};
  Adam opt({&w}, /*lr=*/0.05);
  for (int step = 0; step < 800; ++step) {
    Tape tape;
    Var wv = tape.Param(&w);
    Var loss = autodiff::Sum(
        autodiff::Square(autodiff::Sub(wv, tape.Constant(target))));
    opt.ZeroGrad();
    tape.Backward(loss);
    opt.Step();
  }
  EXPECT_LT(Matrix::MaxAbsDiff(w.value, target), 1e-3);
}

TEST(AdamTest, FitsXor) {
  // Non-convex sanity check: a small MLP can fit XOR.
  Rng rng(9);
  MlpConfig config;
  config.dims = {2, 8, 1};
  config.hidden_activation = Activation::kTanh;
  Mlp mlp(&rng, config);
  Matrix x{{0, 0}, {0, 1}, {1, 0}, {1, 1}};
  Matrix y{{0}, {1}, {1}, {0}};
  Adam opt(mlp.Parameters(), 0.05);
  double final_loss = 1.0;
  for (int step = 0; step < 600; ++step) {
    Tape tape;
    Var out = mlp.Forward(&tape, tape.Constant(x));
    Var loss = autodiff::MseLoss(out, tape.Constant(y));
    final_loss = loss.scalar();
    opt.ZeroGrad();
    tape.Backward(loss);
    opt.Step();
  }
  EXPECT_LT(final_loss, 0.02);
}

TEST(ElasticNetTest, ShrinksIrrelevantFeatureWeights) {
  // y depends only on feature 0; the elastic net should shrink the weights
  // of the 9 irrelevant features far below the relevant one.
  Rng rng(10);
  Linear layer(&rng, 10, 1, Activation::kNone);
  Matrix x = RandomMatrix(&rng, 200, 10);
  Matrix y(200, 1);
  for (int i = 0; i < 200; ++i) y(i, 0) = 2.0 * x(i, 0);
  Adam opt(layer.Parameters(), 0.03);
  for (int step = 0; step < 400; ++step) {
    Tape tape;
    Var out = layer.Forward(&tape, tape.Constant(x));
    Var loss = autodiff::MseLoss(out, tape.Constant(y));
    Var w = tape.Param(&layer.weight());
    loss = autodiff::Add(loss,
                         autodiff::ScalarMul(autodiff::ElasticNetPenalty(w),
                                             5e-3));
    opt.ZeroGrad();
    tape.Backward(loss);
    opt.Step();
  }
  const double relevant = std::fabs(layer.weight().value(0, 0));
  double max_irrelevant = 0.0;
  for (int j = 1; j < 10; ++j) {
    max_irrelevant =
        std::max(max_irrelevant, std::fabs(layer.weight().value(j, 0)));
  }
  EXPECT_GT(relevant, 1.5);
  EXPECT_LT(max_irrelevant, 0.15);
}

TEST(SerializeTest, RoundTripsExactly) {
  Rng rng(11);
  MlpConfig config;
  config.dims = {4, 6, 2};
  Mlp a(&rng, config, "m");
  Mlp b(&rng, config, "m");  // Different random init, same names/shapes.
  const std::string path = ::testing::TempDir() + "/params.bin";
  ASSERT_TRUE(SaveParameters(path, a.Parameters()).ok());
  ASSERT_TRUE(LoadParameters(path, b.Parameters()).ok());
  auto pa = a.Parameters();
  auto pb = b.Parameters();
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(Matrix::MaxAbsDiff(pa[i]->value, pb[i]->value), 0.0);
  }
}

TEST(SerializeTest, RejectsShapeMismatch) {
  Rng rng(12);
  MlpConfig small;
  small.dims = {4, 3, 2};
  MlpConfig big;
  big.dims = {4, 5, 2};
  Mlp a(&rng, small, "m");
  Mlp b(&rng, big, "m");
  const std::string path = ::testing::TempDir() + "/params2.bin";
  ASSERT_TRUE(SaveParameters(path, a.Parameters()).ok());
  EXPECT_FALSE(LoadParameters(path, b.Parameters()).ok());
}

TEST(SerializeTest, MissingFileIsIoError) {
  Rng rng(13);
  MlpConfig config;
  config.dims = {2, 2};
  Mlp m(&rng, config);
  Status s = LoadParameters("/nonexistent/params.bin", m.Parameters());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace cerl::nn
