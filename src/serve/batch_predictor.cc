#include "serve/batch_predictor.h"

#include <algorithm>
#include <cmath>

#include "linalg/gemm.h"
#include "linalg/simd.h"
#include "util/check.h"

namespace cerl::serve {
namespace {

// Elementwise activations, matching autodiff/ops.cc forwards exactly: relu,
// elu and tanh through the dispatched ew_forward kernel (bitwise across
// tables, in-place aliasing allowed; elu/tanh are the in-repo expm1 core,
// not libm), sigmoid as the same scalar libm loop the tape runs
// (1/(1+exp(-x))).
void ApplyActivationInPlace(nn::Activation act, linalg::Matrix* m) {
  double* d = m->data();
  const int64_t n = m->size();
  auto kernel = [&](linalg::simd::EwFwd op) {
    linalg::simd::Kernels().ew_forward(static_cast<int>(op), d, d, n);
  };
  switch (act) {
    case nn::Activation::kNone:
      return;
    case nn::Activation::kRelu:
      kernel(linalg::simd::EwFwd::kRelu);
      return;
    case nn::Activation::kElu:
      kernel(linalg::simd::EwFwd::kElu);
      return;
    case nn::Activation::kTanh:
      kernel(linalg::simd::EwFwd::kTanh);
      return;
    case nn::Activation::kSigmoid:
      for (int64_t i = 0; i < n; ++i) d[i] = 1.0 / (1.0 + std::exp(-d[i]));
      return;
  }
}

}  // namespace

linalg::Matrix& BatchPredictor::Acquire(Buf* buf, int rows, int cols) {
  const int64_t need = static_cast<int64_t>(rows) * cols;
  if (need > buf->high_water) {
    ++allocations_;
    buf->high_water = need;
  }
  buf->m.Resize(rows, cols);
  return buf->m;
}

void BatchPredictor::ForwardLayer(const DenseLayer& layer,
                                  const linalg::Matrix& in,
                                  linalg::Matrix* out) {
  const auto& ks = linalg::simd::Kernels();
  const int rows = in.rows();
  if (layer.cosine) {
    // RowL2Normalize(in), tape op order: Square -> RowSum -> ScalarAdd(eps)
    // -> Sqrt -> Reciprocal -> MulColBroadcast. The weight side was
    // normalized once at snapshot build with the identical sequence.
    constexpr double kEps = 1e-12;  // composite.h default
    linalg::Matrix& scratch = Acquire(&pre_, rows, in.cols());
    ks.ew_forward(static_cast<int>(linalg::simd::EwFwd::kSquare), in.data(),
                  scratch.data(), scratch.size());
    linalg::Matrix& norm = Acquire(&norm_, rows, 1);
    for (int r = 0; r < rows; ++r) {
      const double* row = scratch.row(r);
      double s = 0.0;  // RowSum's left-to-right accumulation order
      for (int c = 0; c < scratch.cols(); ++c) s += row[c];
      norm(r, 0) = s + kEps;
    }
    ks.ew_forward(static_cast<int>(linalg::simd::EwFwd::kSqrt), norm.data(),
                  norm.data(), rows);
    ks.ew_forward(static_cast<int>(linalg::simd::EwFwd::kReciprocal),
                  norm.data(), norm.data(), rows);
    // The squares are dead; scratch becomes the normalized input (reads
    // `in` and norm, so no operand aliases the destination).
    ks.mul_col_broadcast(in.data(), norm.data(), rows, in.cols(),
                         scratch.data());
    linalg::Gemm(linalg::Trans::kNo, linalg::Trans::kNo, 1.0, scratch,
                 layer.weight, 0.0, out);
    ApplyActivationInPlace(layer.activation, out);
  } else {
    // autodiff::LinearAct's forward: one Gemm whose epilogue adds the bias
    // and applies ELU/tanh; relu and sigmoid follow in place.
    const linalg::simd::EwFwd fused = nn::EpilogueActivation(layer.activation);
    linalg::Gemm(linalg::Trans::kNo, linalg::Trans::kNo, 1.0, in,
                 layer.weight, 0.0, out, {layer.bias.data(), fused});
    if (fused == linalg::simd::EwFwd::kNone) {
      ApplyActivationInPlace(layer.activation, out);
    }
  }
}

const linalg::Matrix& BatchPredictor::ForwardMlp(
    const std::vector<DenseLayer>& layers, const linalg::Matrix& in,
    Buf* out_buf) {
  const int rows = in.rows();
  const linalg::Matrix* cur = &in;
  const int n_layers = static_cast<int>(layers.size());
  for (int i = 0; i < n_layers; ++i) {
    // Hidden layers ping-pong between two buffers (layer i reads the
    // other parity's output); the last layer lands in the caller's buffer,
    // which outlives the call (rep_ must survive both head passes).
    Buf* dst = (i == n_layers - 1) ? out_buf : &pp_[i % 2];
    linalg::Matrix& out = Acquire(dst, rows, layers[i].weight.cols());
    ForwardLayer(layers[i], *cur, &out);
    cur = &out;
  }
  return *cur;
}

void BatchPredictor::StageBlock(const EffectSnapshot& snap,
                                const linalg::Matrix& x_raw, int r0,
                                int rows) {
  linalg::Matrix& x = Acquire(&x_, rows, snap.input_dim);
  const double* mean = snap.x_mean.data();
  const double* std = snap.x_std.data();
  for (int r = 0; r < rows; ++r) {
    const double* src = x_raw.row(r0 + r);
    double* dst = x.row(r);
    // linalg::Standardize's expression, per element.
    for (int c = 0; c < snap.input_dim; ++c) {
      dst[c] = (src[c] - mean[c]) / std[c];
    }
  }
}

void BatchPredictor::ForwardBlock(const EffectSnapshot& snap, int rows) {
  const linalg::Matrix& rep = ForwardMlp(snap.rep, x_.m, &rep_);
  // Same head order as RepOutcomeNet::PredictIte (h_1 then h_0).
  ForwardMlp(snap.head1, rep, &y1_);
  ForwardMlp(snap.head0, rep, &y0_);
  (void)rows;
}

void BatchPredictor::PredictIte(const EffectSnapshot& snap,
                                const linalg::Matrix& x_raw,
                                linalg::Vector* ite) {
  CERL_CHECK_EQ(x_raw.cols(), snap.input_dim);
  const int n = x_raw.rows();
  ite->resize(n);
  for (int r0 = 0; r0 < n; r0 += kRowBlock) {
    const int rows = std::min(kRowBlock, n - r0);
    StageBlock(snap, x_raw, r0, rows);
    ForwardBlock(snap, rows);
    for (int i = 0; i < rows; ++i) {
      (*ite)[r0 + i] = snap.y_scale * (y1_.m(i, 0) - y0_.m(i, 0));
    }
  }
}

double BatchPredictor::PredictIteRow(const EffectSnapshot& snap,
                                     const double* x) {
  linalg::Matrix& xb = Acquire(&x_, 1, snap.input_dim);
  const double* mean = snap.x_mean.data();
  const double* std = snap.x_std.data();
  double* dst = xb.row(0);
  for (int c = 0; c < snap.input_dim; ++c) {
    dst[c] = (x[c] - mean[c]) / std[c];
  }
  ForwardBlock(snap, 1);
  return snap.y_scale * (y1_.m(0, 0) - y0_.m(0, 0));
}

void BatchPredictor::PredictOutcomes(const EffectSnapshot& snap,
                                     const linalg::Matrix& x_raw,
                                     linalg::Vector* y0, linalg::Vector* y1) {
  CERL_CHECK_EQ(x_raw.cols(), snap.input_dim);
  const int n = x_raw.rows();
  y0->resize(n);
  y1->resize(n);
  for (int r0 = 0; r0 < n; r0 += kRowBlock) {
    const int rows = std::min(kRowBlock, n - r0);
    StageBlock(snap, x_raw, r0, rows);
    ForwardBlock(snap, rows);
    for (int i = 0; i < rows; ++i) {
      // OutcomeScaler::InverseTransform's expression.
      (*y0)[r0 + i] = y0_.m(i, 0) * snap.y_scale + snap.y_mean;
      (*y1)[r0 + i] = y1_.m(i, 0) * snap.y_scale + snap.y_mean;
    }
  }
}

}  // namespace cerl::serve
