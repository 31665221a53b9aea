// Op implementations write their forward result directly into the tape's
// (reused) node buffer via Tape::NewNode — steady-state re-recording of a
// fixed-topology graph allocates nothing — and register capture-free
// backward kernels (function pointer + small payload) that accumulate into
// GradRef in place: Gemm with beta=1 for the matmul family, axpy/loop
// accumulation everywhere else. No backward materializes a temporary
// Matrix.
#include "autodiff/ops.h"

#include <algorithm>
#include <cmath>
#include <type_traits>

#include "linalg/gemm.h"
#include "linalg/simd.h"

namespace cerl::autodiff {
namespace {

using Ctx = Tape::BackwardCtx;
using linalg::Gemm;
using linalg::Trans;

Tape* SameTape(Var a, Var b) {
  CERL_CHECK(a.valid() && b.valid());
  CERL_CHECK(a.tape() == b.tape());
  return a.tape();
}

void MatMulBackward(Tape* t, int self, const Ctx& ctx) {
  const Matrix& g = t->GradRef(self);
  if (t->RequiresGrad(ctx.a)) {
    Gemm(Trans::kNo, Trans::kYes, 1.0, g, t->ValueOf(ctx.b), 1.0,
         &t->GradRef(ctx.a));
  }
  if (t->RequiresGrad(ctx.b)) {
    Gemm(Trans::kYes, Trans::kNo, 1.0, t->ValueOf(ctx.a), g, 1.0,
         &t->GradRef(ctx.b));
  }
}

void MatMulBtBackward(Tape* t, int self, const Ctx& ctx) {
  const Matrix& g = t->GradRef(self);
  if (t->RequiresGrad(ctx.a)) {
    Gemm(Trans::kNo, Trans::kNo, 1.0, g, t->ValueOf(ctx.b), 1.0,
         &t->GradRef(ctx.a));
  }
  if (t->RequiresGrad(ctx.b)) {
    Gemm(Trans::kYes, Trans::kNo, 1.0, g, t->ValueOf(ctx.a), 1.0,
         &t->GradRef(ctx.b));
  }
}

// The chain this node replaces zero-fills the pre-activation gradient and
// accumulates g * act'(y) into it, then adds that into the zero-filled
// product gradient: gz = +0.0 + g * act'(y) both times (adding +0.0 again
// changes no bit). gz is formed once, in a per-thread scratch, and feeds
// the bias column sum and both GEMMs in the chain's order. act' reads only
// y: tanh' is 1 - y*y, and ELU's x > 0 test equals y > 0 bit for bit
// (ELU(x) is x for x >= 0 and negative or NaN below), so EwGrad::kElu is
// evaluated with y in place of x.
void LinearActBackward(Tape* t, int self, const Ctx& ctx) {
  const Matrix& g = t->GradRef(self);
  const Matrix& y = t->ValueOf(self);
  static thread_local Matrix gz;
  gz.Resize(g.rows(), g.cols());
  gz.Fill(0.0);
  const auto& ks = linalg::simd::Kernels();
  switch (static_cast<linalg::simd::EwFwd>(ctx.aux)) {
    case linalg::simd::EwFwd::kElu:
      ks.ew_backward(static_cast<int>(linalg::simd::EwGrad::kElu), g.data(),
                     y.data(), y.data(), gz.data(), g.size());
      break;
    case linalg::simd::EwFwd::kTanh:
      ks.ew_backward(static_cast<int>(linalg::simd::EwGrad::kTanh), g.data(),
                     y.data(), y.data(), gz.data(), g.size());
      break;
    default:  // kNone
      ks.vec_accum(g.data(), gz.data(), g.size());
      break;
  }
  if (t->RequiresGrad(ctx.c)) {
    Matrix& gb = t->GradRef(ctx.c);
    for (int r = 0; r < gz.rows(); ++r) {
      ks.vec_accum(gz.row(r), gb.row(0), gz.cols());
    }
  }
  if (t->RequiresGrad(ctx.a)) {
    Gemm(Trans::kNo, Trans::kYes, 1.0, gz, t->ValueOf(ctx.b), 1.0,
         &t->GradRef(ctx.a));
  }
  if (t->RequiresGrad(ctx.b)) {
    Gemm(Trans::kYes, Trans::kNo, 1.0, t->ValueOf(ctx.a), gz, 1.0,
         &t->GradRef(ctx.b));
  }
}

void AddBackward(Tape* t, int self, const Ctx& ctx) {
  const Matrix& g = t->GradRef(self);
  if (t->RequiresGrad(ctx.a)) t->GradRef(ctx.a).Add(g);
  if (t->RequiresGrad(ctx.b)) t->GradRef(ctx.b).Add(g);
}

void SubBackward(Tape* t, int self, const Ctx& ctx) {
  const Matrix& g = t->GradRef(self);
  if (t->RequiresGrad(ctx.a)) t->GradRef(ctx.a).Add(g);
  if (t->RequiresGrad(ctx.b)) t->GradRef(ctx.b).Sub(g);
}

void MulBackward(Tape* t, int self, const Ctx& ctx) {
  const Matrix& g = t->GradRef(self);
  const auto& ks = linalg::simd::Kernels();
  if (t->RequiresGrad(ctx.a)) {
    ks.vec_mul_accum(g.data(), t->ValueOf(ctx.b).data(),
                     t->GradRef(ctx.a).data(), g.size());
  }
  if (t->RequiresGrad(ctx.b)) {
    ks.vec_mul_accum(g.data(), t->ValueOf(ctx.a).data(),
                     t->GradRef(ctx.b).data(), g.size());
  }
}

void AddRowBroadcastBackward(Tape* t, int self, const Ctx& ctx) {
  const Matrix& g = t->GradRef(self);
  if (t->RequiresGrad(ctx.a)) t->GradRef(ctx.a).Add(g);
  if (t->RequiresGrad(ctx.b)) {
    Matrix& gb = t->GradRef(ctx.b);
    const auto& ks = linalg::simd::Kernels();
    for (int r = 0; r < g.rows(); ++r) {
      ks.vec_accum(g.row(r), gb.row(0), g.cols());
    }
  }
}

void MulColBroadcastBackward(Tape* t, int self, const Ctx& ctx) {
  const Matrix& g = t->GradRef(self);
  const Matrix& av = t->ValueOf(ctx.a);
  const Matrix& sv = t->ValueOf(ctx.b);
  if (t->RequiresGrad(ctx.a)) {
    Matrix& ga = t->GradRef(ctx.a);
    const auto& ks = linalg::simd::Kernels();
    for (int r = 0; r < g.rows(); ++r) {
      ks.vec_axpy(sv(r, 0), g.row(r), ga.row(r), g.cols());
    }
  }
  if (t->RequiresGrad(ctx.b)) {
    Matrix& gs = t->GradRef(ctx.b);
    for (int r = 0; r < g.rows(); ++r) {
      const double* grow = g.row(r);
      const double* arow = av.row(r);
      double acc = 0.0;
      for (int c = 0; c < g.cols(); ++c) acc += grow[c] * arow[c];
      gs(r, 0) += acc;
    }
  }
}

void ScalarMulBackward(Tape* t, int self, const Ctx& ctx) {
  if (!t->RequiresGrad(ctx.a)) return;
  t->GradRef(ctx.a).Axpy(ctx.k, t->GradRef(self));
}

void ScalarAddBackward(Tape* t, int self, const Ctx& ctx) {
  if (!t->RequiresGrad(ctx.a)) return;
  t->GradRef(ctx.a).Add(t->GradRef(self));
}

// Elementwise unary ops. The derivative formulas live in the SIMD kernel
// layer (linalg::simd::EwGrad documents each expression), selected here by
// tag: the backward pass `ga += g * dfdx(x, y)` runs through the dispatched
// ew_backward kernel, which is plain elementwise arithmetic and therefore
// bitwise identical between the scalar and AVX2 tables.
// kFwd is either a linalg::simd::EwFwd tag, selecting the dispatched
// ew_forward kernel (the plain/IEEE-exact forwards and the ELU/tanh
// expm1-core approximations, bitwise identical across tables), or a scalar
// forward function for the transcendentals still on libm (sigmoid/exp/log),
// instantiated per function so it inlines into the loop.
template <linalg::simd::EwGrad kGrad, auto kFwd>
struct EwOp {
  static void Backward(Tape* t, int self, const Ctx& ctx) {
    if (!t->RequiresGrad(ctx.a)) return;
    const Matrix& g = t->GradRef(self);
    linalg::simd::Kernels().ew_backward(
        static_cast<int>(kGrad), g.data(), t->ValueOf(ctx.a).data(),
        t->ValueOf(self).data(), t->GradRef(ctx.a).data(), g.size());
  }

  static Var Apply(Var a) {
    Tape* tape = a.tape();
    Ctx ctx;
    ctx.a = a.id();
    Matrix* out = nullptr;
    Var v = tape->NewNode(a.rows(), a.cols(), &Backward, ctx, &out);
    const Matrix& av = tape->ValueOf(ctx.a);
    if constexpr (std::is_same_v<decltype(kFwd), linalg::simd::EwFwd>) {
      linalg::simd::Kernels().ew_forward(static_cast<int>(kFwd), av.data(),
                                         out->data(), av.size());
    } else {
      for (int64_t i = 0; i < av.size(); ++i) {
        out->data()[i] = kFwd(av.data()[i]);
      }
    }
    return v;
  }
};

void SumBackward(Tape* t, int self, const Ctx& ctx) {
  if (!t->RequiresGrad(ctx.a)) return;
  const double g = t->GradRef(self)(0, 0);
  Matrix& ga = t->GradRef(ctx.a);
  linalg::simd::Kernels().vec_add_scalar(g, ga.data(), ga.size());
}

void RowSumBackward(Tape* t, int self, const Ctx& ctx) {
  if (!t->RequiresGrad(ctx.a)) return;
  const Matrix& g = t->GradRef(self);
  Matrix& ga = t->GradRef(ctx.a);
  const auto& ks = linalg::simd::Kernels();
  for (int r = 0; r < ga.rows(); ++r) {
    ks.vec_add_scalar(g(r, 0), ga.row(r), ga.cols());
  }
}

void ColSumBackward(Tape* t, int self, const Ctx& ctx) {
  if (!t->RequiresGrad(ctx.a)) return;
  const Matrix& g = t->GradRef(self);
  Matrix& ga = t->GradRef(ctx.a);
  const auto& ks = linalg::simd::Kernels();
  for (int r = 0; r < ga.rows(); ++r) {
    ks.vec_accum(g.row(0), ga.row(r), ga.cols());
  }
}

void TransposeBackward(Tape* t, int self, const Ctx& ctx) {
  if (!t->RequiresGrad(ctx.a)) return;
  const Matrix& g = t->GradRef(self);  // cols x rows of a
  Matrix& ga = t->GradRef(ctx.a);
  for (int r = 0; r < ga.rows(); ++r) {
    double* row = ga.row(r);
    for (int c = 0; c < ga.cols(); ++c) row[c] += g(c, r);
  }
}

void ConcatRowsBackward(Tape* t, int self, const Ctx& ctx) {
  const Matrix& g = t->GradRef(self);
  const int a_rows = ctx.aux;
  const auto& ks = linalg::simd::Kernels();
  if (t->RequiresGrad(ctx.a)) {
    // The first a_rows rows of g and all of ga are contiguous blocks.
    Matrix& ga = t->GradRef(ctx.a);
    ks.vec_accum(g.row(0), ga.data(), ga.size());
  }
  if (t->RequiresGrad(ctx.b)) {
    Matrix& gb = t->GradRef(ctx.b);
    ks.vec_accum(g.row(a_rows), gb.data(), gb.size());
  }
}

void GatherRowsBackward(Tape* t, int self, const Ctx& ctx) {
  if (!t->RequiresGrad(ctx.a)) return;
  const Matrix& g = t->GradRef(self);
  Matrix& ga = t->GradRef(ctx.a);
  const int* index = t->Indices(ctx.aux);
  const auto& ks = linalg::simd::Kernels();
  for (int i = 0; i < ctx.aux2; ++i) {
    ks.vec_accum(g.row(i), ga.row(index[i]), ga.cols());
  }
}

// The libm forwards. Each op's derivative formula is the matching
// linalg::simd::EwGrad entry (see simd.h); keep the two in sync.
double SigmoidFwd(double x) { return 1.0 / (1.0 + std::exp(-x)); }
double ExpFwd(double x) { return std::exp(x); }
double LogFwd(double x) { return std::log(x); }

}  // namespace

Var MatMul(Var a, Var b) {
  Tape* tape = SameTape(a, b);
  CERL_CHECK_EQ(a.cols(), b.rows());
  Ctx ctx;
  ctx.a = a.id();
  ctx.b = b.id();
  Matrix* out = nullptr;
  Var v = tape->NewNode(a.rows(), b.cols(), &MatMulBackward, ctx, &out);
  Gemm(Trans::kNo, Trans::kNo, 1.0, tape->ValueOf(ctx.a),
       tape->ValueOf(ctx.b), 0.0, out);
  return v;
}

Var LinearAct(Var x, Var w, Var b, linalg::simd::EwFwd act) {
  Tape* tape = SameTape(x, w);
  CERL_CHECK(SameTape(x, b) == tape);
  CERL_CHECK_EQ(x.cols(), w.rows());
  CERL_CHECK_EQ(b.rows(), 1);
  CERL_CHECK_EQ(b.cols(), w.cols());
  Ctx ctx;
  ctx.a = x.id();
  ctx.b = w.id();
  ctx.c = b.id();
  ctx.aux = static_cast<int>(act);
  Matrix* out = nullptr;
  Var v = tape->NewNode(x.rows(), w.cols(), &LinearActBackward, ctx, &out);
  Gemm(Trans::kNo, Trans::kNo, 1.0, tape->ValueOf(ctx.a),
       tape->ValueOf(ctx.b), 0.0, out,
       {tape->ValueOf(ctx.c).data(), act});
  return v;
}

Var MatMulBt(Var a, Var b) {
  Tape* tape = SameTape(a, b);
  CERL_CHECK_EQ(a.cols(), b.cols());
  Ctx ctx;
  ctx.a = a.id();
  ctx.b = b.id();
  Matrix* out = nullptr;
  Var v = tape->NewNode(a.rows(), b.rows(), &MatMulBtBackward, ctx, &out);
  Gemm(Trans::kNo, Trans::kYes, 1.0, tape->ValueOf(ctx.a),
       tape->ValueOf(ctx.b), 0.0, out);
  return v;
}

Var Add(Var a, Var b) {
  Tape* tape = SameTape(a, b);
  CERL_CHECK(a.value().SameShape(b.value()));
  Ctx ctx;
  ctx.a = a.id();
  ctx.b = b.id();
  Matrix* out = nullptr;
  Var v = tape->NewNode(a.rows(), a.cols(), &AddBackward, ctx, &out);
  const Matrix& av = tape->ValueOf(ctx.a);
  const Matrix& bv = tape->ValueOf(ctx.b);
  linalg::simd::Kernels().vec_add(av.data(), bv.data(), out->data(),
                                  av.size());
  return v;
}

Var Sub(Var a, Var b) {
  Tape* tape = SameTape(a, b);
  CERL_CHECK(a.value().SameShape(b.value()));
  Ctx ctx;
  ctx.a = a.id();
  ctx.b = b.id();
  Matrix* out = nullptr;
  Var v = tape->NewNode(a.rows(), a.cols(), &SubBackward, ctx, &out);
  const Matrix& av = tape->ValueOf(ctx.a);
  const Matrix& bv = tape->ValueOf(ctx.b);
  linalg::simd::Kernels().vec_sub(av.data(), bv.data(), out->data(),
                                  av.size());
  return v;
}

Var Mul(Var a, Var b) {
  Tape* tape = SameTape(a, b);
  CERL_CHECK(a.value().SameShape(b.value()));
  Ctx ctx;
  ctx.a = a.id();
  ctx.b = b.id();
  Matrix* out = nullptr;
  Var v = tape->NewNode(a.rows(), a.cols(), &MulBackward, ctx, &out);
  const Matrix& av = tape->ValueOf(ctx.a);
  const Matrix& bv = tape->ValueOf(ctx.b);
  linalg::simd::Kernels().vec_mul(av.data(), bv.data(), out->data(),
                                  av.size());
  return v;
}

Var AddRowBroadcast(Var a, Var bias) {
  Tape* tape = SameTape(a, bias);
  CERL_CHECK_EQ(bias.rows(), 1);
  CERL_CHECK_EQ(bias.cols(), a.cols());
  Ctx ctx;
  ctx.a = a.id();
  ctx.b = bias.id();
  Matrix* out = nullptr;
  Var v = tape->NewNode(a.rows(), a.cols(), &AddRowBroadcastBackward, ctx,
                        &out);
  const Matrix& av = tape->ValueOf(ctx.a);
  const Matrix& bv = tape->ValueOf(ctx.b);
  linalg::simd::Kernels().add_row_broadcast(av.data(), bv.data(), av.rows(),
                                            av.cols(), out->data());
  return v;
}

Var MulColBroadcast(Var a, Var s) {
  Tape* tape = SameTape(a, s);
  CERL_CHECK_EQ(s.cols(), 1);
  CERL_CHECK_EQ(s.rows(), a.rows());
  Ctx ctx;
  ctx.a = a.id();
  ctx.b = s.id();
  Matrix* out = nullptr;
  Var v = tape->NewNode(a.rows(), a.cols(), &MulColBroadcastBackward, ctx,
                        &out);
  const Matrix& av = tape->ValueOf(ctx.a);
  const Matrix& sv = tape->ValueOf(ctx.b);
  linalg::simd::Kernels().mul_col_broadcast(av.data(), sv.data(), av.rows(),
                                            av.cols(), out->data());
  return v;
}

Var ScalarMul(Var a, double k) {
  Tape* tape = a.tape();
  Ctx ctx;
  ctx.a = a.id();
  ctx.k = k;
  Matrix* out = nullptr;
  Var v = tape->NewNode(a.rows(), a.cols(), &ScalarMulBackward, ctx, &out);
  const Matrix& av = tape->ValueOf(ctx.a);
  linalg::simd::Kernels().vec_scale(k, av.data(), out->data(), av.size());
  return v;
}

Var ScalarAdd(Var a, double k) {
  Tape* tape = a.tape();
  Ctx ctx;
  ctx.a = a.id();
  ctx.k = k;
  Matrix* out = nullptr;
  Var v = tape->NewNode(a.rows(), a.cols(), &ScalarAddBackward, ctx, &out);
  const Matrix& av = tape->ValueOf(ctx.a);
  for (int64_t i = 0; i < av.size(); ++i) out->data()[i] = av.data()[i] + k;
  return v;
}

using linalg::simd::EwFwd;
using linalg::simd::EwGrad;

Var Reciprocal(Var a) {
  return EwOp<EwGrad::kReciprocal, EwFwd::kReciprocal>::Apply(a);
}

Var Relu(Var a) { return EwOp<EwGrad::kRelu, EwFwd::kRelu>::Apply(a); }

Var Elu(Var a) { return EwOp<EwGrad::kElu, EwFwd::kElu>::Apply(a); }

Var Tanh(Var a) { return EwOp<EwGrad::kTanh, EwFwd::kTanh>::Apply(a); }

Var Sigmoid(Var a) { return EwOp<EwGrad::kSigmoid, &SigmoidFwd>::Apply(a); }

Var Exp(Var a) { return EwOp<EwGrad::kExp, &ExpFwd>::Apply(a); }

Var Log(Var a) { return EwOp<EwGrad::kLog, &LogFwd>::Apply(a); }

Var Sqrt(Var a) { return EwOp<EwGrad::kSqrt, EwFwd::kSqrt>::Apply(a); }

Var Square(Var a) { return EwOp<EwGrad::kSquare, EwFwd::kSquare>::Apply(a); }

Var Abs(Var a) { return EwOp<EwGrad::kAbs, EwFwd::kAbs>::Apply(a); }

Var Sum(Var a) {
  Tape* tape = a.tape();
  Ctx ctx;
  ctx.a = a.id();
  Matrix* out = nullptr;
  Var v = tape->NewNode(1, 1, &SumBackward, ctx, &out);
  const Matrix& av = tape->ValueOf(ctx.a);
  double s = 0.0;
  for (int64_t i = 0; i < av.size(); ++i) s += av.data()[i];
  (*out)(0, 0) = s;
  return v;
}

Var Mean(Var a) {
  const int64_t n = a.value().size();
  CERL_CHECK_GT(n, 0);
  return ScalarMul(Sum(a), 1.0 / static_cast<double>(n));
}

Var RowSum(Var a) {
  Tape* tape = a.tape();
  Ctx ctx;
  ctx.a = a.id();
  Matrix* out = nullptr;
  Var v = tape->NewNode(a.rows(), 1, &RowSumBackward, ctx, &out);
  const Matrix& av = tape->ValueOf(ctx.a);
  for (int r = 0; r < av.rows(); ++r) {
    const double* row = av.row(r);
    double s = 0.0;
    for (int c = 0; c < av.cols(); ++c) s += row[c];
    (*out)(r, 0) = s;
  }
  return v;
}

Var ColSum(Var a) {
  Tape* tape = a.tape();
  Ctx ctx;
  ctx.a = a.id();
  Matrix* out = nullptr;
  Var v = tape->NewNode(1, a.cols(), &ColSumBackward, ctx, &out);
  const Matrix& av = tape->ValueOf(ctx.a);
  out->Fill(0.0);  // reused buffers are not zeroed by the tape
  for (int r = 0; r < av.rows(); ++r) {
    const double* row = av.row(r);
    for (int c = 0; c < av.cols(); ++c) (*out)(0, c) += row[c];
  }
  return v;
}

Var Transpose(Var a) {
  Tape* tape = a.tape();
  Ctx ctx;
  ctx.a = a.id();
  Matrix* out = nullptr;
  Var v = tape->NewNode(a.cols(), a.rows(), &TransposeBackward, ctx, &out);
  const Matrix& av = tape->ValueOf(ctx.a);
  for (int r = 0; r < av.rows(); ++r) {
    const double* src = av.row(r);
    for (int c = 0; c < av.cols(); ++c) (*out)(c, r) = src[c];
  }
  return v;
}

Var ConcatRows(Var a, Var b) {
  Tape* tape = SameTape(a, b);
  CERL_CHECK_EQ(a.cols(), b.cols());
  Ctx ctx;
  ctx.a = a.id();
  ctx.b = b.id();
  ctx.aux = a.rows();
  Matrix* out = nullptr;
  Var v = tape->NewNode(a.rows() + b.rows(), a.cols(), &ConcatRowsBackward,
                        ctx, &out);
  const Matrix& av = tape->ValueOf(ctx.a);
  const Matrix& bv = tape->ValueOf(ctx.b);
  for (int r = 0; r < av.rows(); ++r) {
    std::copy(av.row(r), av.row(r) + av.cols(), out->row(r));
  }
  for (int r = 0; r < bv.rows(); ++r) {
    std::copy(bv.row(r), bv.row(r) + bv.cols(), out->row(av.rows() + r));
  }
  return v;
}

Var GatherRows(Var a, const int* index, int n) {
  Tape* tape = a.tape();
  Ctx ctx;
  ctx.a = a.id();
  ctx.aux = tape->StoreIndices(index, n);
  ctx.aux2 = n;
  Matrix* out = nullptr;
  Var v = tape->NewNode(n, a.cols(), &GatherRowsBackward, ctx, &out);
  tape->ValueOf(ctx.a).GatherRowsInto(tape->Indices(ctx.aux), n, out);
  return v;
}

Var GatherRows(Var a, const std::vector<int>& index) {
  return GatherRows(a, index.data(), static_cast<int>(index.size()));
}

}  // namespace cerl::autodiff
