#include "ot/ipm.h"

#include <vector>

#include "autodiff/ops.h"
#include "linalg/gemm.h"
#include "linalg/simd.h"
#include "util/check.h"
#include "util/status.h"

namespace cerl::ot {

using autodiff::Tape;
using autodiff::Var;
using linalg::Matrix;
using linalg::Trans;

namespace {

using Ctx = Tape::BackwardCtx;

// c(i, j) = |a_i|^2 + |b_j|^2 - 2 a_i . b_j into `out` (n1 x n2, fully
// overwritten): C = -2 A B^T, then the squared norms added row by row.
void PairwiseSqDistInto(const Matrix& av, const Matrix& bv, Matrix* out) {
  const int n1 = av.rows();
  const int n2 = bv.rows();
  const int d = av.cols();
  linalg::Gemm(Trans::kNo, Trans::kYes, -2.0, av, bv, 0.0, out);
  static thread_local std::vector<double> row_norms;
  row_norms.resize(n2);
  for (int j = 0; j < n2; ++j) {
    const double* brow = bv.row(j);
    double s = 0.0;
    for (int c = 0; c < d; ++c) s += brow[c] * brow[c];
    row_norms[j] = s;
  }
  const double* rb = row_norms.data();
  for (int i = 0; i < n1; ++i) {
    const double* arow = av.row(i);
    double ra = 0.0;
    for (int c = 0; c < d; ++c) ra += arow[c] * arow[c];
    double* crow = out->row(i);
    for (int j = 0; j < n2; ++j) crow[j] += ra + rb[j];
  }
}

// Scatters the cost gradient dC (n1 x n2) into the grads of ctx.a and
// ctx.b. With c(i, j) = |a_i|^2 + |b_j|^2 - 2 a_i . b_j, the closed forms
// are
//   dA = 2 diag(rowsum dC) A - 2 dC B
//   dB = 2 diag(colsum dC) B - 2 dC^T A
// accumulated in place (Gemm beta = 1 plus vec_axpy per row), so no
// temporary Matrix is materialized — matching the convention of the
// primitive backward kernels in autodiff/ops.cc.
void PairwiseSqDistBackward(Tape* t, const Ctx& ctx, const Matrix& g) {
  const Matrix& av = t->ValueOf(ctx.a);
  const Matrix& bv = t->ValueOf(ctx.b);
  const int n1 = g.rows();
  const int n2 = g.cols();
  const int d = av.cols();
  const auto& ks = linalg::simd::Kernels();
  if (t->RequiresGrad(ctx.a)) {
    Matrix& ga = t->GradRef(ctx.a);
    linalg::Gemm(Trans::kNo, Trans::kNo, -2.0, g, bv, 1.0, &ga);
    for (int i = 0; i < n1; ++i) {
      const double* grow = g.row(i);
      double rs = 0.0;
      for (int j = 0; j < n2; ++j) rs += grow[j];
      ks.vec_axpy(2.0 * rs, av.row(i), ga.row(i), d);
    }
  }
  if (t->RequiresGrad(ctx.b)) {
    Matrix& gb = t->GradRef(ctx.b);
    linalg::Gemm(Trans::kYes, Trans::kNo, -2.0, g, av, 1.0, &gb);
    // Column sums of dC land in a retained scratch vector (same
    // thread-local reuse pattern as Gemm's transposed-B pack buffer).
    static thread_local std::vector<double> colsum;
    colsum.assign(n2, 0.0);
    for (int i = 0; i < n1; ++i) ks.vec_accum(g.row(i), colsum.data(), n2);
    for (int j = 0; j < n2; ++j) {
      ks.vec_axpy(2.0 * colsum[j], bv.row(j), gb.row(j), d);
    }
  }
}

void PairwiseSqDistNodeBackward(Tape* t, int self, const Ctx& ctx) {
  PairwiseSqDistBackward(t, ctx, t->GradRef(self));
}

// Backward of the fused <plan, C(a, b)> node. The unfused chain
// Sum(Mul(plan, C)) gave the cost node the gradient
//   dC_i = fma(0.0 + g, plan_i, 0.0)
// (SumBackward adds g into a zero-filled grad, MulBackward fma-accumulates
// into another); vec_axpy over a zeroed buffer forms exactly that, in the
// scratch's cost buffer, which the forward no longer needs.
void WassersteinBackward(Tape* t, int self, const Ctx& ctx) {
  auto* scratch = static_cast<SinkhornScratch*>(ctx.ext);
  const Matrix& plan = scratch->plan();
  CERL_CHECK_MSG(plan.rows() == t->ValueOf(ctx.a).rows() &&
                     plan.cols() == t->ValueOf(ctx.b).rows(),
                 "WassersteinPenalty: its Sinkhorn scratch was re-solved "
                 "before Backward");
  const double g = 0.0 + t->GradRef(self)(0, 0);
  Matrix* dc = scratch->CostBuffer(plan.rows(), plan.cols());
  dc->Fill(0.0);
  linalg::simd::Kernels().vec_axpy(g, plan.data(), dc->data(), dc->size());
  PairwiseSqDistBackward(t, ctx, *dc);
}

}  // namespace

Var PairwiseSquaredDistancesVar(Var a, Var b) {
  CERL_CHECK(a.valid() && b.valid());
  CERL_CHECK(a.tape() == b.tape());
  CERL_CHECK_EQ(a.cols(), b.cols());
  Tape* tape = a.tape();
  // One fused node instead of the nine-node primitive graph
  // (Square/RowSum on each side, two rank-1 GEMMs, Transpose, Add, Sub,
  // ScalarMul): the per-step cost matrices are ~44x44, so the node count
  // and the degenerate k=1 GEMMs cost more than the arithmetic.
  Ctx ctx;
  ctx.a = a.id();
  ctx.b = b.id();
  Matrix* out = nullptr;
  Var v = tape->NewNode(a.rows(), b.rows(), &PairwiseSqDistNodeBackward, ctx,
                        &out);
  // NewNode may grow the arena, so operand values are re-fetched after it.
  PairwiseSqDistInto(tape->ValueOf(ctx.a), tape->ValueOf(ctx.b), out);
  return v;
}

Var WassersteinPenalty(Var rep_treated, Var rep_control,
                       const SinkhornConfig& config, SinkhornLease lease) {
  CERL_CHECK(rep_treated.valid() && rep_control.valid());
  CERL_CHECK(rep_treated.tape() == rep_control.tape());
  CERL_CHECK(lease.scratch != nullptr && lease.duals != nullptr);
  Tape* tape = rep_treated.tape();
  const int n1 = rep_treated.rows();
  const int n2 = rep_control.rows();
  if (n1 == 0 || n2 == 0) return tape->Constant(Matrix(1, 1, 0.0));
  CERL_CHECK_EQ(rep_treated.cols(), rep_control.cols());
  // The cost is built in the scratch, not on the tape. The plan is a
  // constant of the optimization (envelope theorem / CFR practice): it is
  // solved on detached values and read back from the scratch in Backward.
  Matrix* cost = lease.scratch->CostBuffer(n1, n2);
  PairwiseSqDistInto(rep_treated.value(), rep_control.value(), cost);
  auto solved = SolveSinkhorn(*cost, config, lease);
  // Solver failure is data-dependent (degenerate batch, injected
  // divergence), not a programming error: surface it as a typed exception
  // so the stage pipeline can roll the stream back instead of aborting
  // the process.
  if (!solved.ok()) throw StatusError(solved.status());
  // The value is Sum(Mul(plan, C)) of the unfused chain, bit for bit: each
  // product rounded on its own (vec_mul), summed in row-major order from
  // 0.0 (autodiff::Sum). Not the solver's own <plan, C>, whose order
  // differs.
  const double* p = lease.scratch->plan().data();
  const double* c = cost->data();
  double total = 0.0;
  for (int64_t i = 0; i < cost->size(); ++i) total += p[i] * c[i];
  Ctx ctx;
  ctx.a = rep_treated.id();
  ctx.b = rep_control.id();
  ctx.ext = lease.scratch;
  Matrix* out = nullptr;
  Var v = tape->NewNode(1, 1, &WassersteinBackward, ctx, &out);
  (*out)(0, 0) = total;
  return v;
}

Var LinearMmdPenalty(Var rep_treated, Var rep_control) {
  using namespace autodiff;  // NOLINT
  Tape* tape = rep_treated.tape();
  if (rep_treated.rows() == 0 || rep_control.rows() == 0) {
    return tape->Constant(linalg::Matrix(1, 1, 0.0));
  }
  Var mean_t =
      ScalarMul(ColSum(rep_treated), 1.0 / rep_treated.rows());
  Var mean_c =
      ScalarMul(ColSum(rep_control), 1.0 / rep_control.rows());
  return Sum(Square(Sub(mean_t, mean_c)));
}

Var IpmPenalty(IpmKind kind, Var rep_treated, Var rep_control,
               const SinkhornConfig& config, SinkhornLease lease) {
  switch (kind) {
    case IpmKind::kWasserstein:
      return WassersteinPenalty(rep_treated, rep_control, config, lease);
    case IpmKind::kLinearMmd:
      return LinearMmdPenalty(rep_treated, rep_control);
  }
  CERL_CHECK(false);
  return Var();
}

}  // namespace cerl::ot
