#include "ot/ipm.h"

#include <vector>

#include "autodiff/composite.h"
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

// Backward of the fused pairwise-squared-distance node. With
// c(i, j) = |a_i|^2 + |b_j|^2 - 2 a_i . b_j, the closed forms are
//   dA = 2 diag(rowsum dC) A - 2 dC B
//   dB = 2 diag(colsum dC) B - 2 dC^T A
// accumulated in place (Gemm beta = 1 plus vec_axpy per row), so no
// temporary Matrix is materialized — matching the convention of the
// primitive backward kernels in autodiff/ops.cc.
void PairwiseSqDistBackward(Tape* t, int self, const Tape::BackwardCtx& ctx) {
  const Matrix& g = t->GradRef(self);
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

}  // namespace

Var PairwiseSquaredDistancesVar(Var a, Var b) {
  CERL_CHECK(a.valid() && b.valid());
  CERL_CHECK(a.tape() == b.tape());
  CERL_CHECK_EQ(a.cols(), b.cols());
  Tape* tape = a.tape();
  const int n1 = a.rows();
  const int n2 = b.rows();
  const int d = a.cols();
  // One fused node instead of the nine-node primitive graph
  // (Square/RowSum on each side, two rank-1 GEMMs, Transpose, Add, Sub,
  // ScalarMul): the per-step cost matrices are ~44x44, so the node count
  // and the degenerate k=1 GEMMs cost more than the arithmetic.
  Tape::BackwardCtx ctx;
  ctx.a = a.id();
  ctx.b = b.id();
  Matrix* out = nullptr;
  Var v = tape->NewNode(n1, n2, &PairwiseSqDistBackward, ctx, &out);
  // NewNode may grow the arena, so operand values are re-fetched after it.
  const Matrix& av = tape->ValueOf(ctx.a);
  const Matrix& bv = tape->ValueOf(ctx.b);
  // C = -2 A B^T, then c(i, j) += |a_i|^2 + |b_j|^2 row by row.
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
  return v;
}

Var WassersteinPenalty(Var rep_treated, Var rep_control,
                       const SinkhornConfig& config,
                       SinkhornWorkspace* workspace) {
  autodiff::Tape* tape = rep_treated.tape();
  if (rep_treated.rows() == 0 || rep_control.rows() == 0) {
    return tape->Constant(linalg::Matrix(1, 1, 0.0));
  }
  Var cost = PairwiseSquaredDistancesVar(rep_treated, rep_control);
  // The plan is treated as a constant of the optimization (envelope
  // theorem / CFR practice): solve on detached values.
  if (workspace != nullptr) {
    auto solved = SolveSinkhorn(cost.value(), config, workspace);
    // Solver failure is data-dependent (degenerate batch, injected
    // divergence), not a programming error: surface it as a typed exception
    // so the stage pipeline can roll the stream back instead of aborting
    // the process.
    if (!solved.ok()) throw StatusError(solved.status());
    // The plan stays in the workspace until the next solve, so the tape
    // aliases it instead of copying (see the header's lifetime contract).
    Var plan = tape->ConstantView(&workspace->plan());
    return autodiff::Sum(autodiff::Mul(plan, cost));
  }
  auto solved = SolveSinkhorn(cost.value(), config);
  if (!solved.ok()) throw StatusError(solved.status());
  Var plan = tape->Constant(std::move(solved.value().plan));
  return autodiff::Sum(autodiff::Mul(plan, cost));
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
               const SinkhornConfig& config, SinkhornWorkspace* workspace) {
  switch (kind) {
    case IpmKind::kWasserstein:
      return WassersteinPenalty(rep_treated, rep_control, config, workspace);
    case IpmKind::kLinearMmd:
      return LinearMmdPenalty(rep_treated, rep_control);
  }
  CERL_CHECK(false);
  return Var();
}

}  // namespace cerl::ot
