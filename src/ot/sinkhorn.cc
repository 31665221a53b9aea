#include "ot/sinkhorn.h"

#include <algorithm>
#include <cmath>

#include "linalg/gemm.h"
#include "linalg/ops.h"
#include "linalg/simd.h"
#include "util/fault_injection.h"

namespace cerl::ot {
namespace {

using linalg::Matrix;
using linalg::Vector;

/// Scaling variables at or below this are treated as numerical underflow:
/// the solver retries cold / falls back to the log domain.
constexpr double kUnderflow = 1e-300;

/// A solve that exhausts max_iterations with a final row violation within
/// this factor of the tolerance is accepted as "slow but essentially
/// converged" (the reference solver's accept-at-max-iterations behaviour);
/// beyond it the solver retries / falls back.
constexpr double kNearMissFactor = 100.0;

// Fast path: standard Sinkhorn matrix scaling u = a ./ (K v), v = b ./ (K^T u)
// with the Gibbs kernel K = exp(-C / reg) computed once. Returns false if the
// iteration degenerates numerically (under/overflow), in which case the
// caller falls back to the log-domain solver. This is the reference
// implementation: it allocates per call, runs scalar/serial, and always
// starts cold — the workspace solver below is tested against it.
bool SolveScaling(const linalg::Matrix& cost, double reg, int max_iterations,
                  double tolerance, SinkhornResult* out) {
  const int n1 = cost.rows();
  const int n2 = cost.cols();
  const double a = 1.0 / n1;
  const double b = 1.0 / n2;

  linalg::Matrix kernel(n1, n2);
  for (int i = 0; i < n1; ++i) {
    const double* crow = cost.row(i);
    double* krow = kernel.row(i);
    for (int j = 0; j < n2; ++j) krow[j] = std::exp(-crow[j] / reg);
  }

  linalg::Vector u(n1, 1.0), v(n2, 1.0), kv(n1), ktu(n2);
  int iter = 0;
  bool have_u = false;
  for (; iter < max_iterations; ++iter) {
    // kv = K v — the one K·v pass per iteration. It serves both the
    // convergence check (against the previous iteration's u, whose row
    // marginal is u ⊙ K v with the current v) and the u update below;
    // the check used to re-compute K·v from scratch in a third full pass
    // over the kernel, which also limited it to every fifth iteration.
    for (int i = 0; i < n1; ++i) {
      const double* krow = kernel.row(i);
      double s = 0.0;
      for (int j = 0; j < n2; ++j) s += krow[j] * v[j];
      if (s <= kUnderflow || !std::isfinite(s)) return false;
      kv[i] = s;
    }
    if (have_u) {
      double violation = 0.0;
      for (int i = 0; i < n1; ++i) violation += std::fabs(u[i] * kv[i] - a);
      if (violation < tolerance) break;
    }
    for (int i = 0; i < n1; ++i) u[i] = a / kv[i];
    have_u = true;
    // ktu = K^T u ; v = b / ktu
    std::fill(ktu.begin(), ktu.end(), 0.0);
    for (int i = 0; i < n1; ++i) {
      const double* krow = kernel.row(i);
      const double ui = u[i];
      for (int j = 0; j < n2; ++j) ktu[j] += krow[j] * ui;
    }
    for (int j = 0; j < n2; ++j) {
      if (ktu[j] <= kUnderflow || !std::isfinite(ktu[j])) return false;
      v[j] = b / ktu[j];
    }
  }

  out->plan = linalg::Matrix(n1, n2);
  out->cost = 0.0;
  for (int i = 0; i < n1; ++i) {
    const double* krow = kernel.row(i);
    const double* crow = cost.row(i);
    double* prow = out->plan.row(i);
    for (int j = 0; j < n2; ++j) {
      const double p = u[i] * krow[j] * v[j];
      if (!std::isfinite(p)) return false;
      prow[j] = p;
      out->cost += p * crow[j];
    }
  }
  out->iterations = iter;
  return std::isfinite(out->cost);
}

// Log-domain stabilized solver (slower, robust for small regularization).
SinkhornResult SolveLogDomain(const linalg::Matrix& cost, double reg,
                              int max_iterations, double tolerance) {
  const int n1 = cost.rows();
  const int n2 = cost.cols();
  const double log_a = -std::log(static_cast<double>(n1));
  const double log_b = -std::log(static_cast<double>(n2));
  linalg::Vector f(n1, 0.0), g(n2, 0.0);

  auto logsumexp_row = [&](int i) {
    double m = -1e300;
    for (int j = 0; j < n2; ++j) m = std::max(m, (g[j] - cost(i, j)) / reg);
    double s = 0.0;
    for (int j = 0; j < n2; ++j) s += std::exp((g[j] - cost(i, j)) / reg - m);
    return m + std::log(s);
  };
  auto logsumexp_col = [&](int j) {
    double m = -1e300;
    for (int i = 0; i < n1; ++i) m = std::max(m, (f[i] - cost(i, j)) / reg);
    double s = 0.0;
    for (int i = 0; i < n1; ++i) s += std::exp((f[i] - cost(i, j)) / reg - m);
    return m + std::log(s);
  };

  SinkhornResult result;
  int iter = 0;
  for (; iter < max_iterations; ++iter) {
    for (int i = 0; i < n1; ++i) f[i] = reg * (log_a - logsumexp_row(i));
    for (int j = 0; j < n2; ++j) g[j] = reg * (log_b - logsumexp_col(j));
    double violation = 0.0;
    for (int i = 0; i < n1; ++i) {
      double row_sum = 0.0;
      for (int j = 0; j < n2; ++j) {
        row_sum += std::exp((f[i] + g[j] - cost(i, j)) / reg);
      }
      violation += std::fabs(row_sum - 1.0 / n1);
    }
    if (violation < tolerance) {
      ++iter;
      break;
    }
  }

  result.plan = linalg::Matrix(n1, n2);
  result.cost = 0.0;
  for (int i = 0; i < n1; ++i) {
    for (int j = 0; j < n2; ++j) {
      const double p = std::exp((f[i] + g[j] - cost(i, j)) / reg);
      result.plan(i, j) = p;
      result.cost += p * cost(i, j);
    }
  }
  result.iterations = iter;
  return result;
}

// --- Workspace (hot-path) solver -------------------------------------------

bool Usable(double x) { return x > kUnderflow && std::isfinite(x); }

bool AllUsable(const Vector& x, int n) {
  for (int i = 0; i < n; ++i) {
    if (!Usable(x[i])) return false;
  }
  return true;
}

// Rows of K per panel of the scaling sweep: 16 rows of a kernel up to 128
// columns wide are at most 16 KB, so the panel that K·v has just read is
// still in L1 when Kᵀu reads it.
constexpr int kPanelRows = 16;

// ktu = Kᵀ u without a transpose: mat_tvec_accum walks the rows and sums
// every ktu[j] in row order, unit-stride in the inner loop. ktu is pre-sized
// by Reserve.
void KernelTransposeTimesVec(const Matrix& kernel, const double* u,
                             Vector* ktu) {
  std::fill(ktu->begin(), ktu->end(), 0.0);
  linalg::simd::Kernels().mat_tvec_accum(kernel.row(0), kernel.cols(), u,
                                         kernel.rows(), kernel.cols(),
                                         ktu->data());
}

enum class ScalingOutcome { kConverged, kNotConverged, kDegenerate };

// Row-marginal violation of the (u, v) pair given kv = K v.
double RowViolation(const Vector& u, const Vector& kv, int n1, double a) {
  double violation = 0.0;
  for (int i = 0; i < n1; ++i) violation += std::fabs(u[i] * kv[i] - a);
  return violation;
}

// Column-marginal violation given ktu = Kᵀ u.
double ColViolation(const Vector& v, const Vector& ktu, int n2, double b) {
  double violation = 0.0;
  for (int j = 0; j < n2; ++j) violation += std::fabs(v[j] * ktu[j] - b);
  return violation;
}

// Runs the u/v scaling iteration in the lease's buffers. `have_u` marks a
// warm start where u already pairs with v (enabling the convergence check —
// and thus a zero-iteration exit — before the first update). On
// kNotConverged the final pair's violation is left in *final_violation so
// the caller can decide whether the result is usable.
ScalingOutcome RunScaling(const Matrix& kernel, const SinkhornConfig& config,
                          double a, double b, bool have_u, Vector* u,
                          Vector* v, Vector* kv, Vector* ktu, int* iterations,
                          double* final_violation) {
  const int n1 = kernel.rows();
  const int n2 = kernel.cols();
  const auto& ks = linalg::simd::Kernels();
  int iter = 0;
  for (; iter < config.max_iterations; ++iter) {
    // One sweep over K in row panels. For each panel: kv = K v; the
    // usability check and the row violation of the current (u, v) pair, in
    // row order; u_next = a ./ kv written over kv; and the panel's rows of
    // Kᵀ u_next added into ktu while the panel is still in L1. Every
    // element sees the same operations in the same order as separate full
    // passes, so the bits are those of the unfused iteration.
    std::fill(ktu->begin(), ktu->end(), 0.0);
    double violation = 0.0;
    for (int r0 = 0; r0 < n1; r0 += kPanelRows) {
      const int rows = std::min(kPanelRows, n1 - r0);
      const double* panel = kernel.row(r0);
      double* kv_panel = kv->data() + r0;
      ks.mat_vec(panel, n2, v->data(), rows, n2, kv_panel);
      for (int i = 0; i < rows; ++i) {
        if (!Usable(kv_panel[i])) {
          *iterations = iter;
          return ScalingOutcome::kDegenerate;
        }
        violation += std::fabs((*u)[r0 + i] * kv_panel[i] - a);
      }
      // vec_div_scalar is plain IEEE division — the same bits as the
      // scalar loop.
      ks.vec_div_scalar(a, kv_panel, kv_panel, rows);
      ks.mat_tvec_accum(panel, n2, kv_panel, rows, n2, ktu->data());
    }
    if (have_u && violation < config.tolerance) {
      // The pair (u, v) is accepted as is; u_next and ktu are dropped. At
      // iter > 0 the columns are exact by construction (v was just
      // computed from this u and this kernel). At iter == 0 the pair is a
      // warm start whose columns were exact for the PREVIOUS kernel only —
      // cost drift could in principle move column mass while leaving every
      // row sum intact, so a zero-iteration accept must also verify the
      // column marginals (one extra Kᵀu pass, paid only on the accept
      // candidate).
      if (iter > 0) {
        *iterations = iter;
        return ScalingOutcome::kConverged;
      }
      KernelTransposeTimesVec(kernel, u->data(), ktu);
      if (AllUsable(*ktu, n2) &&
          ColViolation(*v, *ktu, n2, b) < config.tolerance) {
        *iterations = iter;
        return ScalingOutcome::kConverged;
      }
      // Rejected: ktu must pair with u_next again.
      KernelTransposeTimesVec(kernel, kv->data(), ktu);
    }
    std::copy(kv->begin(), kv->end(), u->begin());
    have_u = true;
    if (!AllUsable(*ktu, n2)) {
      *iterations = iter;
      return ScalingOutcome::kDegenerate;
    }
    ks.vec_div_scalar(b, ktu->data(), v->data(), n2);
  }
  *iterations = iter;
  // The pair from the final iteration was never checked; measure it so the
  // caller can tell "slow but essentially converged" from "stuck".
  ks.mat_vec(kernel.row(0), n2, v->data(), n1, n2, kv->data());
  if (!AllUsable(*kv, n1)) return ScalingOutcome::kDegenerate;
  *final_violation = RowViolation(*u, *kv, n1, a);
  if (*final_violation < config.tolerance) return ScalingOutcome::kConverged;
  return ScalingOutcome::kNotConverged;
}

// plan = diag(u) K diag(v); returns <plan, cost> (NaN propagates to the
// caller's finiteness check).
double AssemblePlanCost(const Matrix& cost, const Matrix& kernel,
                        const Vector& u, const Vector& v, Matrix* plan) {
  const int n1 = cost.rows();
  const int n2 = cost.cols();
  const double* vd = v.data();
  double total = 0.0;
  for (int i = 0; i < n1; ++i) {
    const double ui = u[i];
    const double* krow = kernel.row(i);
    const double* crow = cost.row(i);
    double* prow = plan->row(i);
    double s0 = 0.0, s1 = 0.0;
    int j = 0;
    for (; j + 2 <= n2; j += 2) {
      const double p0 = ui * krow[j] * vd[j];
      const double p1 = ui * krow[j + 1] * vd[j + 1];
      prow[j] = p0;
      prow[j + 1] = p1;
      s0 += p0 * crow[j];
      s1 += p1 * crow[j + 1];
    }
    for (; j < n2; ++j) {
      const double p = ui * krow[j] * vd[j];
      prow[j] = p;
      s0 += p * crow[j];
    }
    total += s0 + s1;
  }
  return total;
}

}  // namespace

bool SinkhornDuals::AdaptWarmStart(int rows, int cols) {
  if (warm_rows <= 0 || warm_cols <= 0) return false;
  if (warm_rows == rows && warm_cols == cols) return false;
  // resize keeps the prefix; only entries beyond the old shape get the cold
  // value. The scale of the retained duals is irrelevant: the first scaling
  // update recomputes u entirely from K·v (and v from Kᵀ·u), so only the
  // dual profile carries warm-start information.
  u.resize(rows);
  for (int i = warm_rows; i < rows; ++i) u[i] = 1.0;
  v.resize(cols);
  for (int j = warm_cols; j < cols; ++j) v[j] = 1.0;
  warm_rows = rows;
  warm_cols = cols;
  return true;
}

linalg::Matrix* SinkhornScratch::CostBuffer(int n1, int n2) {
  if (static_cast<int64_t>(n1) * n2 > cost_.capacity()) ++allocations_;
  cost_.Resize(n1, n2);
  return &cost_;
}

void SinkhornScratch::Reserve(int n1, int n2) {
  const int64_t elems = static_cast<int64_t>(n1) * n2;
  if (elems > kernel_.capacity()) ++allocations_;
  if (elems > plan_.capacity()) ++allocations_;
  kernel_.Resize(n1, n2);
  plan_.Resize(n1, n2);
  if (static_cast<size_t>(n1) > kv_.capacity()) ++allocations_;
  if (static_cast<size_t>(n2) > ktu_.capacity()) ++allocations_;
  kv_.resize(n1);
  ktu_.resize(n2);
}

Result<SinkhornSolveInfo> SolveSinkhorn(const linalg::Matrix& cost,
                                        const SinkhornConfig& config,
                                        SinkhornLease lease) {
  CERL_CHECK(lease.scratch != nullptr && lease.duals != nullptr);
  const int n1 = cost.rows();
  const int n2 = cost.cols();
  if (n1 == 0 || n2 == 0) {
    return Status::InvalidArgument("empty cost matrix");
  }
  // Fault-injection hook: the calling thread is the stream's stage worker,
  // so a thread-local FaultScope correctly confines the fault to one tenant.
  if (CERL_FAULT_POINT(FaultPoint::kSinkhornDiverge)) {
    return Status::NumericalError("injected sinkhorn non-convergence");
  }
  SinkhornScratch& scratch = *lease.scratch;
  SinkhornDuals& duals = *lease.duals;
  if (config.warm_start && config.adaptive_warm_start) {
    duals.AdaptWarmStart(n1, n2);
  }
  scratch.Reserve(n1, n2);
  duals.u.resize(n1);
  duals.v.resize(n2);

  // Scale-free regularization from the mean cost, summed row by row.
  double mean_cost = 0.0;
  for (int i = 0; i < n1; ++i) {
    const double* crow = cost.row(i);
    double s = 0.0;
    for (int j = 0; j < n2; ++j) s += crow[j];
    mean_cost += s;
  }
  mean_cost /= static_cast<double>(n1) * n2;
  const double reg =
      std::max(1e-12, config.reg_fraction * std::max(mean_cost, 1e-12));
  const double neg_inv_reg = -1.0 / reg;

  // Gibbs kernel K = exp(-C / reg), row-blocked with the vectorized batch
  // exp (the biggest single cost of a cold solve).
  for (int i = 0; i < n1; ++i) {
    const double* crow = cost.row(i);
    double* krow = scratch.kernel_.row(i);
    for (int j = 0; j < n2; ++j) krow[j] = crow[j] * neg_inv_reg;
    linalg::VecExp(krow, krow, n2);
  }

  const double a = 1.0 / n1;
  const double b = 1.0 / n2;
  const bool can_warm = config.warm_start && duals.has_warm_start(n1, n2);
  SinkhornSolveInfo info;
  // First attempt warm (when retained duals fit), then cold; a degenerate
  // warm start must not poison the solve, it just costs one retry.
  const int attempts = can_warm ? 2 : 1;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    const bool warm = can_warm && attempt == 0;
    if (!warm) {
      std::fill(duals.u.begin(), duals.u.end(), 1.0);
      std::fill(duals.v.begin(), duals.v.end(), 1.0);
    }
    int iterations = 0;
    double final_violation = 0.0;
    const ScalingOutcome outcome =
        RunScaling(scratch.kernel_, config, a, b, /*have_u=*/warm, &duals.u,
                   &duals.v, &scratch.kv_, &scratch.ktu_, &iterations, &final_violation);
    if (outcome == ScalingOutcome::kDegenerate) continue;
    // Exhausting max_iterations far from the tolerance means the scaling
    // iteration is numerically stuck (tiny regularization): the plan would
    // be visibly infeasible, so route to the log-domain solver instead of
    // returning it. A near-miss (within 100x tolerance) is kept — that
    // matches the reference solver's accept-at-max-iterations behaviour
    // for merely slow convergence.
    if (outcome == ScalingOutcome::kNotConverged &&
        final_violation > kNearMissFactor * config.tolerance) {
      continue;
    }
    const double total =
        AssemblePlanCost(cost, scratch.kernel_, duals.u, duals.v, &scratch.plan_);
    if (std::isfinite(total)) {
      info.cost = total;
      info.iterations = iterations;
      info.warm_started = warm;
      duals.warm_rows = n1;
      duals.warm_cols = n2;
      return info;
    }
  }

  // Scaling under/overflowed even from a cold start: log-domain fallback
  // (the rare small-regularization regime; allocates outside the scratch —
  // correctness over churn here). The duals are not representable in the
  // scaling form, so the warm start is dropped.
  SinkhornResult log_result =
      SolveLogDomain(cost, reg, config.max_iterations, config.tolerance);
  scratch.plan_.CopyFrom(log_result.plan);
  duals.DropWarmStart();
  info.cost = log_result.cost;
  info.iterations = log_result.iterations;
  info.warm_started = false;
  info.used_log_domain = true;
  if (!std::isfinite(info.cost)) {
    return Status::NumericalError("sinkhorn: non-finite transport cost");
  }
  return info;
}

Result<SinkhornSolveInfo> SolveSinkhorn(const linalg::Matrix& cost,
                                        const SinkhornConfig& config,
                                        SinkhornWorkspace* workspace) {
  CERL_CHECK(workspace != nullptr);
  return SolveSinkhorn(cost, config, workspace->lease());
}

Result<SinkhornResult> SolveSinkhorn(const linalg::Matrix& cost,
                                     const SinkhornConfig& config) {
  const int n1 = cost.rows();
  const int n2 = cost.cols();
  if (n1 == 0 || n2 == 0) {
    return Status::InvalidArgument("empty cost matrix");
  }
  double mean_cost = 0.0;
  for (int i = 0; i < n1; ++i) {
    for (int j = 0; j < n2; ++j) mean_cost += cost(i, j);
  }
  mean_cost /= static_cast<double>(n1) * n2;
  const double reg =
      std::max(1e-12, config.reg_fraction * std::max(mean_cost, 1e-12));

  SinkhornResult result;
  if (SolveScaling(cost, reg, config.max_iterations, config.tolerance,
                   &result)) {
    return result;
  }
  return SolveLogDomain(cost, reg, config.max_iterations, config.tolerance);
}

Result<double> SinkhornDistance(const linalg::Matrix& a,
                                const linalg::Matrix& b,
                                const SinkhornConfig& config) {
  if (a.rows() == 0 || b.rows() == 0) {
    return Status::InvalidArgument("empty point set");
  }
  auto result = SolveSinkhorn(linalg::PairwiseSquaredDistances(a, b), config);
  if (!result.ok()) return result.status();
  return result.value().cost;
}

}  // namespace cerl::ot
