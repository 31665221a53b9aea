// Entropic-regularized optimal transport between two empirical distributions
// with uniform marginals (Cuturi 2013). Produces the transport plan used by
// the Wasserstein IPM penalty (Eq. 3): the plan is computed on detached
// values and gradients flow through the cost matrix only — the estimator
// CFR (Shalit et al. 2017) uses.
//
// Two solver entry points share the same math:
//  - SolveSinkhorn(cost, config): the original allocate-per-call scalar
//    solver, kept as the reference implementation (and the owner of the
//    log-domain fallback for small regularization);
//  - SolveSinkhorn(cost, config, lease): the training hot path. It runs in
//    caller-owned buffers (the same arena pattern autodiff::Tape uses), so
//    steady-state solves allocate nothing, the duals are warm-started from
//    the previous solve of the same shape, and the K·v / Kᵀ·u products and
//    Gibbs-kernel exp run on the dispatched SIMD kernels.
//
// The hot path's buffers come in two kinds (Cuturi's scaling form carries
// only the dual pair from one solve to the next):
//  - per-shape warm state, SinkhornDuals: u, v and the shape they solve;
//  - solve scratch, SinkhornScratch: the n1 x n2 cost, Gibbs kernel and
//    plan, plus the K·v / Kᵀ·u vectors. Every solve rewrites them in full
//    before reading them, so one scratch serves any number of shapes —
//    SinkhornWorkspacePool keeps one scratch and a dual record per shape.
#pragma once

#include <cstdint>

#include "linalg/matrix.h"
#include "util/status.h"

namespace cerl::ot {

/// Sinkhorn solver settings.
struct SinkhornConfig {
  /// Entropic regularization as a fraction of the mean cost (scale free).
  double reg_fraction = 0.1;
  int max_iterations = 200;
  double tolerance = 1e-6;  ///< stop when marginal violation is below this
  /// Workspace solves only: start the duals from the previous solve when the
  /// problem shape matches. Representations drift slowly between SGD steps,
  /// so warm starts typically converge in a handful of iterations (often
  /// zero — the retained duals may already satisfy the tolerance).
  bool warm_start = true;
  /// Workspace solves only (and only with warm_start): when the retained
  /// duals were computed for a DIFFERENT shape, adapt them to the new shape
  /// (truncate, pad new entries with the cold value 1.0) instead of
  /// discarding them. Minibatch treated/control splits vary from step to
  /// step, so exact-shape warm starts rarely fire on heterogeneous streams;
  /// the dual profile is still a far better starting point than a cold
  /// start because u is fully recomputed from v (and v from u) in the first
  /// scaling update — only the profile carries information, not the scale.
  /// The adapted start is deterministic; a degenerate adapted start costs
  /// one retry, exactly like a degenerate exact-shape warm start.
  bool adaptive_warm_start = true;
};

/// Solution: the transport plan and the resulting OT cost <plan, cost>.
struct SinkhornResult {
  linalg::Matrix plan;  ///< n1 x n2, rows sum to 1/n1, cols to 1/n2
  double cost = 0.0;
  int iterations = 0;
};

/// Outcome of a workspace solve. The plan itself stays in the scratch
/// (SinkhornScratch::plan()) so the steady state copies nothing.
struct SinkhornSolveInfo {
  double cost = 0.0;      ///< <plan, cost>
  int iterations = 0;     ///< dual updates performed (0: warm start already
                          ///< satisfied the tolerance)
  bool warm_started = false;    ///< duals were seeded from the previous solve
  bool used_log_domain = false; ///< scaling degenerated; log-domain fallback
};

struct SinkhornLease;

/// Per-shape warm state: the scaling duals of the last successful solve and
/// the shape they belong to. The only state that carries from one solve to
/// the next (a solve reads u and v only when it warm-starts).
struct SinkhornDuals {
  linalg::Vector u, v;
  int warm_rows = -1, warm_cols = -1;  ///< -1: no retained duals

  /// True if a solve of this shape would warm-start from retained duals.
  bool has_warm_start(int rows, int cols) const {
    return warm_rows == rows && warm_cols == cols;
  }

  /// Drops the retained duals so the next solve starts cold (used after the
  /// problem changes discontinuously, e.g. a new stage's representations).
  void DropWarmStart() { warm_rows = warm_cols = -1; }

  /// Reshapes retained duals from a previous solve of a different shape so a
  /// `rows x cols` solve warm-starts from them (see
  /// SinkhornConfig::adaptive_warm_start): existing entries keep their
  /// values, entries beyond the old shape start at the cold value 1.0. No-op
  /// without retained duals or when the shape already matches. Returns true
  /// if the duals were reshaped.
  bool AdaptWarmStart(int rows, int cols);
};

/// Solve scratch: the n1 x n2 cost, Gibbs kernel and transport plan and the
/// K·v / Kᵀ·u vectors. A solve rewrites every buffer it reads, so the
/// scratch carries nothing between solves and may be shared by any number
/// of dual records. Buffers grow to the high-water shape and are then
/// reused. Not thread-safe.
class SinkhornScratch {
 public:
  SinkhornScratch() = default;
  SinkhornScratch(const SinkhornScratch&) = delete;
  SinkhornScratch& operator=(const SinkhornScratch&) = delete;

  /// Transport plan of the last successful solve (n1 x n2). Stable storage:
  /// overwritten only by the next solve on this scratch.
  const linalg::Matrix& plan() const { return plan_; }

  /// The cost buffer reshaped to n1 x n2, contents unspecified. Callers
  /// that build the cost here (ot::WassersteinPenalty) solve on it and may
  /// reuse it until the next solve, e.g. for the cost gradient. The solver
  /// itself never touches it.
  linalg::Matrix* CostBuffer(int n1, int n2);

  /// Buffer (re)allocations performed since construction. Flat across
  /// solves of shapes below the high-water shape; tests assert this the
  /// same way Tape::arena_allocations() proves the tape arena is
  /// zero-churn.
  int64_t allocations() const { return allocations_; }

 private:
  friend Result<SinkhornSolveInfo> SolveSinkhorn(const linalg::Matrix&,
                                                 const SinkhornConfig&,
                                                 SinkhornLease);

  /// Sizes the kernel, plan and iteration vectors for an n1 x n2 solve,
  /// counting the buffers that had to grow beyond their capacity.
  void Reserve(int n1, int n2);

  linalg::Matrix cost_;    ///< caller-built cost (see CostBuffer)
  linalg::Matrix kernel_;  ///< exp(-C / reg)
  linalg::Matrix plan_;    ///< diag(u) K diag(v)
  linalg::Vector kv_, ktu_;
  int64_t allocations_ = 0;
};

/// What one solve runs in: a shape's duals and a scratch, both borrowed.
/// SinkhornWorkspacePool::Acquire hands these out; SinkhornWorkspace owns
/// one of each.
struct SinkhornLease {
  SinkhornScratch* scratch = nullptr;
  SinkhornDuals* duals = nullptr;
};

/// Hot-path solve into the lease's buffers. Steady-state solves with
/// non-growing shapes perform zero heap allocations. Warm-starts the duals
/// from the previous solve when config.warm_start and the shape matches;
/// falls back to a cold start (and ultimately the log-domain solver) on
/// numerical degeneration. `cost` may be the scratch's own cost buffer.
Result<SinkhornSolveInfo> SolveSinkhorn(const linalg::Matrix& cost,
                                        const SinkhornConfig& config,
                                        SinkhornLease lease);

/// One scratch and one dual record: a self-contained arena for callers that
/// solve a single problem stream (probes, benches, tests). Not thread-safe:
/// one workspace per concurrent solver.
class SinkhornWorkspace {
 public:
  SinkhornWorkspace() = default;
  SinkhornWorkspace(const SinkhornWorkspace&) = delete;
  SinkhornWorkspace& operator=(const SinkhornWorkspace&) = delete;

  SinkhornLease lease() { return {&scratch_, &duals_}; }

  /// See SinkhornScratch::plan().
  const linalg::Matrix& plan() const { return scratch_.plan(); }
  /// See SinkhornScratch::allocations().
  int64_t allocations() const { return scratch_.allocations(); }

  void DropWarmStart() { duals_.DropWarmStart(); }
  bool has_warm_start(int rows, int cols) const {
    return duals_.has_warm_start(rows, cols);
  }

 private:
  SinkhornScratch scratch_;
  SinkhornDuals duals_;
};

/// Workspace overload of the hot-path solve (the lease of `workspace`).
Result<SinkhornSolveInfo> SolveSinkhorn(const linalg::Matrix& cost,
                                        const SinkhornConfig& config,
                                        SinkhornWorkspace* workspace);

/// Solves OT with uniform marginals for the given cost matrix (entries >= 0,
/// at least one row and column). Log-domain stabilized. Reference
/// implementation: allocates its outputs per call and always starts cold.
Result<SinkhornResult> SolveSinkhorn(const linalg::Matrix& cost,
                                     const SinkhornConfig& config);

/// Convenience: squared-Euclidean Sinkhorn distance between point sets
/// (rows of a and b).
Result<double> SinkhornDistance(const linalg::Matrix& a,
                                const linalg::Matrix& b,
                                const SinkhornConfig& config);

}  // namespace cerl::ot
