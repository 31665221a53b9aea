// Differentiable integral probability metric (IPM) penalties between the
// representation distributions of treatment and control groups (Eq. 3).
// Two estimators:
//  - Wasserstein via Sinkhorn: transport plan solved on detached values,
//    gradient flows through the pairwise-cost matrix (CFR's estimator);
//  - linear MMD: squared distance between group means (cheaper alternative
//    also used by CFR; exposed for ablation).
#pragma once

#include "autodiff/tape.h"
#include "ot/sinkhorn.h"

namespace cerl::ot {

/// Which IPM estimator to use for representation balancing.
enum class IpmKind { kWasserstein, kLinearMmd };

/// Differentiable pairwise squared-distance matrix between rows of a and b.
autodiff::Var PairwiseSquaredDistancesVar(autodiff::Var a, autodiff::Var b);

/// Wasserstein IPM penalty: <plan*, C(a, b)> with plan* from Sinkhorn on the
/// detached cost. Scalar Var. Either side empty => constant 0.
///
/// With a workspace (the training hot path) the solve runs in the
/// workspace's arena — warm-started duals, SIMD kernels, zero
/// steady-state allocations — and the plan enters the tape as a constant
/// VIEW of the workspace's plan buffer instead of a fresh Matrix copy. The
/// workspace must therefore outlive the tape pass and must not be re-solved
/// until Backward has run (one workspace per loss builder, owned next to
/// its training loop, satisfies this by construction).
autodiff::Var WassersteinPenalty(autodiff::Var rep_treated,
                                 autodiff::Var rep_control,
                                 const SinkhornConfig& config,
                                 SinkhornWorkspace* workspace = nullptr);

/// Linear MMD penalty: || mean(rep_treated) - mean(rep_control) ||^2.
autodiff::Var LinearMmdPenalty(autodiff::Var rep_treated,
                               autodiff::Var rep_control);

/// Dispatches on `kind`. The workspace (optional) is used by the
/// Wasserstein estimator only; see WassersteinPenalty for the lifetime
/// contract.
autodiff::Var IpmPenalty(IpmKind kind, autodiff::Var rep_treated,
                         autodiff::Var rep_control,
                         const SinkhornConfig& config,
                         SinkhornWorkspace* workspace = nullptr);

}  // namespace cerl::ot
