// Differentiable integral probability metric (IPM) penalties between the
// representation distributions of treatment and control groups (Eq. 3).
// Two estimators:
//  - Wasserstein via Sinkhorn: transport plan solved on detached values,
//    gradient flows through the pairwise-cost matrix (CFR's estimator);
//    one fused tape node whose n1 x n2 buffers live in a Sinkhorn scratch;
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
/// One 1 x 1 tape node over (rep_treated, rep_control); the tape holds no
/// n1 x n2 buffer. The forward builds C in the lease's scratch
/// (SinkhornScratch::CostBuffer), solves there (warm-started duals, SIMD
/// kernels, zero steady-state allocations) and returns the sum of
/// plan ⊙ C. The backward reads the plan from the scratch, forms dC in the
/// cost buffer and scatters it into both sides' gradients. Its value and
/// gradients are bitwise those of the chain
/// Sum(Mul(ConstantView(plan), PairwiseSquaredDistancesVar(a, b))).
///
/// Lifetime: the node keeps a pointer to the scratch, whose plan and cost
/// buffer stay valid only until the next solve on it. The scratch must
/// outlive Backward and must not be re-solved before it — one penalty per
/// tape per pool (or workspace). The loss builders own their pool next to
/// their training loop, which satisfies this by construction.
autodiff::Var WassersteinPenalty(autodiff::Var rep_treated,
                                 autodiff::Var rep_control,
                                 const SinkhornConfig& config,
                                 SinkhornLease lease);

/// Linear MMD penalty: || mean(rep_treated) - mean(rep_control) ||^2.
autodiff::Var LinearMmdPenalty(autodiff::Var rep_treated,
                               autodiff::Var rep_control);

/// Dispatches on `kind`. The lease is used by the Wasserstein estimator
/// only; see WassersteinPenalty for its lifetime contract.
autodiff::Var IpmPenalty(IpmKind kind, autodiff::Var rep_treated,
                         autodiff::Var rep_control,
                         const SinkhornConfig& config, SinkhornLease lease);

}  // namespace cerl::ot
