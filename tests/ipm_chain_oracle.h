// The unfused Wasserstein penalty, kept as the oracle for
// ot::WassersteinPenalty's fused node: PairwiseSquaredDistancesVar ->
// ConstantView(plan) -> Mul -> Sum, built from the public ops, with two
// n1 x n2 tape nodes.
//  - With a workspace, the plan comes from the same hot-path solve the fused
//    node runs, so value and gradients must match the fused node bit for
//    bit when both see the same sequence of solves.
//  - Without one, the plan comes from the reference solver (cold,
//    allocate-per-call), which agrees with the hot path only within the
//    solver tolerance.
#pragma once

#include <utility>

#include "autodiff/ops.h"
#include "autodiff/tape.h"
#include "ot/ipm.h"
#include "ot/sinkhorn.h"
#include "util/check.h"

namespace cerl::ot::testing {

inline autodiff::Var WassersteinPenaltyChain(
    autodiff::Var rep_treated, autodiff::Var rep_control,
    const SinkhornConfig& config, SinkhornWorkspace* workspace = nullptr) {
  autodiff::Tape* tape = rep_treated.tape();
  if (rep_treated.rows() == 0 || rep_control.rows() == 0) {
    return tape->Constant(linalg::Matrix(1, 1, 0.0));
  }
  autodiff::Var cost = PairwiseSquaredDistancesVar(rep_treated, rep_control);
  autodiff::Var plan;
  if (workspace != nullptr) {
    auto solved = SolveSinkhorn(cost.value(), config, workspace);
    CERL_CHECK(solved.ok());
    plan = tape->ConstantView(&workspace->plan());
  } else {
    auto solved = SolveSinkhorn(cost.value(), config);
    CERL_CHECK(solved.ok());
    plan = tape->Constant(std::move(solved.value().plan));
  }
  return autodiff::Sum(autodiff::Mul(plan, cost));
}

}  // namespace cerl::ot::testing
