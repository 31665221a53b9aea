// Herding-based exemplar selection (Welling 2009; Rebuffi et al., iCaRL
// 2017). Greedily picks samples whose running mean best approximates the
// population mean of the feature representations — the paper uses it to keep
// a memory of representative treated/control representations under a budget
// (§III-A2), selecting the same number from each treatment group.
#pragma once

#include <vector>

#include "linalg/matrix.h"
#include "util/rng.h"

namespace cerl::causal {

/// Returns the indices (into `rows`) of `count` exemplars chosen by greedy
/// mean matching, in selection order. count <= rows.rows(). Implemented via
/// the expanded-norm decomposition (precomputed candidate norms/mean dots,
/// one MatVec against the running sum per pick, first-minimum argmin) —
/// algebraically equal to the direct scan up to floating-point
/// rounding of well-separated scores.
std::vector<int> HerdingSelect(const linalg::Matrix& rows, int count);

/// Random-subsample alternative (the "w/o herding" ablation).
std::vector<int> RandomSelect(int n, int count, Rng* rng);

/// How well the mean of selected rows approximates the full mean:
/// || mean(all) - mean(selected) ||_2. Used by tests and diagnostics.
double MeanApproximationError(const linalg::Matrix& rows,
                              const std::vector<int>& selected);

}  // namespace cerl::causal
