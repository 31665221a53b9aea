#include "causal/herding.h"

#include <cmath>
#include <limits>

#include "linalg/gemm.h"
#include "linalg/ops.h"
#include "util/check.h"
#include "util/distributions.h"

namespace cerl::causal {

std::vector<int> HerdingSelect(const linalg::Matrix& rows, int count) {
  const int n = rows.rows();
  const int d = rows.cols();
  CERL_CHECK_GE(n, count);
  CERL_CHECK_GE(count, 0);

  // Expanded-norm form of the greedy objective. With s the running sum and
  // inv = 1/(k+1),
  //   || mean - (s + x_c) inv ||^2
  //     = const(c) + (2 s·x_c + ||x_c||^2) inv^2 - 2 (mean·x_c) inv,
  // so the argmin needs only the candidate row norms and mean-dot products
  // (precomputed once) plus one MatVec of the candidates against s per
  // pick — replacing the O(count·n·d) scalar scan with GEMV-shaped kernels
  // that vectorize.
  const linalg::Vector mean = linalg::ColumnMeans(rows);
  linalg::Vector mdot;
  linalg::MatVecInto(rows, mean, &mdot);
  linalg::Vector rnorm(n);
  for (int c = 0; c < n; ++c) {
    const double* row = rows.row(c);
    double s = 0.0;
    for (int j = 0; j < d; ++j) s += row[j] * row[j];
    rnorm[c] = s;
  }

  std::vector<int> selected;
  selected.reserve(count);
  std::vector<char> used(n, 0);
  linalg::Vector running_sum(d, 0.0), sdot(n);

  for (int k = 0; k < count; ++k) {
    linalg::MatVecInto(rows, running_sum, &sdot);
    const double inv = 1.0 / static_cast<double>(k + 1);
    const double inv2 = inv * inv;
    // Strict < keeps the first minimum in index order, as the reference
    // scan does.
    double best_score = std::numeric_limits<double>::infinity();
    int best = n;
    for (int c = 0; c < n; ++c) {
      if (used[c]) continue;
      const double score =
          (2.0 * sdot[c] + rnorm[c]) * inv2 - 2.0 * mdot[c] * inv;
      if (score < best_score) {
        best_score = score;
        best = c;
      }
    }
    CERL_CHECK_LT(best, n);
    used[best] = 1;
    selected.push_back(best);
    const double* row = rows.row(best);
    for (int j = 0; j < d; ++j) running_sum[j] += row[j];
  }
  return selected;
}

std::vector<int> RandomSelect(int n, int count, Rng* rng) {
  return SampleWithoutReplacement(rng, n, count);
}

double MeanApproximationError(const linalg::Matrix& rows,
                              const std::vector<int>& selected) {
  CERL_CHECK(!selected.empty());
  const linalg::Vector mean = linalg::ColumnMeans(rows);
  const linalg::Vector sel_mean =
      linalg::ColumnMeans(rows.GatherRows(selected));
  double s = 0.0;
  for (size_t j = 0; j < mean.size(); ++j) {
    const double d = mean[j] - sel_mean[j];
    s += d * d;
  }
  return std::sqrt(s);
}

}  // namespace cerl::causal
