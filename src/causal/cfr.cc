#include "causal/cfr.h"

#include <algorithm>

#include "autodiff/ops.h"
#include "util/logging.h"

namespace cerl::causal {

FactualForward BuildFactualLoss(RepOutcomeNet* net, Tape* tape, Var x_scaled,
                                const std::vector<int>& t,
                                const linalg::Vector& y_scaled,
                                FactualScratch* scratch) {
  using namespace autodiff;  // NOLINT
  const int n = x_scaled.rows();
  CERL_CHECK_EQ(static_cast<int>(t.size()), n);
  CERL_CHECK_EQ(static_cast<int>(y_scaled.size()), n);

  FactualForward out;
  out.rep = net->Rep(tape, x_scaled);

  // Owned scratch: per-call locals, targets copied onto the tape (the
  // caller gave us nothing that outlives the pass to alias).
  FactualScratch local;
  const bool owned = scratch == nullptr;
  if (owned) scratch = &local;
  std::vector<int>& treated_idx = scratch->treated_idx;
  std::vector<int>& control_idx = scratch->control_idx;
  treated_idx.clear();
  control_idx.clear();
  for (int i = 0; i < n; ++i) {
    if (t[i] == 1) {
      treated_idx.push_back(i);
    } else {
      control_idx.push_back(i);
    }
  }
  out.n_treated = static_cast<int>(treated_idx.size());
  out.n_control = static_cast<int>(control_idx.size());
  out.rep_treated = GatherRows(out.rep, treated_idx);
  out.rep_control = GatherRows(out.rep, control_idx);
  scratch->y_treated.Resize(out.n_treated, 1);
  for (int i = 0; i < out.n_treated; ++i) {
    scratch->y_treated(i, 0) = y_scaled[treated_idx[i]];
  }
  scratch->y_control.Resize(out.n_control, 1);
  for (int i = 0; i < out.n_control; ++i) {
    scratch->y_control(i, 0) = y_scaled[control_idx[i]];
  }

  // Sum of squared factual errors over both arms, averaged over the batch.
  Var sse = tape->Constant(linalg::Matrix(1, 1, 0.0));
  if (out.n_treated > 0) {
    Var pred = net->Head(tape, out.rep_treated, 1);
    Var target = owned ? tape->Constant(scratch->y_treated)
                       : tape->ConstantView(&scratch->y_treated);
    sse = Add(sse, Sum(Square(Sub(pred, target))));
  }
  if (out.n_control > 0) {
    Var pred = net->Head(tape, out.rep_control, 0);
    Var target = owned ? tape->Constant(scratch->y_control)
                       : tape->ConstantView(&scratch->y_control);
    sse = Add(sse, Sum(Square(Sub(pred, target))));
  }
  out.loss = ScalarMul(sse, 1.0 / std::max(1, n));
  return out;
}

void GatherTreatOutcome(const std::vector<int>& t, const linalg::Vector& y,
                        train::IndexSpan idx, std::vector<int>* t_out,
                        linalg::Vector* y_out) {
  t_out->resize(idx.size());
  y_out->resize(idx.size());
  for (int i = 0; i < idx.size(); ++i) {
    (*t_out)[i] = t[idx[i]];
    (*y_out)[i] = y[idx[i]];
  }
}

train::LoopOptions MakeLoopOptions(const TrainConfig& config,
                                   const std::string& log_label) {
  train::LoopOptions options;
  options.epochs = config.epochs;
  options.batch_size = config.batch_size;
  options.learning_rate = config.learning_rate;
  options.patience = config.patience;
  options.seed = config.seed;
  options.verbose = config.verbose;
  options.log_label = log_label;
  return options;
}

}  // namespace cerl::causal
