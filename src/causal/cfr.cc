#include "causal/cfr.h"

#include <algorithm>

#include "autodiff/composite.h"
#include "autodiff/ops.h"
#include "ot/workspace_pool.h"
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

CfrModel::CfrModel(const NetConfig& net_config, const TrainConfig& train_config,
                   int input_dim)
    : net_config_(net_config),
      train_config_(train_config),
      rng_(train_config.seed),
      net_(&rng_, net_config, input_dim) {}

TrainStats CfrModel::Train(const data::CausalDataset& train,
                           const data::CausalDataset& valid) {
  return RunTraining(train, valid, /*refit_scalers=*/true);
}

TrainStats CfrModel::FineTune(const data::CausalDataset& train,
                              const data::CausalDataset& valid) {
  return RunTraining(train, valid, /*refit_scalers=*/false);
}

double CfrModel::ValidFactualLoss(RepOutcomeNet* net,
                                  const linalg::Matrix& x_scaled,
                                  const std::vector<int>& t,
                                  const linalg::Vector& y_scaled) {
  autodiff::TapeLease tape;
  Var x = tape->ConstantView(&x_scaled);
  FactualForward fwd = BuildFactualLoss(net, tape.get(), x, t, y_scaled);
  return fwd.loss.scalar();
}

TrainStats CfrModel::RunTraining(const data::CausalDataset& train,
                                 const data::CausalDataset& valid,
                                 bool refit_scalers) {
  using namespace autodiff;  // NOLINT
  train.CheckConsistent();
  valid.CheckConsistent();
  if (refit_scalers) {
    net_.x_scaler().Fit(train.x);
    net_.y_scaler().Fit(train.y);
  }
  const linalg::Matrix x_train = net_.x_scaler().Apply(train.x);
  const linalg::Vector y_train = net_.y_scaler().Transform(train.y);
  const linalg::Matrix x_valid = net_.x_scaler().Apply(valid.x);
  const linalg::Vector y_valid = net_.y_scaler().Transform(valid.y);

  // Eq. 5 per-batch objective: factual MSE + alpha * IPM + lambda *
  // elastic net. The loop mechanics live in train::TrainLoop, which also
  // assembles the covariate rows; the loss only gathers the per-unit
  // treatment/outcome scalars into step-reused buffers. The
  // factual-split scratch and the Sinkhorn pool live here, next to the
  // loop's retained tape, so steady-state steps allocate nothing in the
  // loss builder; the pool keys the OT duals by the (n_treated, n_control)
  // split so they warm-start from the previous batch with the same split
  // even when splits interleave.
  std::vector<int> batch_t;
  linalg::Vector batch_y;
  FactualScratch factual_scratch;
  ot::SinkhornWorkspacePool sinkhorn_pool;
  auto batch_loss = [&](Tape* tape, train::IndexSpan idx,
                        const std::vector<linalg::Matrix>& gathered) -> Var {
    GatherTreatOutcome(train.t, y_train, idx, &batch_t, &batch_y);
    Var x = tape->ConstantView(&gathered[0]);
    FactualForward fwd =
        BuildFactualLoss(&net_, tape, x, batch_t, batch_y, &factual_scratch);
    Var loss = fwd.loss;
    if (train_config_.alpha > 0.0 && fwd.n_treated > 0 && fwd.n_control > 0) {
      Var ipm =
          ot::IpmPenalty(train_config_.ipm, fwd.rep_treated, fwd.rep_control,
                         train_config_.sinkhorn,
                         sinkhorn_pool.Acquire(fwd.n_treated, fwd.n_control));
      loss = Add(loss, ScalarMul(ipm, train_config_.alpha));
    }
    if (train_config_.lambda > 0.0) {
      Var w1 = tape->Param(&net_.FirstLayerWeight());
      loss = Add(loss, ScalarMul(ElasticNetPenalty(w1), train_config_.lambda));
    }
    return loss;
  };
  auto valid_loss = [&]() {
    return ValidFactualLoss(&net_, x_valid, valid.t, y_valid);
  };

  train::TrainLoop loop(MakeLoopOptions(train_config_, "cfr"),
                        net_.Parameters(), &rng_);
  return loop.Run(train.num_units(), {&x_train}, batch_loss, valid_loss);
}

linalg::Vector CfrModel::PredictIte(const linalg::Matrix& x_raw) {
  return net_.PredictIte(x_raw);
}

CausalMetrics CfrModel::Evaluate(const data::CausalDataset& test) {
  return EvaluateOnDataset(test, PredictIte(test.x));
}

}  // namespace cerl::causal
