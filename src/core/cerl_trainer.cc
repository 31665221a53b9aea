#include "core/cerl_trainer.h"

#include <algorithm>
#include <cmath>
#include <string>

#include <limits>

#include "autodiff/composite.h"
#include "autodiff/ops.h"
#include "ot/workspace_pool.h"
#include "train/train_loop.h"
#include "util/fault_injection.h"
#include "util/logging.h"

namespace cerl::core {

using autodiff::Var;
using causal::TrainStats;

namespace {

// Non-aborting shape/finiteness checks for one dataset of a split. With
// `require_ground_truth` the mu0/mu1 columns must align with the units
// (CheckConsistent's contract, enforced on the training split); otherwise
// they may be absent (both empty) — evaluation is then skipped downstream.
Status CheckDataset(const data::CausalDataset& d, int input_dim,
                    const char* which, bool require_ground_truth) {
  const int n = d.x.rows();
  if (n == 0) {
    return Status::InvalidArgument(std::string(which) + ": empty dataset");
  }
  if (d.x.cols() != input_dim) {
    return Status::InvalidArgument(std::string(which) +
                                   ": feature dimension mismatch");
  }
  if (static_cast<int>(d.t.size()) != n ||
      static_cast<int>(d.y.size()) != n) {
    return Status::InvalidArgument(std::string(which) +
                                   ": misaligned t/y lengths");
  }
  const bool mu_aligned = static_cast<int>(d.mu0.size()) == n &&
                          static_cast<int>(d.mu1.size()) == n;
  const bool mu_absent = d.mu0.empty() && d.mu1.empty();
  if (require_ground_truth ? !mu_aligned : !(mu_aligned || mu_absent)) {
    return Status::InvalidArgument(std::string(which) +
                                   ": misaligned mu0/mu1 lengths");
  }
  for (int t : d.t) {
    if (t != 0 && t != 1) {
      return Status::InvalidArgument(std::string(which) +
                                     ": non-binary treatment");
    }
  }
  for (int64_t i = 0; i < d.x.size(); ++i) {
    if (!std::isfinite(d.x.data()[i])) {
      return Status::InvalidArgument(std::string(which) +
                                     ": non-finite covariate");
    }
  }
  for (double y : d.y) {
    if (!std::isfinite(y)) {
      return Status::InvalidArgument(std::string(which) +
                                     ": non-finite outcome");
    }
  }
  return Status::Ok();
}

}  // namespace

CerlTrainer::CerlTrainer(const CerlConfig& config, int input_dim)
    : config_(config), input_dim_(input_dim), rng_(config.train.seed ^ 0xCE51) {}

causal::RepOutcomeNet* CerlTrainer::current_net() {
  CERL_CHECK(net_ != nullptr);
  return net_.get();
}

void CerlTrainer::Reset() {
  net_.reset();
  memory_.Clear();
  stages_seen_ = 0;
  rng_ = Rng(config_.train.seed ^ 0xCE51);
}

Status CerlTrainer::CheckNumericalHealth() {
  if (net_ == nullptr) return Status::Ok();
  for (const autodiff::Parameter* p : net_->Parameters()) {
    const linalg::Matrix& value = p->value;
    for (int64_t i = 0; i < value.size(); ++i) {
      if (!std::isfinite(value.data()[i])) {
        return Status::NumericalError("non-finite parameter " + p->name);
      }
    }
  }
  const linalg::Matrix& reps = memory_.reps();
  for (int64_t i = 0; i < reps.size(); ++i) {
    if (!std::isfinite(reps.data()[i])) {
      return Status::NumericalError("non-finite memory representation");
    }
  }
  return Status::Ok();
}

Status CerlTrainer::ValidateDomain(const data::DataSplit& split,
                                   int input_dim) {
  // BeginStage runs CheckConsistent on the training split (which requires
  // aligned ground truth); mirror that here so a bad domain is rejected by
  // validation instead of aborting mid-pipeline.
  CERL_RETURN_IF_ERROR(CheckDataset(split.train, input_dim, "train",
                                    /*require_ground_truth=*/true));
  CERL_RETURN_IF_ERROR(CheckDataset(split.valid, input_dim, "valid",
                                    /*require_ground_truth=*/false));
  // The test split is evaluation-only; mu-less test data is allowed (the
  // engine then skips PEHE/ATE scoring for the domain).
  if (split.test.num_units() > 0) {
    CERL_RETURN_IF_ERROR(CheckDataset(split.test, input_dim, "test",
                                      /*require_ground_truth=*/false));
  }
  return Status::Ok();
}

TrainStats CerlTrainer::ObserveDomain(const data::DataSplit& split) {
  std::unique_ptr<StageContext> ctx = BeginStage(split);
  TrainStats stats = TrainStage(ctx.get());
  MigrateStage(ctx.get());
  return stats;
}

linalg::Vector CerlTrainer::PredictIte(const linalg::Matrix& x_raw) {
  CERL_CHECK(net_ != nullptr);
  return net_->PredictIte(x_raw);
}

causal::CausalMetrics CerlTrainer::Evaluate(const data::CausalDataset& test) {
  return causal::EvaluateOnDataset(test, PredictIte(test.x));
}

std::unique_ptr<CerlTrainer::StageContext> CerlTrainer::BeginStage(
    const data::DataSplit& split) {
  const data::CausalDataset& train = split.train;
  const data::CausalDataset& valid = split.valid;
  train.CheckConsistent();

  auto ctx = std::make_unique<StageContext>();
  ctx->split = &split;
  ++stages_seen_;
  ctx->stage = stages_seen_;
  ctx->baseline = stages_seen_ == 1;
  causal::TrainConfig stage_train = config_.train;
  if (!ctx->baseline) {
    stage_train.seed = config_.train.seed + 7919 * stages_seen_;
    stage_train.learning_rate *= config_.continual_lr_scale;
  }

  // The previous model (none at the baseline stage) is frozen for
  // distillation; the new model becomes the current learner.
  const std::unique_ptr<causal::RepOutcomeNet> old_net = std::move(net_);
  Rng init_rng(stage_train.seed);
  net_ = std::make_unique<causal::RepOutcomeNet>(&init_rng, config_.net,
                                                 input_dim_);
  causal::RepOutcomeNet& net = *net_;
  if (ctx->baseline) {
    // Scalers fitted on the first domain anchor the representation space
    // for every later stage.
    net.x_scaler().Fit(train.x);
    net.y_scaler().Fit(train.y);
  } else if (config_.init_from_previous) {
    // Warm start copies weights AND scalers: the representation space must
    // stay consistent across stages — the memory holds representations in
    // the old space and the distillation target is the old model, both of
    // which assume the same input normalization. Refitting scalers each
    // stage would silently re-map previous-domain units.
    net.CopyParametersFrom(*old_net);
  } else {
    // Cold start: scalers come from the new domain (plus memory outcomes
    // for y, since the heads fit both — Eq. 8).
    net.x_scaler().Fit(train.x);
    linalg::Vector y_all = train.y;
    y_all.insert(y_all.end(), memory_.y().begin(), memory_.y().end());
    net.y_scaler().Fit(y_all);
  }

  // Standardize once per stage; these live in the context so the stream
  // engine can hand the prepared stage between workers.
  ctx->stage_train = stage_train;
  ctx->x_train = net.x_scaler().Apply(train.x);
  ctx->y_train = net.y_scaler().Transform(train.y);
  ctx->x_valid = net.x_scaler().Apply(valid.x);
  ctx->y_valid = net.y_scaler().Transform(valid.y);
  ctx->params = net.Parameters();
  if (ctx->baseline) {
    // The baseline loop continues the net-init stream.
    ctx->loop_rng = init_rng;
    return ctx;
  }

  // Old-model representations of the new data, computed once (frozen).
  ctx->old_reps_train = old_net->Representations(train.x);

  // phi and the joint parameter set (Algorithm 1: OPTIMIZE over w_d,
  // theta_d, phi).
  Rng phi_rng(stage_train.seed ^ 0xF17A);
  ctx->phi = std::make_unique<TransformNet>(&phi_rng, net.rep_dim(),
                                            config_.transform_hidden);
  if (config_.use_transform || config_.delta > 0.0) {
    for (autodiff::Parameter* p : ctx->phi->Parameters()) {
      ctx->params.push_back(p);
    }
  }
  ctx->use_memory = config_.use_transform && !memory_.empty();
  ctx->mem_batch =
      ctx->use_memory ? std::min(stage_train.batch_size, memory_.size()) : 0;
  ctx->loop_rng = Rng(stage_train.seed ^ 0xB007);
  return ctx;
}

double CerlTrainer::StageValidLoss(const StageContext& ctx) {
  using namespace autodiff;  // NOLINT
  causal::RepOutcomeNet* net = net_.get();
  TransformNet* phi = ctx.phi.get();
  // Retention-aware early stopping: new-domain factual loss plus the
  // replay loss over the whole memory bank. The distillation term must NOT
  // enter the selection criterion: it is exactly zero at the warm-started
  // initialization, which would make the un-adapted old model an
  // unbeatable snapshot and block adaptation entirely.
  TapeLease lease;
  Tape& tape = *lease;
  Var x = tape.ConstantView(&ctx.x_valid);
  causal::FactualForward vfwd = causal::BuildFactualLoss(
      net, &tape, x, ctx.split->valid.t, ctx.y_valid);
  double loss = vfwd.loss.scalar();
  if (ctx.use_memory) {
    Var mem_rep = tape.ConstantView(&memory_.reps());
    Var mem_mapped = phi->Forward(&tape, mem_rep);
    std::vector<int> idx_t, idx_c;
    linalg::Vector y_t, y_c;
    for (int i = 0; i < memory_.size(); ++i) {
      const double ys = net->y_scaler().Transform(memory_.y()[i]);
      if (memory_.t()[i] == 1) {
        idx_t.push_back(i);
        y_t.push_back(ys);
      } else {
        idx_c.push_back(i);
        y_c.push_back(ys);
      }
    }
    double sse = 0.0;
    if (!idx_t.empty()) {
      Var pred = net->Head(&tape, GatherRows(mem_mapped, idx_t), 1);
      for (size_t i = 0; i < idx_t.size(); ++i) {
        const double d = pred.value()(static_cast<int>(i), 0) - y_t[i];
        sse += d * d;
      }
    }
    if (!idx_c.empty()) {
      Var pred = net->Head(&tape, GatherRows(mem_mapped, idx_c), 0);
      for (size_t i = 0; i < idx_c.size(); ++i) {
        const double d = pred.value()(static_cast<int>(i), 0) - y_c[i];
        sse += d * d;
      }
    }
    loss += sse / memory_.size();
  }
  return loss;
}

TrainStats CerlTrainer::TrainStage(StageContext* ctx) {
  using namespace autodiff;  // NOLINT
  CERL_CHECK(ctx != nullptr);
  const data::CausalDataset& train = ctx->split->train;
  const causal::TrainConfig& stage_train = ctx->stage_train;
  causal::RepOutcomeNet& net = *net_;
  TransformNet* phi = ctx->phi.get();
  const bool baseline = ctx->baseline;
  const bool use_memory = ctx->use_memory;
  const int mem_batch = ctx->mem_batch;
  Rng& loop_rng = ctx->loop_rng;

  auto valid_loss_fn = [this, ctx]() { return StageValidLoss(*ctx); };
  // Eq. 9 per-batch objective (Eq. 5 at the baseline stage, which has no
  // old model to distill and an empty memory); the epoch/minibatch/
  // early-stopping mechanics live in train::TrainLoop, which assembles the
  // row gathers of x_train and (continual stages) old_reps_train.
  // Scalar/memory gathers and the factual/memory split land in step-reused
  // scratch, and the Sinkhorn pool (owned here, next to the training loop:
  // one solve scratch, duals keyed by the global treated/control split)
  // warm-starts the balancing duals from the previous step with the same
  // split.
  std::vector<int> batch_t;
  linalg::Vector batch_y;
  linalg::Matrix mem_rep_gathered;
  causal::FactualScratch factual_scratch;
  ot::SinkhornWorkspacePool sinkhorn_pool;
  // Second scratch for the memory-batch split: same fields, same
  // tape-aliasing lifetime contract (see FactualScratch), filled here
  // because the memory targets route through mem_idx and the y scaler.
  causal::FactualScratch mem_scratch;
  auto batch_loss = [&](Tape* tape, train::IndexSpan idx,
                        const std::vector<linalg::Matrix>& gathered) -> Var {
    causal::GatherTreatOutcome(train.t, ctx->y_train, idx, &batch_t,
                               &batch_y);
    Var x = tape->ConstantView(&gathered[0]);
    // L_G new-data term (Eq. 8, second sum) + group representations.
    causal::FactualForward fwd = causal::BuildFactualLoss(
        &net, tape, x, batch_t, batch_y, &factual_scratch);
    Var loss = fwd.loss;

    if (!baseline) {
      // Feature representation distillation, Eq. 6.
      Var old_rep = tape->ConstantView(&gathered[1]);
      if (config_.beta > 0.0) {
        loss = Add(loss, ScalarMul(MeanCosineDistance(fwd.rep, old_rep),
                                   config_.beta));
      }
      // Feature representation transformation, Eq. 7. The new-model
      // representation enters as a detached target: Eq. 7 trains phi to
      // map the old space onto the new one, it must not drag g_{w_d}
      // toward phi's (initially arbitrary) output.
      if (config_.delta > 0.0) {
        Var phi_out = phi->Forward(tape, old_rep);
        Var rep_target = tape->Constant(fwd.rep.value());
        loss = Add(loss, ScalarMul(MeanCosineDistance(phi_out, rep_target),
                                   config_.delta));
      }
    }

    Var rep_treated_global = fwd.rep_treated;
    Var rep_control_global = fwd.rep_control;
    int n_treated = fwd.n_treated;
    int n_control = fwd.n_control;

    if (use_memory) {
      // Memory replay: transformed old representations join the global
      // representation space (Eq. 8 first sum; balanced IPM below).
      const std::vector<int> mem_idx =
          memory_.SampleBatch(mem_batch, &loop_rng);
      memory_.reps().GatherRowsInto(mem_idx.data(), mem_batch,
                                    &mem_rep_gathered);
      Var mem_rep = tape->ConstantView(&mem_rep_gathered);
      Var mem_transformed = phi->Forward(tape, mem_rep);

      std::vector<int>& mem_treated_idx = mem_scratch.treated_idx;
      std::vector<int>& mem_control_idx = mem_scratch.control_idx;
      mem_treated_idx.clear();
      mem_control_idx.clear();
      for (int i = 0; i < mem_batch; ++i) {
        if (memory_.t()[mem_idx[i]] == 1) {
          mem_treated_idx.push_back(i);
        } else {
          mem_control_idx.push_back(i);
        }
      }
      mem_scratch.y_treated.Resize(static_cast<int>(mem_treated_idx.size()),
                                   1);
      for (size_t i = 0; i < mem_treated_idx.size(); ++i) {
        mem_scratch.y_treated(static_cast<int>(i), 0) =
            net.y_scaler().Transform(memory_.y()[mem_idx[mem_treated_idx[i]]]);
      }
      mem_scratch.y_control.Resize(static_cast<int>(mem_control_idx.size()),
                                   1);
      for (size_t i = 0; i < mem_control_idx.size(); ++i) {
        mem_scratch.y_control(static_cast<int>(i), 0) =
            net.y_scaler().Transform(memory_.y()[mem_idx[mem_control_idx[i]]]);
      }
      Var mem_sse = tape->Constant(linalg::Matrix(1, 1, 0.0));
      if (!mem_treated_idx.empty()) {
        Var rep_t = GatherRows(mem_transformed, mem_treated_idx);
        Var pred = net.Head(tape, rep_t, 1);
        Var target = tape->ConstantView(&mem_scratch.y_treated);
        mem_sse = Add(mem_sse, Sum(Square(Sub(pred, target))));
        // The memory side joins the global IPM as a detached reference
        // distribution: balancing must shape the new representations (and
        // heads), not bend phi away from its Eq. 7 alignment target.
        rep_treated_global =
            ConcatRows(rep_treated_global, tape->Constant(rep_t.value()));
        n_treated += static_cast<int>(mem_treated_idx.size());
      }
      if (!mem_control_idx.empty()) {
        Var rep_c = GatherRows(mem_transformed, mem_control_idx);
        Var pred = net.Head(tape, rep_c, 0);
        Var target = tape->ConstantView(&mem_scratch.y_control);
        mem_sse = Add(mem_sse, Sum(Square(Sub(pred, target))));
        rep_control_global =
            ConcatRows(rep_control_global, tape->Constant(rep_c.value()));
        n_control += static_cast<int>(mem_control_idx.size());
      }
      loss = Add(loss, ScalarMul(mem_sse, 1.0 / std::max(1, mem_batch)));
    }

    // Balance the global representation space (Eq. 3 over memory ∪ new).
    if (stage_train.alpha > 0.0 && n_treated > 0 && n_control > 0) {
      Var ipm =
          ot::IpmPenalty(stage_train.ipm, rep_treated_global,
                         rep_control_global, stage_train.sinkhorn,
                         sinkhorn_pool.Acquire(n_treated, n_control));
      loss = Add(loss, ScalarMul(ipm, stage_train.alpha));
    }
    // Elastic net on the new feature-selection layer (Eq. 1).
    if (stage_train.lambda > 0.0) {
      Var w1 = tape->Param(&net.FirstLayerWeight());
      loss = Add(loss, ScalarMul(ElasticNetPenalty(w1), stage_train.lambda));
    }
    // Fault-injection hook (continual stages): a NaN summand poisons the
    // loss and, through Backward, every gradient — the same signature as a
    // genuine numerical blow-up. TrainLoop's finite-loss guard converts it
    // into a typed NumericalError before the optimizer steps.
    if (!baseline && CERL_FAULT_POINT(FaultPoint::kNanGradient)) {
      loss = Add(loss, tape->Constant(linalg::Matrix(
                           1, 1, std::numeric_limits<double>::quiet_NaN())));
    }
    return loss;
  };

  std::vector<const linalg::Matrix*> gather_sources = {&ctx->x_train};
  if (!baseline) gather_sources.push_back(&ctx->old_reps_train);
  train::TrainLoop loop(
      causal::MakeLoopOptions(stage_train,
                              "cerl stage " + std::to_string(ctx->stage)),
      ctx->params, &loop_rng);
  ctx->stats =
      loop.Run(train.num_units(), gather_sources, batch_loss, valid_loss_fn);
  return ctx->stats;
}

void CerlTrainer::MigrateStage(StageContext* ctx) {
  CERL_CHECK(ctx != nullptr);
  // Memory migration: M_d = Herding({R_d, Y_d, T_d} ∪ phi(M_{d-1})); the
  // baseline stage has no M_0 to map. w/o FRT keeps no memory at all.
  if (config_.use_transform) {
    if (!ctx->baseline) {
      TransformNet* phi = ctx->phi.get();
      memory_.Transform(
          [phi](const linalg::Matrix& reps) { return phi->Apply(reps); });
    }
    const linalg::Matrix new_reps =
        net_->Representations(ctx->split->train.x);
    memory_.Append(new_reps, ctx->split->train.y, ctx->split->train.t);
    memory_.Reduce(config_.memory_capacity, config_.use_herding, &rng_);
  }
  CERL_LOG(Debug) << "CERL stage " << ctx->stage << " done: memory "
                  << memory_.size() << " units, best valid loss "
                  << ctx->stats.best_valid_loss;
}

}  // namespace cerl::core
