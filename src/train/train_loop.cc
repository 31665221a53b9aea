#include "train/train_loop.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "nn/optim.h"
#include "util/check.h"
#include "util/status.h"
#include "util/logging.h"
#include "util/timer.h"

namespace cerl::train {

std::vector<linalg::Matrix> SnapshotValues(
    const std::vector<Parameter*>& params) {
  std::vector<linalg::Matrix> snapshot;
  snapshot.reserve(params.size());
  for (const auto* p : params) snapshot.push_back(p->value);
  return snapshot;
}

void RestoreValues(const std::vector<Parameter*>& params,
                   const std::vector<linalg::Matrix>& snapshot) {
  CERL_CHECK_EQ(params.size(), snapshot.size());
  for (size_t i = 0; i < params.size(); ++i) params[i]->value = snapshot[i];
}

TrainLoop::TrainLoop(const LoopOptions& options,
                     std::vector<Parameter*> params, Rng* rng)
    : options_(options),
      params_(std::move(params)),
      external_rng_(rng),
      owned_rng_(options.seed) {}

TrainStats TrainLoop::Run(int n, const BatchLossFn& batch_loss,
                          const ValidLossFn& valid_loss) {
  return Run(
      n, /*gather_sources=*/{},
      [&batch_loss](Tape* tape, IndexSpan batch,
                    const std::vector<linalg::Matrix>&) {
        return batch_loss(tape, batch);
      },
      valid_loss);
}

TrainStats TrainLoop::Run(
    int n, const std::vector<const linalg::Matrix*>& gather_sources,
    const GatheredBatchLossFn& batch_loss, const ValidLossFn& valid_loss) {
  CERL_CHECK(n > 0);
  CERL_CHECK(options_.batch_size > 0);
  for (const linalg::Matrix* src : gather_sources) {
    CERL_CHECK(src != nullptr);
    CERL_CHECK_EQ(src->rows(), n);
  }
  Rng& rng = external_rng_ != nullptr ? *external_rng_ : owned_rng_;
  nn::Adam optimizer(params_, options_.learning_rate);
  const int batch = std::min(options_.batch_size, n);

  // One retained tape for every step: Reset() + re-record reshapes each
  // node buffer in place, so once every arena slot has seen its largest
  // shape (full vs tail batch, varying treated/control splits) a step
  // allocates nothing. The validation callback leases its own tape.
  autodiff::TapeLease tape;

  // The batch's gathered rows, one matrix per source. The buffer is stable
  // for the whole step, so losses may alias it via ConstantView.
  std::vector<linalg::Matrix> gathered(gather_sources.size());

  WallTimer timer;
  TrainStats stats;
  double best_valid = valid_loss();
  std::vector<linalg::Matrix> best_snapshot = SnapshotValues(params_);
  int since_best = 0;

  bool stop = false;
  for (int epoch = 0; epoch < options_.epochs && !stop; ++epoch) {
    const std::vector<int> perm = rng.Permutation(n);
    // Every sample is visited once per epoch: the final batch may be
    // shorter than `batch` but is never dropped.
    for (int start = 0; start < n; start += batch) {
      const int count = std::min(start + batch, n) - start;
      const IndexSpan span(perm.data() + start, count);
      for (size_t s = 0; s < gather_sources.size(); ++s) {
        gather_sources[s]->GatherRowsInto(span.data(), count, &gathered[s]);
      }
      tape->Reset();
      Var loss = batch_loss(tape.get(), span, gathered);
      CERL_CHECK(loss.valid());
      // A non-finite loss must surface here, before Backward() poisons the
      // parameters: the early-stopping snapshot would otherwise silently
      // restore over the excursion (NaN never beats best_valid), leaving
      // corrupted training invisible to the caller's health guards.
      if (!std::isfinite(loss.scalar())) {
        throw StatusError(
            Status::NumericalError("non-finite training loss at step " +
                                   std::to_string(stats.steps)));
      }
      optimizer.ZeroGrad();
      tape->Backward(loss);
      optimizer.Step();
      ++stats.steps;
      stats.samples_seen += count;
      stats.tape_nodes += tape->size();
    }
    stats.epochs_run = epoch + 1;

    const double epoch_valid = valid_loss();
    if (epoch_valid < best_valid - options_.min_improvement) {
      best_valid = epoch_valid;
      best_snapshot = SnapshotValues(params_);
      since_best = 0;
    } else {
      stop = ++since_best >= options_.patience;
    }
    if (options_.verbose && options_.log_every > 0 &&
        epoch % options_.log_every == 0) {
      CERL_LOG(Info) << options_.log_label << " epoch " << epoch
                     << " valid loss " << epoch_valid;
    }
  }

  RestoreValues(params_, best_snapshot);
  stats.best_valid_loss = best_valid;
  stats.wall_seconds = timer.ElapsedSeconds();
  return stats;
}

}  // namespace cerl::train
