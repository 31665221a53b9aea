#include "train/train_loop.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>

#include "nn/optim.h"
#include "util/check.h"
#include "util/status.h"
#include "util/keyed_pool.h"
#include "util/logging.h"
#include "util/timer.h"

namespace cerl::train {

namespace {
// Persistent tapes retained per batch-shape key. Two is enough for the
// default key (full + tail batch); shape-refined keys (treated/control
// splits) rotate through a few more before reuse kicks in.
constexpr int kTapePoolCapacity = 8;
}  // namespace

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

void TrainLoop::SetBatchShapeKey(BatchShapeKeyFn fn) {
  shape_key_fn_ = std::move(fn);
}

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

  // One persistent tape per distinct batch shape: the graph topology is
  // fixed for a fixed shape key, so Reset() + re-record reuses every node
  // buffer and the steady-state step allocates nothing. By default the key
  // is the batch size — full batches share one tape, the tail batch (n %
  // batch) gets its own so it does not thrash the full-batch arena once per
  // epoch. A caller-provided shape key (SetBatchShapeKey) refines this so
  // content-dependent topologies (treated/control splits) each keep a
  // warmed arena too.
  KeyedLruPool<Tape> tapes(kTapePoolCapacity);

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
      const uint64_t shape_key = shape_key_fn_
                                     ? shape_key_fn_(span)
                                     : static_cast<uint64_t>(count);
      Tape& tape =
          *tapes.Acquire(shape_key, [] { return std::make_unique<Tape>(); });
      tape.Reset();
      Var loss = batch_loss(&tape, span, gathered);
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
      tape.Backward(loss);
      optimizer.Step();
      ++stats.steps;
      stats.samples_seen += count;
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
