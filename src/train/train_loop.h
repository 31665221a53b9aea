// Shared mini-batch training engine.
//
// Every gradient-trained objective in this codebase (CFR's Eq. 5, CERL's
// continual Eq. 9, and whatever future stages add) shares the same loop
// mechanics: shuffled mini-batch index assembly (including the final
// partial batch), one Adam step per batch, patience-based early stopping
// on a validation criterion, and snapshot/restore of the best parameters.
// TrainLoop owns those mechanics once; callers supply only
//   - a per-batch loss builder: (Tape*, batch index span[, pre-gathered
//     minibatch matrices]) -> scalar Var, and
//   - a validation-loss callback: () -> double.
//
// The loop is zero-churn in steady state: one retained tape (an
// autodiff::TapeLease) is Reset() and re-recorded each step, and its node
// buffers reshape in place, so once every arena slot has seen its largest
// shape — the tail batch, each treated/control split — no tape-node Matrix
// is allocated. Batch indices are passed as a span of the epoch permutation
// (no per-step index vector). When the caller registers gather sources,
// the loop gathers each batch's rows into one reused buffer before the
// batch's forward/backward. The loop creates no thread: the gathers and
// the step's kernels run on the calling thread.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "autodiff/tape.h"
#include "linalg/matrix.h"
#include "util/rng.h"

namespace cerl::train {

using autodiff::Parameter;
using autodiff::Tape;
using autodiff::Var;

/// Non-owning view of a contiguous run of batch indices (a slice of the
/// epoch permutation). Valid only for the duration of the batch callback.
class IndexSpan {
 public:
  IndexSpan() = default;
  IndexSpan(const int* data, int size) : data_(data), size_(size) {}
  IndexSpan(const std::vector<int>& v)  // NOLINT: implicit for call sites
      : data_(v.data()), size_(static_cast<int>(v.size())) {}

  int size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const int* data() const { return data_; }
  const int* begin() const { return data_; }
  const int* end() const { return data_ + size_; }
  int operator[](int i) const { return data_[i]; }

 private:
  const int* data_ = nullptr;
  int size_ = 0;
};

/// Loop mechanics configuration (the subset of a model's training config
/// that the engine itself consumes).
struct LoopOptions {
  int epochs = 120;
  int batch_size = 128;
  double learning_rate = 1e-3;
  int patience = 15;             ///< early-stopping patience (epochs)
  double min_improvement = 1e-6; ///< required drop in valid loss to count
  uint64_t seed = 1234;          ///< shuffle seed when no Rng* is supplied
  bool verbose = false;
  int log_every = 10;            ///< epochs between verbose log lines
  std::string log_label = "train";
};

/// Summary of one training run.
struct TrainStats {
  int epochs_run = 0;
  double best_valid_loss = 0.0;
  double wall_seconds = 0.0;     ///< total Run() wall time
  int64_t steps = 0;             ///< optimizer steps taken
  int64_t samples_seen = 0;      ///< sum of batch sizes over all steps
  int64_t tape_nodes = 0;        ///< nodes recorded, summed over all steps
};

/// Copies current parameter values (early-stopping snapshots).
std::vector<linalg::Matrix> SnapshotValues(
    const std::vector<Parameter*>& params);

/// Writes a snapshot back into the parameters.
void RestoreValues(const std::vector<Parameter*>& params,
                   const std::vector<linalg::Matrix>& snapshot);

/// Builds the scalar training loss for one mini-batch. The tape arrives
/// Reset() but retains the buffers of earlier steps; `batch` spans the
/// epoch permutation (the tail batch may be smaller than
/// LoopOptions::batch_size but is never dropped).
using BatchLossFn = std::function<Var(Tape* tape, IndexSpan batch)>;

/// Loss builder for the assembled-minibatch path: `gathered[s]` holds the
/// batch's rows of the s-th registered gather source, assembled by the
/// loop. The matrices are stable for the whole step, so Tape::ConstantView
/// may alias them.
using GatheredBatchLossFn = std::function<Var(
    Tape* tape, IndexSpan batch,
    const std::vector<linalg::Matrix>& gathered)>;

/// Full validation criterion used for early stopping / snapshot selection.
using ValidLossFn = std::function<double()>;

/// Mini-batch gradient-descent driver with early stopping.
class TrainLoop {
 public:
  /// `params` is the joint trainable set (optimized by Adam and covered by
  /// snapshots). If `rng` is non-null it supplies the shuffles (callers that
  /// thread one deterministic stream through init + training); otherwise the
  /// loop seeds its own stream from `options.seed`.
  TrainLoop(const LoopOptions& options, std::vector<Parameter*> params,
            Rng* rng = nullptr);

  /// Runs up to `options.epochs` epochs over `n` samples. Each epoch visits
  /// every index in 0..n-1 exactly once in shuffled order, including the
  /// final partial batch when n % batch_size != 0. After each epoch
  /// `valid_loss` decides early stopping; on exit the best-validation
  /// snapshot is restored into the parameters.
  TrainStats Run(int n, const BatchLossFn& batch_loss,
                 const ValidLossFn& valid_loss);

  /// Assembled-minibatch variant: for each batch the loop gathers the
  /// batch's rows of every matrix in `gather_sources` (all must have `n`
  /// rows) and hands them to `batch_loss`.
  TrainStats Run(int n,
                 const std::vector<const linalg::Matrix*>& gather_sources,
                 const GatheredBatchLossFn& batch_loss,
                 const ValidLossFn& valid_loss);

 private:
  LoopOptions options_;
  std::vector<Parameter*> params_;
  Rng* external_rng_;
  Rng owned_rng_;
};

}  // namespace cerl::train
