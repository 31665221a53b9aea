// BatchPredictor — forward-only effect evaluation over an EffectSnapshot.
//
// The training stack runs forwards through the autodiff Tape (it needs the
// graph for backward). A query does not: this predictor replays the tape's
// exact forward op sequence — Standardize, one Gemm with its bias and
// activation epilogue per Linear, the RowL2Normalize /
// precomputed-ColL2Normalize pair per cosine layer — directly into a
// reusable arena of scratch matrices, with no Tape, no nodes, and no
// allocations after warm-up (asserted via arena_allocations() in
// tests/serve_test.cc).
//
// Batches are processed in 64-row blocks. Gemm computes every output row
// with the same per-element formula whatever the row count or tiling (see
// linalg/simd.h), so a block's rows come out exactly as in a full-batch
// Gemm, which is what makes the blocked batched forward BITWISE equal to
// the trainer's single full-batch tape forward.
//
// One predictor per reader thread (it owns mutable scratch); the snapshot
// is shared and immutable, so any number of predictors evaluate the same
// snapshot concurrently.
#pragma once

#include <cstdint>
#include <vector>

#include "serve/effect_snapshot.h"

namespace cerl::serve {

class BatchPredictor {
 public:
  /// Rows per forward block; see file comment.
  static constexpr int kRowBlock = 64;

  /// ITE per row of x_raw (raw covariates, n x input_dim), original outcome
  /// units — bitwise equal to CerlTrainer::PredictIte on the source
  /// trainer. `ite` is resized to n (reuse the same vector to stay
  /// allocation-free).
  void PredictIte(const EffectSnapshot& snap, const linalg::Matrix& x_raw,
                  linalg::Vector* ite);

  /// Single-user ITE: one covariate row of input_dim doubles. Same path as
  /// a 1-row batch.
  double PredictIteRow(const EffectSnapshot& snap, const double* x);

  /// Potential outcomes per row in original units (y * y_scale + y_mean),
  /// matching RepOutcomeNet::PredictOutcome for each arm.
  void PredictOutcomes(const EffectSnapshot& snap,
                       const linalg::Matrix& x_raw, linalg::Vector* y0,
                       linalg::Vector* y1);

  /// Scratch growth events (0 in steady state: every buffer reaches its
  /// high-water size during the first full block and is reused verbatim
  /// afterwards). The zero-allocation contract of the query hot path is
  /// asserted against this counter.
  int64_t arena_allocations() const { return allocations_; }

 private:
  /// One scratch matrix plus its high-water element count; Acquire counts
  /// an allocation only when the buffer must grow (vector capacity is
  /// monotone, so shrinking shapes never allocate).
  struct Buf {
    linalg::Matrix m;
    int64_t high_water = 0;
  };

  linalg::Matrix& Acquire(Buf* buf, int rows, int cols);

  /// Runs `in` (rows x layers.front().weight.rows()) through the layer
  /// stack; the last layer lands in `out_buf`. Returns the result matrix.
  const linalg::Matrix& ForwardMlp(const std::vector<DenseLayer>& layers,
                                   const linalg::Matrix& in, Buf* out_buf);

  void ForwardLayer(const DenseLayer& layer, const linalg::Matrix& in,
                    linalg::Matrix* out);

  /// Forward one <= kRowBlock row block already staged in x_; rep lands in
  /// rep_, head outputs in y0_/y1_.
  void ForwardBlock(const EffectSnapshot& snap, int rows);

  /// Stages rows [r0, r0+rows) of x_raw into x_, standardized.
  void StageBlock(const EffectSnapshot& snap, const linalg::Matrix& x_raw,
                  int r0, int rows);

  Buf x_;           ///< standardized input block
  Buf pre_;         ///< cosine-normalized input
  Buf norm_;        ///< cosine per-row reciprocal norms (rows x 1)
  Buf pp_[2];       ///< hidden-layer ping-pong
  Buf rep_;         ///< representation block (survives both head passes)
  Buf y0_, y1_;     ///< head outputs (rows x 1)
  int64_t allocations_ = 0;
};

}  // namespace cerl::serve
