// Shape-keyed Sinkhorn duals over one shared solve scratch (ROADMAP
// "per-shape workspace keying").
//
// A single SinkhornWorkspace warm-starts only when consecutive solves share
// a shape; the treated/control split of a minibatch varies batch to batch,
// so on heterogeneous splits the warm start rarely fires. The pool keys a
// small LRU set of dual records by (n_treated, n_control): each split size
// finds the retained duals of the last batch with the same split, so warm
// starts fire across interleaved shapes.
//
// Only the duals are per shape. The n1 x n2 buffers (cost, Gibbs kernel,
// plan) and the iteration vectors are scratch that every solve rewrites in
// full, so the pool keeps exactly one SinkhornScratch: a training stage
// holds three n1 x n2 buffers at the high-water shape however many splits
// it sees.
//
// Same threading contract as the workspace itself: one pool per loss
// builder, owned next to its training loop. Not thread-safe.
#pragma once

#include <cstdint>

#include "ot/sinkhorn.h"
#include "util/keyed_pool.h"

namespace cerl::ot {

class SinkhornWorkspacePool {
 public:
  /// `capacity` bounds the number of retained dual records (LRU eviction;
  /// a miss on a full pool recycles the least recently used record, duals
  /// and warm shape included, under the new key).
  explicit SinkhornWorkspacePool(int capacity = kDefaultCapacity);

  /// The (n1, n2) shape's duals and the pool's one scratch. The duals
  /// pointer is stable until this shape is evicted, which cannot happen
  /// before `capacity - 1` other shapes are acquired. The scratch — and
  /// with it the plan and cost buffer of the last solve — is shared by
  /// every lease: it stays valid only until the next solve on this pool.
  SinkhornLease Acquire(int n1, int n2);

  /// Acquires where the returned duals were already warm for the requested
  /// shape (i.e. the next solve will warm-start). On a heterogeneous-split
  /// stream this is the pool's reason to exist; tests assert it stays > 0
  /// where a single workspace would sit at 0.
  int64_t warm_acquires() const { return warm_acquires_; }
  int64_t acquires() const { return acquires_; }
  double warm_hit_rate() const {
    return acquires_ == 0
               ? 0.0
               : static_cast<double>(warm_acquires_) / acquires_;
  }

  int size() const { return pool_.size(); }
  int64_t evictions() const { return pool_.evictions(); }

  /// The shared solve scratch (its allocations() counts every n1 x n2
  /// buffer the pool has ever allocated).
  const SinkhornScratch& scratch() const { return scratch_; }

  static constexpr int kDefaultCapacity = 8;

 private:
  SinkhornScratch scratch_;
  KeyedLruPool<SinkhornDuals> pool_;
  int64_t warm_acquires_ = 0;
  int64_t acquires_ = 0;
};

}  // namespace cerl::ot
