// Shape-keyed pool of SinkhornWorkspaces (ROADMAP "per-shape workspace
// keying").
//
// A single SinkhornWorkspace warm-starts only when consecutive solves share
// a shape; the treated/control split of a minibatch varies batch to batch,
// so on heterogeneous splits the warm start rarely fires. The pool keys a
// small LRU set of workspaces by (n_treated, n_control): each split size
// finds the workspace — and the retained duals — of the last batch with the
// same split, so warm starts fire across interleaved shapes.
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
  /// `capacity` bounds the number of retained workspaces (LRU eviction).
  explicit SinkhornWorkspacePool(int capacity = kDefaultCapacity);

  /// Workspace keyed by the (n1, n2) problem shape. The pointer follows the
  /// workspace lifetime contract of SolveSinkhorn: stable until this shape
  /// is evicted, which cannot happen before `capacity - 1` other shapes are
  /// acquired — in particular never within the same training step.
  SinkhornWorkspace* Acquire(int n1, int n2);

  /// Acquires where the returned workspace already held warm duals for the
  /// requested shape (i.e. the next solve will warm-start). On a
  /// heterogeneous-split stream this is the pool's reason to exist; tests
  /// assert it stays > 0 where a single workspace would sit at 0.
  int64_t warm_acquires() const { return warm_acquires_; }
  int64_t acquires() const { return acquires_; }
  double warm_hit_rate() const {
    return acquires_ == 0
               ? 0.0
               : static_cast<double>(warm_acquires_) / acquires_;
  }

  int size() const { return pool_.size(); }
  int64_t evictions() const { return pool_.evictions(); }

  static constexpr int kDefaultCapacity = 8;

 private:
  KeyedLruPool<SinkhornWorkspace> pool_;
  int64_t warm_acquires_ = 0;
  int64_t acquires_ = 0;
};

}  // namespace cerl::ot
