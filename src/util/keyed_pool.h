// Bounded LRU pool of heavy reusable objects keyed by a 64-bit shape key.
//
// Its one user is ot::SinkhornWorkspacePool, which keys Sinkhorn dual records
// by the (n_treated, n_control) split so each split finds the retained duals
// of the last solve with the same split. There the key is part of the
// numerics: the duals that seed a solve decide its result bits. (Tapes need
// no such pool: autodiff::Tape reshapes its buffers in place.)
//
// Capacity is deliberately small (entries are scanned linearly) and the
// pool is NOT thread-safe: it is owned by a single loss builder, like the
// workspaces it stores.
#pragma once

#include <cstdint>
#include <iterator>
#include <list>
#include <memory>
#include <utility>

#include "util/check.h"

namespace cerl {

template <typename V>
class KeyedLruPool {
 public:
  explicit KeyedLruPool(int capacity) : capacity_(capacity) {
    CERL_CHECK_GE(capacity, 1);
  }

  /// Returns the entry for `key`; on a miss the least-recently-used entry
  /// is RECYCLED under the new key when the pool is full (arenas keep their
  /// high-water buffers — a destroy-and-rebuild would make out-of-capacity
  /// key sets pay full cold-start allocation on every miss), otherwise a
  /// fresh instance comes from `make()` (must return std::unique_ptr<V>).
  /// Callers must therefore treat an acquired object as possibly carrying
  /// another key's state — SinkhornDuals does: it keys its warm start
  /// by the problem shape itself. The returned pointer stays valid
  /// until this entry is evicted — i.e. at least until `capacity - 1` other
  /// keys have been acquired — never merely because other hits reordered
  /// the LRU list.
  template <typename Factory>
  V* Acquire(uint64_t key, Factory&& make) {
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->first == key) {
        entries_.splice(entries_.begin(), entries_, it);  // mark most recent
        ++hits_;
        return entries_.front().second.get();
      }
    }
    ++misses_;
    if (static_cast<int>(entries_.size()) == capacity_) {
      // Recycle the LRU entry's instance under the new key.
      entries_.splice(entries_.begin(), entries_, std::prev(entries_.end()));
      entries_.front().first = key;
      ++evictions_;
    } else {
      entries_.emplace_front(key, make());
    }
    return entries_.front().second.get();
  }

  /// True if `key` is currently pooled (does not touch LRU order).
  bool contains(uint64_t key) const {
    for (const auto& e : entries_) {
      if (e.first == key) return true;
    }
    return false;
  }

  int size() const { return static_cast<int>(entries_.size()); }
  int capacity() const { return capacity_; }
  int64_t hits() const { return hits_; }
  int64_t misses() const { return misses_; }
  int64_t evictions() const { return evictions_; }

 private:
  // front = most recently used.
  std::list<std::pair<uint64_t, std::unique_ptr<V>>> entries_;
  int capacity_;
  int64_t hits_ = 0;
  int64_t misses_ = 0;
  int64_t evictions_ = 0;
};

}  // namespace cerl
