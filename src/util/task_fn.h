// Move-only type-erased task callable, the unit of work every pool and task
// group schedules.
//
// std::function forced two costs on the scheduling layer: tasks had to be
// COPYABLE (ruling out captures holding unique_ptr or other move-only
// resources), and typical stage closures landed on the heap once their
// captures outgrew libstdc++'s tiny inline buffer (16 bytes). TaskFn erases
// with a 56-byte inline arena instead — every closure the stream engine
// submits fits without allocating — and keeps a process-wide
// counter of the (rare) heap fallbacks so tests can pin "steady-state
// scheduling allocates nothing" the same way Tape::arena_allocations pins
// the training step (see task_group_test).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

namespace cerl {

/// Move-only `void()` callable with small-buffer optimization.
class TaskFn {
 public:
  /// Inline capture budget: one cache line minus the vtable pointer. Chosen
  /// so the engine's stage closures (a handful of pointers and flags) stay
  /// inline; larger captures still work, they just heap-allocate (and
  /// count).
  static constexpr size_t kInlineBytes = 56;

  TaskFn() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, TaskFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  TaskFn(F&& f) {  // NOLINT(google-explicit-constructor): drop-in for
                   // std::function at every Submit call site.
    using Fn = std::decay_t<F>;
    // A throwing move would leave the scheduler's queues in a half-moved
    // state; such (rare) callables are boxed instead.
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      new (storage_) Fn(std::forward<F>(f));
      ops_ = &kInlineOps<Fn>;
    } else {
      new (storage_) Fn*(new Fn(std::forward<F>(f)));
      heap_allocations_.fetch_add(1, std::memory_order_relaxed);
      ops_ = &kBoxedOps<Fn>;
    }
  }

  TaskFn(TaskFn&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) ops_->relocate(other.storage_, storage_);
    other.ops_ = nullptr;
  }

  TaskFn& operator=(TaskFn&& other) noexcept {
    if (this != &other) {
      if (ops_ != nullptr) ops_->destroy(storage_);
      ops_ = other.ops_;
      if (ops_ != nullptr) ops_->relocate(other.storage_, storage_);
      other.ops_ = nullptr;
    }
    return *this;
  }

  TaskFn(const TaskFn&) = delete;
  TaskFn& operator=(const TaskFn&) = delete;

  ~TaskFn() {
    if (ops_ != nullptr) ops_->destroy(storage_);
  }

  void operator()() { ops_->invoke(storage_); }

  explicit operator bool() const { return ops_ != nullptr; }

  /// Process-wide count of tasks whose captures spilled to the heap
  /// (monotonic). Tests assert a delta of zero across a scheduling
  /// steady state.
  static int64_t heap_allocations() {
    return heap_allocations_.load(std::memory_order_relaxed);
  }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    /// Move-constructs into `dst` and destroys `src` (noexcept by
    /// construction: inline storage requires a nothrow move, boxed storage
    /// relocates a raw pointer).
    void (*relocate)(void* src, void* dst);
    void (*destroy)(void* storage);
  };

  template <typename Fn>
  static constexpr Ops kInlineOps = {
      [](void* s) { (*static_cast<Fn*>(s))(); },
      [](void* src, void* dst) {
        Fn* from = static_cast<Fn*>(src);
        new (dst) Fn(std::move(*from));
        from->~Fn();
      },
      [](void* s) { static_cast<Fn*>(s)->~Fn(); },
  };

  template <typename Fn>
  static constexpr Ops kBoxedOps = {
      [](void* s) { (**static_cast<Fn**>(s))(); },
      [](void* src, void* dst) { new (dst) Fn*(*static_cast<Fn**>(src)); },
      [](void* s) { delete *static_cast<Fn**>(s); },
  };

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;

  inline static std::atomic<int64_t> heap_allocations_{0};
};

}  // namespace cerl
