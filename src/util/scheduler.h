// Cost-aware work-stealing pool — the scheduling substrate behind the
// stream engine's dispatch (ROADMAP: "break the round-robin wall").
//
// A plain FIFO queue (cost_aware = false) round-robins the
// per-stream strands: with workers < streams, a light tenant's microsecond
// stage waits a full cycle of every other ready stream's (possibly huge)
// stage, and a backlogged tenant's queue drains one stage per cycle — tail
// latency grows with the tenant count, not the tenant's own work. This pool
// schedules by PRIORITY instead (ExecOptions::priority — the stream engine
// passes each strand's expected pending work, so the ready queue is
// longest-expected-queue-first), keeps per-worker queues for affinity
// (ExecOptions::home), and lets an idle worker STEAL the highest-priority
// task from any other worker's queue rather than parking — a heavy tenant's
// next stage starts the moment any worker frees up.
//
// Policy (cost_aware = true):
//  - Execute(task, {priority, home}) enqueues on `home`'s queue (homeless
//    tasks spread round-robin);
//  - a worker always pops the globally highest-priority ready task, breaking
//    exact priority ties in favor of its own queue and then in FIFO order —
//    so equal-priority strands round-robin exactly as before;
//  - a pop from another worker's queue of a homed task counts as a steal
//    (steal_count; the stream engine attributes them per stream).
//
// With cost_aware = false every task lands in one FIFO queue and priorities,
// homes and steals are ignored — bit-exactly the legacy round-robin
// behavior, kept as the baseline the SLO bench and A/B tests compare
// against.
//
// Deadline submits: ExecuteAfter(delay_ms, ...) parks a task in a timer heap
// that workers promote when due — the primitive behind retry backoff that
// does NOT occupy a worker while it waits (stream_engine.cc used to sleep
// the backoff on the stream's worker, burning a scheduler slot).
//
// Scheduling only ever picks WHICH ready task runs next, never what it
// computes: tasks must be oblivious to the worker they run on (the engine's
// stage tasks are — stolen stages are bit-identical to home execution, see
// scheduler_test).
//
// Locking: one pool mutex guards every queue. Tasks here are coarse
// (trainer stages, milliseconds); the lock hold is a heap operation plus an
// O(workers) scan, tens of nanoseconds — contention is not a design
// constraint.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "util/executor.h"

namespace cerl {

struct WorkStealingPoolOptions {
  /// Worker threads (>= 1). 0 = hardware concurrency.
  int num_threads = 0;
  /// Priority scheduling + affinity + stealing. false = one strict FIFO
  /// queue (the legacy round-robin baseline); priorities/homes are ignored
  /// and steal_count stays 0.
  bool cost_aware = true;
};

/// Priority/affinity scheduled pool with work stealing and deadline submits.
class WorkStealingPool : public Executor {
 public:
  explicit WorkStealingPool(const WorkStealingPoolOptions& options);
  /// Drains every pending task — including parked deadline tasks, whose
  /// deadlines are honored — then joins the workers.
  ~WorkStealingPool() override;

  WorkStealingPool(const WorkStealingPool&) = delete;
  WorkStealingPool& operator=(const WorkStealingPool&) = delete;

  /// Schedules `task`. Thread-safe; callable from inside a running task.
  void Execute(TaskFn task, const ExecOptions& options) override;
  using Executor::Execute;

  /// Schedules `task` to become ready `delay_ms` milliseconds from now (it
  /// runs at the first worker availability after that). No worker is
  /// occupied while the delay elapses. delay_ms <= 0 is an immediate
  /// Execute.
  void ExecuteAfter(int delay_ms, TaskFn task, const ExecOptions& options);

  /// Blocks until every task submitted so far — ready or parked on a
  /// deadline — has finished.
  void Wait();

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Index of the calling pool worker, or -1 off-pool. The stream engine
  /// uses it to attribute stolen stages per stream.
  int current_worker() const;

  /// Homed tasks executed by a worker other than their home (monotonic;
  /// always 0 under FIFO policy).
  int64_t steal_count() const;

 private:
  struct Item;
  struct Timer;
  struct Worker;

  void WorkerLoop(int index);
  /// Moves due timers to the ready queues. Caller holds mutex_.
  void PromoteTimersLocked(std::chrono::steady_clock::time_point now);
  /// Enqueues a ready item and wakes a worker for it. Caller holds mutex_.
  void EnqueueReadyLocked(Item item);
  /// Pops the best ready item for worker `w` (globally highest priority;
  /// ties: own queue first, then FIFO). Returns false when nothing is
  /// ready. Caller holds mutex_.
  bool PopLocked(int w, Item* out);

  const bool cost_aware_;
  /// Time origin for aged priority keys (see Item in scheduler.cc).
  const std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::condition_variable cv_done_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::deque<TaskFn> fifo_;    ///< FIFO policy: the single ready queue
  std::vector<Timer> timers_;  ///< min-heap by due time
  uint64_t next_seq_ = 0;      ///< submission order, the priority tie-break
  int next_spread_ = 0;        ///< round-robin cursor for homeless tasks
  int in_flight_ = 0;          ///< submitted (incl. parked) minus finished
  int64_t steals_ = 0;
  bool stop_ = false;
};

}  // namespace cerl
