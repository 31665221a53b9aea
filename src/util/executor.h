// Executor — the minimal scheduling interface TaskGroup (and anything else
// that submits deferred work) programs against. WorkStealingPool (scheduler.h)
// implements it, in FIFO or cost-aware mode.
//
// ExecOptions is advisory scheduling metadata, not a contract: a FIFO
// executor is free to ignore it entirely. Under the cost-aware scheduler it
// carries the two signals the stream engine's policy needs — how much work
// the submitting strand expects to have pending (its ready-queue priority:
// workers pull the highest, i.e. longest-expected-queue-first) and which
// worker the strand is homed on (affinity; any other worker taking the task
// is a steal).
#pragma once

#include "util/task_fn.h"

namespace cerl {

/// Advisory scheduling metadata attached to a submitted task.
struct ExecOptions {
  /// Higher runs sooner under a cost-aware executor (expected pending work,
  /// in EWMA milliseconds, for the stream engine's strands; +infinity for
  /// run-next utility tasks). FIFO executors ignore it.
  double priority = 0.0;
  /// Preferred worker index, or -1 for no affinity. Executors with fewer
  /// workers wrap it; FIFO executors ignore it.
  int home = -1;
};

/// Anything that can run a task asynchronously.
class Executor {
 public:
  virtual ~Executor() = default;

  /// Schedules `task` to run exactly once on some worker. Must be safe to
  /// call from any thread, including from inside a running task.
  virtual void Execute(TaskFn task, const ExecOptions& options) = 0;

  /// Convenience overload: default (no-preference) scheduling options.
  void Execute(TaskFn task) { Execute(std::move(task), ExecOptions()); }
};

}  // namespace cerl
