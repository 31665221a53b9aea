// Serialized task submission on a shared executor (a "strand").
//
// A TaskGroup guarantees that its tasks run one at a time, in submission
// order (fenced submit: every task observes the effects of all tasks
// submitted to the same group before it), while tasks of DIFFERENT groups
// interleave freely across the executor's workers. This is the primitive the
// stream engine uses to serialize the per-stream stage pipeline
// (ingest -> train -> migrate) without one stream's work blocking another:
// TaskGroup::Wait drains only this group, not the whole executor.
//
// The group never occupies a worker while idle: a pump task is scheduled on
// the executor only while the group has pending work, and it re-submits
// itself after each task so long-queued groups share workers fairly with
// other groups (and other executor users) instead of holding a worker until
// drained. HOW the ready pumps are ordered is the executor's policy: on a
// FIFO WorkStealingPool groups round-robin; on the cost-aware one
// the pump carries the group's ExecOptions (priority = the stream's
// expected pending work, home = its preferred worker), refreshed via
// SetExecOptions before each pump submission — the hook the stream engine's
// longest-expected-queue-first dispatch is built on.
//
// A group task must not block on work queued to the executor it runs on
// (another group's Wait, say): once every worker blocks, nothing runs.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>

#include "util/executor.h"

namespace cerl {

/// FIFO-serialized executor strand on top of an Executor.
class TaskGroup {
 public:
  /// The executor must outlive the group.
  explicit TaskGroup(Executor* executor);

  /// Drains pending tasks (Wait) before destruction.
  ~TaskGroup();

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Enqueues a task. Tasks of one group run strictly one at a time in
  /// submission order; the completion of task k happens-before the start of
  /// task k+1 (the internal mutex carries the memory fence).
  void Submit(TaskFn task);

  /// Sets the scheduling options attached to the group's NEXT pump
  /// submission (each task completion re-submits the pump, so a refreshed
  /// priority takes effect within one task). Purely advisory — execution
  /// order within the group is always FIFO regardless.
  void SetExecOptions(const ExecOptions& options);

  /// Blocks until every task submitted to THIS group so far has finished.
  /// Tasks of other groups (and unrelated executor work) are not waited on.
  void Wait();

  /// Tasks submitted over the group's lifetime (monotonic; for tests/stats).
  int64_t submitted() const;

  /// Tasks fully executed so far.
  int64_t completed() const;

 private:
  /// Runs the front task, then re-submits itself while work remains.
  void Pump();

  Executor* executor_;
  mutable std::mutex mutex_;
  std::condition_variable cv_idle_;
  std::deque<TaskFn> pending_;
  ExecOptions exec_options_;  ///< applied to pump submissions
  bool pump_active_ = false;  ///< a Pump task is scheduled or running
  int64_t submitted_ = 0;
  int64_t completed_ = 0;
};

}  // namespace cerl
