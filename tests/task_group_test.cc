// Tests for util::TaskGroup, the fenced-submit / per-stream serialization
// primitive: strict FIFO order and mutual exclusion within a group,
// independence across groups sharing one pool, and group-scoped Wait.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <vector>

#include "util/scheduler.h"
#include "util/task_group.h"

namespace cerl {
namespace {

TEST(TaskGroupTest, RunsTasksInSubmissionOrderExactlyOnce) {
  WorkStealingPool pool({4, /*cost_aware=*/false});
  TaskGroup group(&pool);
  std::vector<int> order;  // written only by group tasks => serialized
  const int kTasks = 500;
  for (int i = 0; i < kTasks; ++i) {
    group.Submit([&order, i] { order.push_back(i); });
  }
  group.Wait();
  ASSERT_EQ(order.size(), static_cast<size_t>(kTasks));
  for (int i = 0; i < kTasks; ++i) EXPECT_EQ(order[i], i);
  EXPECT_EQ(group.submitted(), kTasks);
  EXPECT_EQ(group.completed(), kTasks);
}

TEST(TaskGroupTest, TasksOfOneGroupNeverOverlap) {
  WorkStealingPool pool({4, /*cost_aware=*/false});
  TaskGroup group(&pool);
  std::atomic<int> in_flight{0};
  std::atomic<int> max_in_flight{0};
  for (int i = 0; i < 200; ++i) {
    group.Submit([&] {
      const int now = in_flight.fetch_add(1) + 1;
      int seen = max_in_flight.load();
      while (seen < now && !max_in_flight.compare_exchange_weak(seen, now)) {
      }
      in_flight.fetch_sub(1);
    });
  }
  group.Wait();
  EXPECT_EQ(max_in_flight.load(), 1);
}

TEST(TaskGroupTest, GroupsDoNotBlockEachOther) {
  // Group A's task blocks until group B's task has run. If groups
  // serialized against each other (pool-global fencing), this would
  // deadlock; with per-group serialization B's task runs on another worker
  // and releases A.
  WorkStealingPool pool({2, /*cost_aware=*/false});
  TaskGroup a(&pool), b(&pool);
  std::mutex mutex;
  std::condition_variable cv;
  bool b_ran = false;

  a.Submit([&] {
    std::unique_lock<std::mutex> lock(mutex);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(30),
                            [&] { return b_ran; }));
  });
  b.Submit([&] {
    {
      std::lock_guard<std::mutex> lock(mutex);
      b_ran = true;
    }
    cv.notify_all();
  });
  a.Wait();
  b.Wait();
  EXPECT_TRUE(b_ran);
}

TEST(TaskGroupTest, WaitScopedToOwnGroup) {
  WorkStealingPool pool({2, /*cost_aware=*/false});
  TaskGroup slow(&pool), fast(&pool);
  std::mutex mutex;
  std::condition_variable cv;
  bool release_slow = false;
  std::atomic<bool> slow_done{false};

  slow.Submit([&] {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait_for(lock, std::chrono::seconds(30), [&] { return release_slow; });
    slow_done = true;
  });
  fast.Submit([] {});
  // Waiting on `fast` must return while `slow`'s task is still blocked.
  fast.Wait();
  EXPECT_FALSE(slow_done.load());
  {
    std::lock_guard<std::mutex> lock(mutex);
    release_slow = true;
  }
  cv.notify_all();
  slow.Wait();
  EXPECT_TRUE(slow_done.load());
}

TEST(TaskGroupTest, SubmitAfterDrainRestartsPump) {
  WorkStealingPool pool({2, /*cost_aware=*/false});
  TaskGroup group(&pool);
  int runs = 0;
  group.Submit([&] { ++runs; });
  group.Wait();
  EXPECT_EQ(runs, 1);
  group.Submit([&] { ++runs; });
  group.Submit([&] { ++runs; });
  group.Wait();
  EXPECT_EQ(runs, 3);
}

TEST(TaskGroupTest, FencedSubmitSeesPriorTasksEffects) {
  // Each task reads the value the previous task wrote (no atomics): the
  // group's serialization must carry the happens-before edge. Unsigned, so
  // the chain wraps modulo 2^64 (defined) instead of overflowing; a task
  // that ran out of order still yields a different value.
  WorkStealingPool pool({4, /*cost_aware=*/false});
  TaskGroup group(&pool);
  unsigned long long value = 0;
  const int kTasks = 300;
  for (int i = 0; i < kTasks; ++i) {
    group.Submit([&value] { value = value * 3 + 1; });
  }
  group.Wait();
  unsigned long long expected = 0;
  for (int i = 0; i < kTasks; ++i) expected = expected * 3 + 1;
  EXPECT_EQ(value, expected);
}

TEST(TaskGroupTest, SmallTasksNeverTouchTheHeap) {
  // The scheduling hot path (Submit + the group's self-resubmitting pump)
  // must stay allocation-free for small closures: TaskFn's inline storage
  // holds them, and the pump lambda is a single captured pointer. A heap
  // allocation per stage task would put malloc on every scheduler decision.
  WorkStealingPool pool({2, /*cost_aware=*/false});
  TaskGroup group(&pool);
  std::atomic<int> runs{0};
  group.Submit([&runs] { runs.fetch_add(1); });
  group.Wait();  // warm up: pool/group internals allocate lazily

  const int64_t before = TaskFn::heap_allocations();
  const int kTasks = 200;
  for (int i = 0; i < kTasks; ++i) {
    group.Submit([&runs] { runs.fetch_add(1); });
  }
  group.Wait();
  EXPECT_EQ(runs.load(), kTasks + 1);
  EXPECT_EQ(TaskFn::heap_allocations(), before);

  // A closure past kInlineBytes boxes (and is counted) — the counter works.
  struct Fat {
    char pad[128];
  } fat{};
  group.Submit([&runs, fat] {
    (void)fat;
    runs.fetch_add(1);
  });
  group.Wait();
  EXPECT_EQ(TaskFn::heap_allocations(), before + 1);
}

TEST(TaskGroupTest, DestructorDrains) {
  WorkStealingPool pool({2, /*cost_aware=*/false});
  std::atomic<int> runs{0};
  {
    TaskGroup group(&pool);
    for (int i = 0; i < 50; ++i) {
      group.Submit([&runs] { runs.fetch_add(1); });
    }
  }  // ~TaskGroup waits
  EXPECT_EQ(runs.load(), 50);
}

}  // namespace
}  // namespace cerl
