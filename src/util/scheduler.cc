#include "util/scheduler.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "util/check.h"

namespace cerl {

namespace {

// Worker identity for current_worker(): written once per worker thread at
// startup, compared against `this` so nested pools cannot confuse each
// other.
thread_local const WorkStealingPool* tls_pool = nullptr;
thread_local int tls_worker = -1;

}  // namespace

/// A ready task. `seq` is the global submission index: the FIFO tie-break
/// within a priority level, so equal-priority strands round-robin exactly
/// like the legacy pool.
struct WorkStealingPool::Item {
  TaskFn task;
  double priority = 0.0;  ///< as submitted (ExecOptions::priority)
  /// Aged ordering key, fixed at enqueue: priority - (enqueue - pool epoch)
  /// in ms. Comparing keys is equivalent to comparing the time-varying
  /// effective priority `priority + waiting_time_ms` at any later instant —
  /// the +now terms cancel — so waiting tasks age linearly without the heap
  /// ever being re-ordered, and no finite priority can starve.
  double key = 0.0;
  int home = -1;  ///< queue it was enqueued on; -1 = homeless (spread)
  uint64_t seq = 0;

  /// Heap order: higher aged key wins; equal keys run in submission order.
  /// (std::push_heap keeps the *greatest* element on top under this
  /// "less-than".)
  bool operator<(const Item& other) const {
    if (key != other.key) return key < other.key;
    return seq > other.seq;
  }
};

/// A parked deadline task (min-heap by `due`, then submission order).
struct WorkStealingPool::Timer {
  std::chrono::steady_clock::time_point due;
  Item item;

  /// std::push_heap builds a max-heap; invert so the EARLIEST due is on top.
  bool operator<(const Timer& other) const {
    if (due != other.due) return due > other.due;
    return item.seq > other.item.seq;
  }
};

struct WorkStealingPool::Worker {
  std::condition_variable cv;
  /// Max-heap by (priority, then lower seq) via Item::operator<.
  std::vector<Item> heap;
  bool idle = false;
  std::thread thread;
};

WorkStealingPool::WorkStealingPool(const WorkStealingPoolOptions& options)
    : cost_aware_(options.cost_aware),
      epoch_(std::chrono::steady_clock::now()) {
  int num_threads = options.num_threads;
  if (num_threads <= 0) {
    num_threads =
        static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  }
  workers_.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  // Threads start only after every Worker slot exists: a worker's pop scan
  // walks all queues.
  for (int i = 0; i < num_threads; ++i) {
    workers_[i]->thread = std::thread([this, i] { WorkerLoop(i); });
  }
}

WorkStealingPool::~WorkStealingPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  for (auto& w : workers_) w->cv.notify_all();
  for (auto& w : workers_) w->thread.join();
}

void WorkStealingPool::Execute(TaskFn task, const ExecOptions& options) {
  CERL_CHECK(static_cast<bool>(task));
  std::lock_guard<std::mutex> lock(mutex_);
  Item item;
  item.task = std::move(task);
  item.priority = options.priority;
  item.home = options.home;
  item.seq = next_seq_++;
  ++in_flight_;
  EnqueueReadyLocked(std::move(item));
}

void WorkStealingPool::ExecuteAfter(int delay_ms, TaskFn task,
                                    const ExecOptions& options) {
  CERL_CHECK(static_cast<bool>(task));
  if (delay_ms <= 0) {
    Execute(std::move(task), options);
    return;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  Timer timer;
  timer.due = std::chrono::steady_clock::now() +
              std::chrono::milliseconds(delay_ms);
  timer.item.task = std::move(task);
  timer.item.priority = options.priority;
  timer.item.home = options.home;
  timer.item.seq = next_seq_++;
  ++in_flight_;
  timers_.push_back(std::move(timer));
  std::push_heap(timers_.begin(), timers_.end());
  // Idle workers may be waiting with no deadline (or a later one): wake them
  // all to re-arm against the possibly-earlier due time. Timers are rare
  // (retry backoff), so the herd wakeup is irrelevant.
  for (auto& w : workers_) {
    if (w->idle) w->cv.notify_one();
  }
}

void WorkStealingPool::EnqueueReadyLocked(Item item) {
  int wake = -1;
  if (!cost_aware_) {
    fifo_.push_back(std::move(item.task));
    for (int i = 0; i < num_threads(); ++i) {
      if (workers_[i]->idle) {
        wake = i;
        break;
      }
    }
  } else {
    // Aged key: see Item::key. Timer tasks are keyed from promotion, not
    // submission — backoff delays deliberately do not accrue priority.
    item.key = item.priority -
               std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - epoch_)
                   .count();
    int q = item.home;
    if (q < 0 || q >= num_threads()) {
      // Homeless tasks spread round-robin; they stay marked homeless so a
      // cross-queue pop is not counted as a steal.
      q = next_spread_;
      next_spread_ = (next_spread_ + 1) % num_threads();
    }
    workers_[q]->heap.push_back(std::move(item));
    std::push_heap(workers_[q]->heap.begin(), workers_[q]->heap.end());
    // Wake the home worker when it is idle (affinity), otherwise any idle
    // worker — it will steal the task rather than let it wait for the busy
    // home.
    if (workers_[q]->idle) {
      wake = q;
    } else {
      for (int i = 0; i < num_threads(); ++i) {
        if (workers_[i]->idle) {
          wake = i;
          break;
        }
      }
    }
  }
  if (wake >= 0) {
    // Cleared here, not when the worker re-takes the lock, so an enqueue in
    // between wakes another idle worker instead of this one again.
    workers_[wake]->idle = false;
    workers_[wake]->cv.notify_one();
  }
}

void WorkStealingPool::PromoteTimersLocked(
    std::chrono::steady_clock::time_point now) {
  while (!timers_.empty() && timers_.front().due <= now) {
    std::pop_heap(timers_.begin(), timers_.end());
    Item item = std::move(timers_.back().item);
    timers_.pop_back();
    // The promoting worker re-scans immediately after, so the wake below is
    // only needed for OTHER idle workers; EnqueueReadyLocked handles it.
    EnqueueReadyLocked(std::move(item));
  }
}

bool WorkStealingPool::PopLocked(int w, Item* out) {
  if (!cost_aware_) {
    if (fifo_.empty()) return false;
    out->task = std::move(fifo_.front());
    out->home = -1;
    fifo_.pop_front();
    return true;
  }
  // Globally highest priority; exact ties prefer the worker's own queue
  // (affinity), then lower seq (FIFO). The scan is O(workers), each a heap
  // top peek.
  int best = -1;
  const Item* best_item = nullptr;
  for (int i = 0; i < num_threads(); ++i) {
    const std::vector<Item>& heap = workers_[i]->heap;
    if (heap.empty()) continue;
    const Item& top = heap.front();
    if (best_item == nullptr) {
      best = i;
      best_item = &top;
      continue;
    }
    const bool better =
        top.key > best_item->key ||
        (top.key == best_item->key && best != w &&
         (i == w || top.seq < best_item->seq));
    if (better) {
      best = i;
      best_item = &top;
    }
  }
  if (best < 0) return false;
  std::vector<Item>& heap = workers_[best]->heap;
  std::pop_heap(heap.begin(), heap.end());
  *out = std::move(heap.back());
  heap.pop_back();
  if (best != w && out->home >= 0) ++steals_;
  return true;
}

void WorkStealingPool::WorkerLoop(int index) {
  tls_pool = this;
  tls_worker = index;
  Worker& self = *workers_[index];
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    PromoteTimersLocked(std::chrono::steady_clock::now());
    Item item;
    if (PopLocked(index, &item)) {
      lock.unlock();
      item.task();
      // Release the closure's captures before re-acquiring the lock: a
      // drain-waiter woken by the decrement below must not race the
      // destruction of what the task owned.
      item.task = TaskFn();
      lock.lock();
      if (--in_flight_ == 0) cv_done_.notify_all();
      continue;
    }
    if (stop_ && timers_.empty()) return;
    self.idle = true;
    if (!timers_.empty()) {
      // Park until the earliest deadline: whoever wakes first promotes it.
      self.cv.wait_until(lock, timers_.front().due);
    } else {
      self.cv.wait(lock);
    }
    self.idle = false;
  }
}

void WorkStealingPool::Wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_done_.wait(lock, [this] { return in_flight_ == 0; });
}

int WorkStealingPool::current_worker() const {
  return tls_pool == this ? tls_worker : -1;
}

int64_t WorkStealingPool::steal_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return steals_;
}

}  // namespace cerl
