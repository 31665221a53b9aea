#include "util/thread_pool.h"

#include <algorithm>

#include "util/check.h"

namespace cerl {

ThreadPool::ThreadPool(int num_threads) {
  CERL_CHECK_GE(num_threads, 1);
  workers_.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& t : workers_) t.join();
}

void ThreadPool::Submit(TaskFn task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push(std::move(task));
    ++in_flight_;
  }
  cv_task_.notify_one();
}

void ThreadPool::Execute(TaskFn task, const ExecOptions& /*options*/) {
  Submit(std::move(task));
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_done_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    TaskFn task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_task_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --in_flight_;
      if (in_flight_ == 0) cv_done_.notify_all();
    }
  }
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool pool(
      std::max(1u, std::thread::hardware_concurrency()));
  return pool;
}

void ParallelFor(int64_t begin, int64_t end,
                 const std::function<void(int64_t, int64_t)>& body_range,
                 int64_t grain) {
  const int64_t n = end - begin;
  if (n <= 0) return;
  ThreadPool& pool = ThreadPool::Global();
  const int workers = pool.num_threads();
  if (n <= grain || workers <= 1) {
    body_range(begin, end);
    return;
  }
  const int64_t chunks = std::min<int64_t>(workers, (n + grain - 1) / grain);
  const int64_t step = (n + chunks - 1) / chunks;
  // Per-call completion latch rather than ThreadPool::Wait(): the global
  // pool serves concurrent callers (e.g. several stream workers' training
  // GEMMs), and a pool-global wait would block each caller on the others'
  // tasks.
  std::mutex done_mutex;
  std::condition_variable done_cv;
  int64_t remaining = 0;
  for (int64_t c = 0; c < chunks; ++c) {
    if (begin + c * step >= end) break;
    ++remaining;
  }
  const int64_t submitted = remaining;
  for (int64_t c = 0; c < submitted; ++c) {
    const int64_t lo = begin + c * step;
    const int64_t hi = std::min(end, lo + step);
    pool.Submit([lo, hi, &body_range, &done_mutex, &done_cv, &remaining] {
      body_range(lo, hi);
      std::lock_guard<std::mutex> lock(done_mutex);
      if (--remaining == 0) done_cv.notify_one();
    });
  }
  std::unique_lock<std::mutex> lock(done_mutex);
  done_cv.wait(lock, [&remaining] { return remaining == 0; });
}

}  // namespace cerl
