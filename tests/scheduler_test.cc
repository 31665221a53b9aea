// Tests for the cost-aware scheduling stack: WorkStealingPool ordering /
// stealing / deadline submits, StageCostModel EWMA convergence, and the
// StreamEngine-level guarantees the scheduler must preserve — starvation
// freedom under heavy skew and bit-identical results no matter which worker
// runs (or steals) a stage.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/cerl_trainer.h"
#include "data/dataset.h"
#include "stream/cost_model.h"
#include "stream/stream_engine.h"
#include "util/binary_io.h"
#include "util/rng.h"
#include "util/scheduler.h"

namespace cerl {
namespace {

using Clock = std::chrono::steady_clock;

// Blocks pool workers until Release(), so tests can stage a known set of
// ready tasks before any of them runs.
class Gate {
 public:
  void Hold() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return open_; });
  }
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      open_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool open_ = false;
};

TEST(WorkStealingPoolTest, CostAwarePopsHighestPriorityFirst) {
  WorkStealingPoolOptions options;
  options.num_threads = 1;
  options.cost_aware = true;
  WorkStealingPool pool(options);

  Gate gate;
  pool.Execute([&gate] { gate.Hold(); });

  std::vector<int> order;
  std::mutex order_mutex;
  const double priorities[] = {1.0, 5.0, 3.0, -2.0, 4.0};
  for (int i = 0; i < 5; ++i) {
    ExecOptions opts;
    opts.priority = priorities[i];
    pool.Execute(
        [i, &order, &order_mutex] {
          std::lock_guard<std::mutex> lock(order_mutex);
          order.push_back(i);
        },
        opts);
  }
  gate.Release();
  pool.Wait();

  ASSERT_EQ(order.size(), 5u);
  // Descending priority: 5.0, 4.0, 3.0, 1.0, -2.0.
  EXPECT_EQ(order, (std::vector<int>{1, 4, 2, 0, 3}));
  EXPECT_EQ(pool.steal_count(), 0);  // single worker: nothing to steal from
}

TEST(WorkStealingPoolTest, EqualPriorityTiesAreFifo) {
  WorkStealingPoolOptions options;
  options.num_threads = 1;
  options.cost_aware = true;
  WorkStealingPool pool(options);

  Gate gate;
  pool.Execute([&gate] { gate.Hold(); });

  std::vector<int> order;
  std::mutex order_mutex;
  for (int i = 0; i < 6; ++i) {
    ExecOptions opts;
    opts.priority = 7.0;
    opts.home = 0;
    pool.Execute(
        [i, &order, &order_mutex] {
          std::lock_guard<std::mutex> lock(order_mutex);
          order.push_back(i);
        },
        opts);
  }
  gate.Release();
  pool.Wait();

  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(WorkStealingPoolTest, FifoPolicyIgnoresPriority) {
  WorkStealingPoolOptions options;
  options.num_threads = 1;
  options.cost_aware = false;  // legacy round-robin baseline
  WorkStealingPool pool(options);

  Gate gate;
  pool.Execute([&gate] { gate.Hold(); });

  std::vector<int> order;
  std::mutex order_mutex;
  const double priorities[] = {1.0, 5.0, 3.0, -2.0, 4.0};
  for (int i = 0; i < 5; ++i) {
    ExecOptions opts;
    opts.priority = priorities[i];
    pool.Execute(
        [i, &order, &order_mutex] {
          std::lock_guard<std::mutex> lock(order_mutex);
          order.push_back(i);
        },
        opts);
  }
  gate.Release();
  pool.Wait();

  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(pool.steal_count(), 0);
}

TEST(WorkStealingPoolTest, IdleWorkerStealsHomedTasks) {
  WorkStealingPoolOptions options;
  options.num_threads = 2;
  options.cost_aware = true;
  WorkStealingPool pool(options);

  // Park both workers, stage tasks all homed to worker 0, then release:
  // both workers drain queue 0, so every pop by worker 1 is a steal. With
  // more tasks than one worker can monopolize, at least one steal must
  // happen (worker 1 has nothing else to do).
  // Homeless gates spread one per queue; cross-queue pops of homeless
  // tasks are not steals, so only the homed work below counts.
  Gate gate;
  for (int w = 0; w < 2; ++w) {
    pool.Execute([&gate] { gate.Hold(); });
  }
  std::atomic<int> ran{0};
  std::atomic<int> off_home{0};
  for (int i = 0; i < 16; ++i) {
    ExecOptions opts;
    opts.home = 0;
    pool.Execute(
        [&pool, &ran, &off_home] {
          if (pool.current_worker() != 0) ++off_home;
          ++ran;
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        },
        opts);
  }
  gate.Release();
  pool.Wait();

  EXPECT_EQ(ran.load(), 16);
  EXPECT_GT(pool.steal_count(), 0);
  EXPECT_EQ(pool.steal_count(), off_home.load());
}

// A wakeup must reach a second idle worker. With both workers parked, A and
// B are submitted back to back, both homed to worker 0; A then blocks until
// B starts. Submitting A wakes worker 0; submitting B must wake worker 1,
// even though worker 0 has not yet re-taken the pool lock to clear its
// idle flag. If B's wakeup goes to worker 0 again, worker 1 sleeps, B waits
// for A to finish and A times out. The bound is 2 s per round; a round that
// works takes microseconds.
TEST(WorkStealingPoolTest, BackToBackSubmitsWakeBothIdleWorkers) {
  WorkStealingPoolOptions options;
  options.num_threads = 2;
  options.cost_aware = true;
  WorkStealingPool pool(options);
  ExecOptions home0;
  home0.home = 0;
  for (int round = 0; round < 100; ++round) {
    // Let both workers finish the previous round and park.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    std::mutex mutex;
    std::condition_variable cv;
    bool b_started = false;
    bool a_saw_b = false;
    pool.Execute(
        [&] {
          std::unique_lock<std::mutex> lock(mutex);
          a_saw_b = cv.wait_for(lock, std::chrono::seconds(2),
                                [&] { return b_started; });
        },
        home0);
    pool.Execute(
        [&] {
          std::lock_guard<std::mutex> lock(mutex);
          b_started = true;
          cv.notify_all();
        },
        home0);
    pool.Wait();
    ASSERT_TRUE(a_saw_b) << "round " << round
                         << ": B did not start while A was running";
  }
}

TEST(WorkStealingPoolTest, CurrentWorkerIsMinusOneOffPool) {
  WorkStealingPoolOptions options;
  options.num_threads = 2;
  WorkStealingPool pool(options);
  EXPECT_EQ(pool.current_worker(), -1);
  std::atomic<int> inside{-2};
  pool.Execute([&pool, &inside] { inside = pool.current_worker(); });
  pool.Wait();
  EXPECT_GE(inside.load(), 0);
  EXPECT_LT(inside.load(), 2);
}

TEST(WorkStealingPoolTest, ExecuteAfterHonorsDeadlineWithoutHoldingAWorker) {
  WorkStealingPoolOptions options;
  options.num_threads = 1;
  options.cost_aware = true;
  WorkStealingPool pool(options);

  // The parked task must not occupy the single worker: an immediate task
  // submitted after it still runs right away.
  const auto start = Clock::now();
  std::atomic<bool> delayed_ran{false};
  Clock::time_point delayed_at;
  pool.ExecuteAfter(
      30,
      [&delayed_ran, &delayed_at] {
        delayed_at = Clock::now();
        delayed_ran = true;
      },
      ExecOptions{});
  std::atomic<bool> immediate_ran{false};
  Clock::time_point immediate_at;
  pool.Execute([&immediate_ran, &immediate_at] {
    immediate_at = Clock::now();
    immediate_ran = true;
  });
  pool.Wait();  // must cover the parked deadline task too

  ASSERT_TRUE(delayed_ran.load());
  ASSERT_TRUE(immediate_ran.load());
  const auto ms = [](Clock::duration d) {
    return std::chrono::duration<double, std::milli>(d).count();
  };
  EXPECT_GE(ms(delayed_at - start), 29.0);  // deadline honored
  EXPECT_LT(ms(immediate_at - start), 25.0);  // worker was never parked on it
}

TEST(WorkStealingPoolTest, ExecuteAfterZeroDelayIsImmediate) {
  WorkStealingPoolOptions options;
  options.num_threads = 1;
  WorkStealingPool pool(options);
  std::atomic<bool> ran{false};
  pool.ExecuteAfter(0, [&ran] { ran = true; }, ExecOptions{});
  pool.Wait();
  EXPECT_TRUE(ran.load());
}

// --- StageCostModel ------------------------------------------------------

TEST(StageCostModelTest, ColdPredictionsScaleWithSubmittedWork) {
  stream::StageCostModel model;
  const stream::DomainShape small{100, 2};
  const stream::DomainShape large{400, 2};
  const double p_small =
      model.PredictMs(stream::StageKind::kTrain, small);
  const double p_large =
      model.PredictMs(stream::StageKind::kTrain, large);
  EXPECT_GT(p_small, 0.0);
  EXPECT_DOUBLE_EQ(p_large, 4.0 * p_small);  // linear in units x epochs
  EXPECT_EQ(model.observations(), 0);
  EXPECT_EQ(model.scored_predictions(), 0);  // cold predictions unscored
}

TEST(StageCostModelTest, EwmaConvergesToObservedRate) {
  stream::StageCostModel model;
  const double true_rate = 0.035;  // ms per work unit
  Rng rng(7);
  // Feed varied shapes at a fixed underlying rate; the per-unit EWMA must
  // converge so predictions transfer across sizes.
  for (int i = 0; i < 40; ++i) {
    stream::DomainShape shape;
    shape.n_units = 50 + static_cast<int64_t>(rng.UniformInt(400));
    shape.epochs = 1 + static_cast<int>(rng.UniformInt(4));
    for (int stage = 0; stage < stream::kNumStages; ++stage) {
      const auto kind = static_cast<stream::StageKind>(stage);
      const double ms =
          true_rate * static_cast<double>(stream::StageWorkUnits(kind, shape));
      model.Observe(kind, shape, ms);
    }
  }
  const stream::DomainShape probe{333, 3};
  for (int stage = 0; stage < stream::kNumStages; ++stage) {
    const auto kind = static_cast<stream::StageKind>(stage);
    const double predicted = model.PredictMs(kind, probe);
    const double truth =
        true_rate * static_cast<double>(stream::StageWorkUnits(kind, probe));
    EXPECT_NEAR(predicted, truth, 0.02 * truth) << "stage " << stage;
  }
  // Constant-rate observations => warm predictions were near-perfect.
  EXPECT_GT(model.scored_predictions(), 0);
  EXPECT_LT(model.mean_abs_pct_error(), 0.05);
  EXPECT_GT(model.ewma_stage_ms(stream::StageKind::kTrain), 0.0);
}

TEST(StageCostModelTest, EwmaTracksRateDrift) {
  stream::StageCostModel model;
  const stream::DomainShape shape{200, 2};
  const auto kind = stream::StageKind::kTrain;
  const double work = static_cast<double>(stream::StageWorkUnits(kind, shape));
  for (int i = 0; i < 30; ++i) model.Observe(kind, shape, 0.01 * work);
  const double before = model.PredictMs(kind, shape);
  for (int i = 0; i < 30; ++i) model.Observe(kind, shape, 0.05 * work);
  const double after = model.PredictMs(kind, shape);
  EXPECT_NEAR(before, 0.01 * work, 0.05 * 0.01 * work);
  EXPECT_NEAR(after, 0.05 * work, 0.05 * 0.05 * work);
}

TEST(StageCostModelTest, SerializeRoundtripRestoresRates) {
  stream::StageCostModel model;
  const stream::DomainShape shape{128, 3};
  for (int stage = 0; stage < stream::kNumStages; ++stage) {
    const auto kind = static_cast<stream::StageKind>(stage);
    for (int i = 0; i < 5; ++i) {
      model.Observe(kind, shape,
                    0.02 * (stage + 1) *
                        static_cast<double>(stream::StageWorkUnits(kind, shape)));
    }
  }
  std::string blob;
  model.Serialize(&blob);

  stream::StageCostModel restored;
  std::istringstream in(blob);
  BoundedReader reader(&in, blob.size());
  ASSERT_TRUE(restored.Deserialize(&reader).ok());
  const stream::DomainShape probe{512, 2};
  for (int stage = 0; stage < stream::kNumStages; ++stage) {
    const auto kind = static_cast<stream::StageKind>(stage);
    EXPECT_DOUBLE_EQ(restored.PredictMs(kind, probe),
                     model.PredictMs(kind, probe));
  }
  // Diagnostics restore cold by design.
  EXPECT_EQ(restored.mean_abs_pct_error(), 0.0);
  EXPECT_EQ(restored.ewma_stage_ms(stream::StageKind::kTrain), 0.0);
}

TEST(StageCostModelTest, DeserializeRejectsCorruptRates) {
  stream::StageCostModel model;
  std::string blob;
  model.Serialize(&blob);
  ASSERT_GE(blob.size(), sizeof(double));
  const double bad = -1.0;
  blob.replace(0, sizeof(double),
               reinterpret_cast<const char*>(&bad), sizeof(double));
  stream::StageCostModel restored;
  std::istringstream in(blob);
  BoundedReader reader(&in, blob.size());
  EXPECT_FALSE(restored.Deserialize(&reader).ok());
}

// --- Engine-level scheduling guarantees ----------------------------------

constexpr int kFeatures = 6;

data::DataSplit ToyDomain(Rng* rng, int units, double shift) {
  data::CausalDataset d;
  d.x = linalg::Matrix(units, kFeatures);
  d.t.resize(units);
  d.y.resize(units);
  d.mu0.assign(units, 0.0);
  d.mu1.assign(units, 1.0);
  for (int i = 0; i < units; ++i) {
    for (int j = 0; j < kFeatures; ++j) d.x(i, j) = rng->Normal(shift, 1.0);
    d.t[i] = rng->Uniform() < 0.5 ? 1 : 0;
    d.y[i] = std::sin(d.x(i, 0)) + d.t[i] + 0.1 * rng->Normal();
  }
  return data::SplitDataset(d, rng);
}

core::CerlConfig TinyConfig(uint64_t seed) {
  core::CerlConfig c;
  c.net.rep_hidden = {8};
  c.net.rep_dim = 4;
  c.net.head_hidden = {4};
  c.train.epochs = 3;
  c.train.batch_size = 32;
  c.train.patience = 3;
  c.train.alpha = 0.2;
  c.train.seed = seed;
  c.memory_capacity = 50;
  return c;
}

// One heavy backlogged tenant plus many light ones, fewer workers than
// streams: every domain must complete — the cost-aware policy may reorder,
// but it must never starve anyone (work conservation + per-stream FIFO).
TEST(SchedulerEngineTest, StarvationFreedomUnderHeavySkew) {
  stream::StreamEngineOptions options;
  options.num_workers = 2;
  options.schedule_policy = stream::SchedulePolicy::kCostAware;
  stream::StreamEngine engine(options);

  Rng rng(11);
  const int kLights = 8;
  const int heavy = engine.AddStream("heavy", TinyConfig(1), kFeatures);
  std::vector<int> lights;
  for (int i = 0; i < kLights; ++i) {
    lights.push_back(engine.AddStream("light-" + std::to_string(i),
                                      TinyConfig(100 + i), kFeatures));
  }
  // Deep heavy backlog first, then a trickle of light domains.
  for (int d = 0; d < 6; ++d) {
    ASSERT_TRUE(engine.PushDomain(heavy, ToyDomain(&rng, 300, 0.1 * d)).ok());
  }
  for (int r = 0; r < 2; ++r) {
    for (int id : lights) {
      ASSERT_TRUE(engine.PushDomain(id, ToyDomain(&rng, 40, 0.2 * r)).ok());
    }
  }
  engine.Drain();

  EXPECT_EQ(engine.results(heavy).size(), 6u);
  for (int id : lights) EXPECT_EQ(engine.results(id).size(), 2u);

  const stream::StreamSchedStats heavy_stats = engine.sched_stats(heavy);
  EXPECT_EQ(heavy_stats.queue_depth, 0);
  EXPECT_EQ(heavy_stats.stages_executed, 6 * stream::kNumStages);
  EXPECT_EQ(heavy_stats.completion_latency.count(), 6);
  EXPECT_GT(heavy_stats.ewma_stage_cost_ms[1], 0.0);  // train stage warm

  const stream::StreamSchedStats total = engine.TotalSchedStats();
  EXPECT_EQ(total.completion_latency.count(), 6 + kLights * 2);
  EXPECT_EQ(total.stages_executed,
            static_cast<int64_t>((6 + kLights * 2) * stream::kNumStages));
}

// Stages executed by thieves must be bitwise identical to home (and to a
// fully serial run): scheduling picks WHEN a stage runs, never what it
// computes. Two heavy streams share worker 0 while workers 1 and 2 run out
// of home work almost immediately, so worker 0's queue holds one heavy
// stream's stage while it runs the other's — an idle worker steals it.
// One heavy stream is not enough: worker 0 usually re-pops its own next
// stage before a woken thief reaches the lock.
TEST(SchedulerEngineTest, StolenStagesAreBitIdenticalToSerial) {
  stream::StreamEngineOptions options;
  options.num_workers = 3;
  options.schedule_policy = stream::SchedulePolicy::kCostAware;
  stream::StreamEngine engine(options);

  const int kStreams = 4;  // homes 0, 1, 2, 0
  const int domains_per_stream[kStreams] = {6, 1, 1, 6};
  std::vector<std::vector<data::DataSplit>> streams(kStreams);
  for (int s = 0; s < kStreams; ++s) {
    Rng rng(40 + s);
    for (int d = 0; d < domains_per_stream[s]; ++d) {
      streams[s].push_back(
          ToyDomain(&rng, domains_per_stream[s] > 1 ? 250 : 40, 0.1 * d));
    }
  }

  std::vector<int> ids;
  for (int s = 0; s < kStreams; ++s) {
    ids.push_back(engine.AddStream("s" + std::to_string(s),
                                   TinyConfig(70 + s), kFeatures));
  }
  for (int s = 0; s < kStreams; ++s) {
    for (const data::DataSplit& split : streams[s]) {
      ASSERT_TRUE(engine.PushDomain(ids[s], split).ok());
    }
  }
  engine.Drain();

  // Workers 1 and 2 run out of home work almost immediately; the heavy
  // streams' stages queued behind worker 0 get stolen.
  EXPECT_GT(engine.steal_count(), 0);

  for (int s = 0; s < kStreams; ++s) {
    core::CerlTrainer serial(TinyConfig(70 + s), kFeatures);
    std::vector<double> serial_valid;
    for (const data::DataSplit& split : streams[s]) {
      serial_valid.push_back(serial.ObserveDomain(split).best_valid_loss);
    }
    const std::vector<stream::DomainResult>& results = engine.results(ids[s]);
    ASSERT_EQ(results.size(), streams[s].size());
    for (size_t d = 0; d < results.size(); ++d) {
      EXPECT_EQ(results[d].stats.best_valid_loss, serial_valid[d])
          << "stream " << s << " domain " << d;
    }
    const linalg::Vector engine_ite =
        engine.trainer(ids[s]).PredictIte(streams[s].back().test.x);
    const linalg::Vector serial_ite =
        serial.PredictIte(streams[s].back().test.x);
    ASSERT_EQ(engine_ite.size(), serial_ite.size());
    for (size_t i = 0; i < engine_ite.size(); ++i) {
      ASSERT_EQ(engine_ite[i], serial_ite[i]) << "stream " << s;
    }
  }
}

// Both policies produce identical RESULTS on identical inputs — the A/B in
// the SLO bench compares timing of the same computation, not two different
// computations.
TEST(SchedulerEngineTest, PoliciesAgreeBitwise) {
  std::vector<std::vector<data::DataSplit>> streams(4);
  for (int s = 0; s < 4; ++s) {
    Rng rng(90 + s);
    for (int d = 0; d < 2; ++d) {
      streams[s].push_back(ToyDomain(&rng, 60 + 40 * s, 0.15 * d));
    }
  }
  std::vector<double> valid[2];
  for (int policy = 0; policy < 2; ++policy) {
    stream::StreamEngineOptions options;
    options.num_workers = 2;
    options.schedule_policy = policy == 0
                                  ? stream::SchedulePolicy::kRoundRobin
                                  : stream::SchedulePolicy::kCostAware;
    stream::StreamEngine engine(options);
    std::vector<int> ids;
    for (int s = 0; s < 4; ++s) {
      ids.push_back(engine.AddStream("s" + std::to_string(s),
                                     TinyConfig(300 + s), kFeatures));
    }
    for (int s = 0; s < 4; ++s) {
      for (const data::DataSplit& split : streams[s]) {
        ASSERT_TRUE(engine.PushDomain(ids[s], split).ok());
      }
    }
    engine.Drain();
    for (int s = 0; s < 4; ++s) {
      for (const stream::DomainResult& r : engine.results(ids[s])) {
        valid[policy].push_back(r.stats.best_valid_loss);
      }
    }
  }
  ASSERT_EQ(valid[0].size(), valid[1].size());
  for (size_t i = 0; i < valid[0].size(); ++i) {
    EXPECT_EQ(valid[0][i], valid[1][i]) << "domain " << i;
  }
}

}  // namespace
}  // namespace cerl
