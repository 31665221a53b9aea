// Tests for the shared mini-batch training engine: early-stopping snapshot
// restore, patience accounting, and full per-epoch sample coverage
// including the tail batch (regression: the pre-extraction loops dropped
// up to batch_size-1 samples per epoch).
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <numeric>
#include <string>
#include <vector>

#include "autodiff/composite.h"
#include "autodiff/ops.h"
#include "train/train_loop.h"

namespace cerl::train {
namespace {

using autodiff::Parameter;
using autodiff::Tape;
using autodiff::Var;

// Minimizes w^2 on a 1x1 parameter; every batch makes the same step so the
// parameter trajectory is strictly decreasing in |w|.
Var QuadraticLoss(Tape* tape, Parameter* w) {
  return autodiff::Sum(autodiff::Square(tape->Param(w)));
}

TEST(TrainLoopTest, EarlyStoppingRestoresBestValidationSnapshot) {
  Parameter w(linalg::Matrix(1, 1, 5.0), "w");
  LoopOptions options;
  options.epochs = 100;
  options.batch_size = 4;
  options.patience = 3;

  // Scripted validation losses: initial 10, best after epoch 0, then only
  // worse. The engine must restore the parameter value it had when the
  // best validation loss was observed.
  const std::vector<double> script = {10.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
  std::vector<double> w_at_call;
  size_t call = 0;
  auto valid_loss = [&]() {
    w_at_call.push_back(w.value(0, 0));
    const double v = script[std::min(call, script.size() - 1)];
    ++call;
    return v;
  };

  TrainLoop loop(options, {&w});
  TrainStats stats = loop.Run(
      /*n=*/8, [&](Tape* tape, IndexSpan) {
        return QuadraticLoss(tape, &w);
      },
      valid_loss);

  EXPECT_DOUBLE_EQ(stats.best_valid_loss, 1.0);
  // Best was the call right after epoch 0; the restored parameter must be
  // bit-identical to its value at that call, not the later (smaller) ones.
  EXPECT_DOUBLE_EQ(w.value(0, 0), w_at_call[1]);
  EXPECT_NE(w.value(0, 0), w_at_call.back());
}

TEST(TrainLoopTest, EpochCountRespectsPatience) {
  Parameter w(linalg::Matrix(1, 1, 1.0), "w");
  LoopOptions options;
  options.epochs = 200;
  options.batch_size = 2;
  options.patience = 7;

  // Validation never improves on the initial loss, so the loop must stop
  // after exactly `patience` epochs.
  TrainLoop loop(options, {&w});
  TrainStats stats = loop.Run(
      /*n=*/6, [&](Tape* tape, IndexSpan) {
        return QuadraticLoss(tape, &w);
      },
      [&]() { return 1.0; });

  EXPECT_EQ(stats.epochs_run, options.patience);
  EXPECT_DOUBLE_EQ(stats.best_valid_loss, 1.0);
  EXPECT_GE(stats.wall_seconds, 0.0);
}

TEST(TrainLoopTest, EveryEpochVisitsAllSamplesIncludingTailBatch) {
  Parameter w(linalg::Matrix(1, 1, 1.0), "w");
  const int n = 10;
  LoopOptions options;
  options.epochs = 3;
  options.batch_size = 4;  // 10 % 4 != 0: tail batch of 2 must not be dropped
  options.patience = 100;

  std::vector<std::vector<int>> epoch_visits(options.epochs);
  int steps = 0;
  TrainLoop loop(options, {&w});
  TrainStats stats = loop.Run(
      n,
      [&](Tape* tape, IndexSpan idx) {
        const int epoch = steps / 3;  // ceil(10/4) = 3 steps per epoch
        epoch_visits[epoch].insert(epoch_visits[epoch].end(), idx.begin(),
                                   idx.end());
        ++steps;
        return QuadraticLoss(tape, &w);
      },
      [&]() { return 1.0; });

  EXPECT_EQ(stats.epochs_run, options.epochs);
  EXPECT_EQ(stats.steps, static_cast<int64_t>(options.epochs) * 3);
  EXPECT_EQ(stats.samples_seen, static_cast<int64_t>(options.epochs) * n);
  std::vector<int> all(n);
  std::iota(all.begin(), all.end(), 0);
  for (auto& visits : epoch_visits) {
    std::sort(visits.begin(), visits.end());
    EXPECT_EQ(visits, all);  // every sample exactly once per epoch
  }
}

TEST(TrainLoopTest, BatchSizeLargerThanDatasetIsOneFullBatch) {
  Parameter w(linalg::Matrix(1, 1, 1.0), "w");
  LoopOptions options;
  options.epochs = 2;
  options.batch_size = 128;
  options.patience = 100;

  std::vector<size_t> batch_sizes;
  TrainLoop loop(options, {&w});
  TrainStats stats = loop.Run(
      /*n=*/5,
      [&](Tape* tape, IndexSpan idx) {
        batch_sizes.push_back(idx.size());
        return QuadraticLoss(tape, &w);
      },
      [&]() { return 1.0; });

  EXPECT_EQ(stats.steps, 2);
  for (size_t b : batch_sizes) EXPECT_EQ(b, 5u);
}

TEST(TrainLoopTest, ConvergesOnQuadratic) {
  Parameter w(linalg::Matrix(1, 1, 3.0), "w");
  LoopOptions options;
  options.epochs = 400;
  options.batch_size = 8;
  options.patience = 400;
  options.learning_rate = 5e-2;

  TrainLoop loop(options, {&w});
  loop.Run(
      /*n=*/8, [&](Tape* tape, IndexSpan) {
        return QuadraticLoss(tape, &w);
      },
      // Validation tracks the true objective, so the best snapshot is the
      // most converged iterate.
      [&]() { return w.value(0, 0) * w.value(0, 0); });

  EXPECT_NEAR(w.value(0, 0), 0.0, 1e-2);
}

// The assembled-minibatch path must hand the loss the correct rows.
TEST(TrainLoopAssemblyTest, GatheredRowsMatchBatchIndices) {
  const int n = 23, d = 5;
  linalg::Matrix x(n, d);
  for (int r = 0; r < n; ++r)
    for (int c = 0; c < d; ++c) x(r, c) = 100.0 * r + c;
  Parameter w(linalg::Matrix(1, 1, 1.0), "w");
  LoopOptions options;
  options.epochs = 3;
  options.batch_size = 4;
  options.patience = 100;

  TrainLoop loop(options, {&w});
  loop.Run(
      n, {&x},
      [&](Tape* tape, IndexSpan idx,
          const std::vector<linalg::Matrix>& gathered) {
        EXPECT_EQ(gathered.size(), 1u);
        EXPECT_EQ(gathered[0].rows(), idx.size());
        EXPECT_EQ(gathered[0].cols(), d);
        for (int i = 0; i < idx.size(); ++i)
          for (int c = 0; c < d; ++c)
            EXPECT_DOUBLE_EQ(gathered[0](i, c), x(idx[i], c));
        return QuadraticLoss(tape, &w);
      },
      [&]() { return 1.0; });
}

// Threads alive in this process: the `Threads:` line of /proc/self/status
// (-1 where procfs is unavailable).
int LiveThreadCount() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return -1;
}

// A training stage and its kernels run on the caller's thread: Run() must
// not start a thread of its own.
TEST(TrainLoopAssemblyTest, RunCreatesNoThread) {
  const int before = LiveThreadCount();
  if (before < 0) GTEST_SKIP() << "/proc/self/status not available";

  const int n = 40, d = 3;  // 10 batches per epoch
  linalg::Matrix x(n, d, 1.0), y(n, 1, 0.5);
  Parameter w(linalg::Matrix(1, 1, 1.0), "w");
  LoopOptions options;
  options.epochs = 2;
  options.batch_size = 4;
  options.patience = 100;

  TrainLoop loop(options, {&w});
  int steps = 0;
  loop.Run(
      n, {&x, &y},
      [&](Tape* tape, IndexSpan, const std::vector<linalg::Matrix>&) {
        ++steps;
        EXPECT_LE(LiveThreadCount(), before) << "step " << steps;
        return QuadraticLoss(tape, &w);
      },
      [&]() { return 1.0; });
  EXPECT_EQ(steps, 20);
}

TEST(TrainLoopSnapshotTest, SnapshotRestoreRoundTrips) {
  Parameter a(linalg::Matrix(2, 3, 1.5), "a");
  Parameter b(linalg::Matrix(1, 1, -2.0), "b");
  std::vector<Parameter*> params = {&a, &b};
  auto snapshot = SnapshotValues(params);
  a.value.Fill(9.0);
  b.value.Fill(9.0);
  RestoreValues(params, snapshot);
  for (int i = 0; i < 2; ++i)
    for (int j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(a.value(i, j), 1.5);
  EXPECT_DOUBLE_EQ(b.value(0, 0), -2.0);
}

}  // namespace
}  // namespace cerl::train
