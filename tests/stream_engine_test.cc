// Tests for stream::StreamEngine, the multi-stream CERL ingest engine:
// single-stream bit-identity with the serial CerlTrainer loop, per-stream
// determinism under 4-way concurrency, domain validation, and
// result bookkeeping.
#include <gtest/gtest.h>

#include <chrono>
#include <climits>
#include <cmath>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "core/cerl_trainer.h"
#include "data/dataset.h"
#include "stream/stream_engine.h"
#include "util/fault_injection.h"
#include "util/rng.h"

namespace cerl::stream {
namespace {

using core::CerlConfig;
using core::CerlTrainer;
using data::CausalDataset;
using data::DataSplit;
using linalg::Matrix;
using linalg::Vector;

constexpr int kFeatures = 8;

// Toy DGP with a controllable covariate mean shift between domains (same
// family as core_test's): nonlinear outcome surface so continual stages do
// real work.
CausalDataset ShiftedToy(Rng* rng, int n, double shift) {
  CausalDataset d;
  d.x = Matrix(n, kFeatures);
  d.t.resize(n);
  d.y.resize(n);
  d.mu0.resize(n);
  d.mu1.resize(n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < kFeatures; ++j) d.x(i, j) = rng->Normal(shift, 1.0);
    const double tau = 1.0 + std::sin(d.x(i, 0));
    d.mu0[i] = std::sin(d.x(i, 1)) + std::cos(d.x(i, 2));
    d.mu1[i] = d.mu0[i] + tau;
    const double prop =
        1.0 / (1.0 + std::exp(-(0.7 * d.x(i, 0) + 0.7 * d.x(i, 3) -
                                1.4 * shift)));
    d.t[i] = rng->Uniform() < prop ? 1 : 0;
    d.y[i] = (d.t[i] == 1 ? d.mu1[i] : d.mu0[i]) + rng->Normal(0, 0.1);
  }
  return d;
}

std::vector<DataSplit> MakeStream(uint64_t seed, int domains, double shift) {
  Rng rng(seed);
  std::vector<DataSplit> stream;
  for (int d = 0; d < domains; ++d) {
    stream.push_back(
        data::SplitDataset(ShiftedToy(&rng, 400, shift * d), &rng));
  }
  return stream;
}

CerlConfig FastConfig(uint64_t seed) {
  CerlConfig c;
  c.net.rep_hidden = {16};
  c.net.rep_dim = 8;
  c.net.head_hidden = {8};
  c.train.epochs = 15;
  c.train.batch_size = 64;
  c.train.learning_rate = 3e-3;
  c.train.patience = 15;
  c.train.alpha = 0.2;
  c.train.lambda = 1e-5;
  c.train.seed = seed;
  c.memory_capacity = 100;
  return c;
}

struct SerialRun {
  std::vector<Vector> ite_per_domain;  // current model on each test split
  Matrix memory_reps;
  std::vector<double> best_valid;
};

SerialRun RunSerial(const CerlConfig& config,
                    const std::vector<DataSplit>& domains) {
  SerialRun out;
  CerlTrainer trainer(config, kFeatures);
  for (const DataSplit& split : domains) {
    causal::TrainStats stats = trainer.ObserveDomain(split);
    out.best_valid.push_back(stats.best_valid_loss);
  }
  for (const DataSplit& split : domains) {
    out.ite_per_domain.push_back(trainer.PredictIte(split.test.x));
  }
  out.memory_reps = trainer.memory().reps();
  return out;
}

void ExpectBitIdentical(const SerialRun& serial, StreamEngine* engine, int id,
                        const std::vector<DataSplit>& domains) {
  const std::vector<DomainResult>& results = engine->results(id);
  ASSERT_EQ(results.size(), domains.size());
  for (size_t d = 0; d < domains.size(); ++d) {
    EXPECT_EQ(results[d].domain_index, static_cast<int>(d));
    EXPECT_EQ(results[d].stats.best_valid_loss, serial.best_valid[d])
        << "stream " << id << " domain " << d;
  }
  CerlTrainer& trainer = engine->trainer(id);
  for (size_t d = 0; d < domains.size(); ++d) {
    const Vector ite = trainer.PredictIte(domains[d].test.x);
    ASSERT_EQ(ite.size(), serial.ite_per_domain[d].size());
    for (size_t i = 0; i < ite.size(); ++i) {
      ASSERT_EQ(ite[i], serial.ite_per_domain[d][i])
          << "stream " << id << " domain " << d << " unit " << i;
    }
  }
  ASSERT_EQ(trainer.memory().reps().rows(), serial.memory_reps.rows());
  EXPECT_EQ(Matrix::MaxAbsDiff(trainer.memory().reps(), serial.memory_reps),
            0.0);
}

TEST(StreamEngineTest, SingleStreamBitIdenticalToSerialLoop) {
  const CerlConfig config = FastConfig(33);
  const std::vector<DataSplit> domains = MakeStream(10, 3, 1.0);
  const SerialRun serial = RunSerial(config, domains);

  StreamEngineOptions options;
  options.num_workers = 2;
  StreamEngine engine(options);
  const int id = engine.AddStream("solo", config, kFeatures);
  for (const DataSplit& split : domains) engine.PushDomain(id, split);
  engine.Drain();
  ExpectBitIdentical(serial, &engine, id, domains);
}

TEST(StreamEngineTest, FourConcurrentStreamsAreEachDeterministic) {
  // Four tenants with distinct seeds/shifts run concurrently on four
  // workers; each must produce exactly the results of running it alone.
  const int kStreams = 4;
  std::vector<CerlConfig> configs;
  std::vector<std::vector<DataSplit>> domains;
  std::vector<SerialRun> serial;
  for (int s = 0; s < kStreams; ++s) {
    configs.push_back(FastConfig(100 + 13 * s));
    domains.push_back(MakeStream(20 + s, 2, 0.5 + 0.4 * s));
    serial.push_back(RunSerial(configs[s], domains[s]));
  }

  StreamEngineOptions options;
  options.num_workers = 4;
  StreamEngine engine(options);
  std::vector<int> ids;
  for (int s = 0; s < kStreams; ++s) {
    ids.push_back(
        engine.AddStream("tenant-" + std::to_string(s), configs[s],
                         kFeatures));
  }
  // Interleave pushes across streams (arrival order of a real feed).
  for (size_t d = 0; d < 2; ++d) {
    for (int s = 0; s < kStreams; ++s) {
      engine.PushDomain(ids[s], domains[s][d]);
    }
  }
  engine.Drain();
  for (int s = 0; s < kStreams; ++s) {
    ExpectBitIdentical(serial[s], &engine, ids[s], domains[s]);
  }
}

TEST(StreamEngineTest, ValidateDomainRejectsMalformedData) {
  Rng rng(7);
  DataSplit split = data::SplitDataset(ShiftedToy(&rng, 120, 0.0), &rng);
  EXPECT_TRUE(CerlTrainer::ValidateDomain(split, kFeatures).ok());
  // Wrong feature dimension.
  EXPECT_FALSE(CerlTrainer::ValidateDomain(split, kFeatures + 1).ok());
  // Misaligned treatment vector.
  DataSplit bad_t = split;
  bad_t.train.t.pop_back();
  EXPECT_FALSE(CerlTrainer::ValidateDomain(bad_t, kFeatures).ok());
  // Non-binary treatment.
  DataSplit bad_code = split;
  bad_code.train.t[0] = 2;
  EXPECT_FALSE(CerlTrainer::ValidateDomain(bad_code, kFeatures).ok());
  // Non-finite covariate.
  DataSplit bad_x = split;
  bad_x.valid.x(0, 0) = std::nan("");
  EXPECT_FALSE(CerlTrainer::ValidateDomain(bad_x, kFeatures).ok());
  // Non-finite outcome.
  DataSplit bad_y = split;
  bad_y.train.y[3] = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(CerlTrainer::ValidateDomain(bad_y, kFeatures).ok());
  // Ground truth is required on the training split (CheckConsistent's
  // contract)...
  DataSplit bad_mu = split;
  bad_mu.train.mu0.clear();
  bad_mu.train.mu1.clear();
  EXPECT_FALSE(CerlTrainer::ValidateDomain(bad_mu, kFeatures).ok());
  // ...but a production test split without counterfactuals is fine.
  DataSplit no_truth = split;
  no_truth.test.mu0.clear();
  no_truth.test.mu1.clear();
  EXPECT_TRUE(CerlTrainer::ValidateDomain(no_truth, kFeatures).ok());
  // Half-present ground truth is a shape bug, not "absent".
  DataSplit half_mu = split;
  half_mu.test.mu0.clear();
  EXPECT_FALSE(CerlTrainer::ValidateDomain(half_mu, kFeatures).ok());
}

TEST(StreamEngineTest, TestSplitWithoutGroundTruthSkipsMetrics) {
  const CerlConfig config = FastConfig(66);
  std::vector<DataSplit> domains = MakeStream(13, 2, 1.0);
  for (DataSplit& split : domains) {
    split.test.mu0.clear();  // production domain: no counterfactual truth
    split.test.mu1.clear();
  }
  StreamEngineOptions options;
  options.num_workers = 2;
  StreamEngine engine(options);
  const int id = engine.AddStream("no-truth", config, kFeatures);
  for (const DataSplit& split : domains) engine.PushDomain(id, split);
  engine.Drain();
  const std::vector<DomainResult>& results = engine.results(id);
  ASSERT_EQ(results.size(), 2u);
  for (const DomainResult& r : results) {
    EXPECT_GT(r.stats.epochs_run, 0);
    EXPECT_FALSE(r.has_metrics);  // skipped, not aborted
  }
}

// A first domain whose validation split carries no mu0/mu1 passes
// validation, and the baseline stage reads only t and y of that split: it
// trains and publishes a snapshot instead of aborting the process.
TEST(StreamEngineTest, FirstDomainWithoutValidationGroundTruthPublishes) {
  const CerlConfig config = FastConfig(67);
  std::vector<DataSplit> domains = MakeStream(14, 2, 1.0);
  domains[0].valid.mu0.clear();
  domains[0].valid.mu1.clear();
  StreamEngine engine;
  const int id = engine.AddStream("no-valid-truth", config, kFeatures);
  ASSERT_TRUE(engine.PushDomain(id, domains[0]).ok());
  engine.Drain();
  const std::vector<DomainResult>& results = engine.results(id);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].status.ok()) << results[0].status.ToString();
  EXPECT_GT(results[0].stats.epochs_run, 0);
  EXPECT_TRUE(results[0].has_metrics);
  const auto snapshot = engine.effect_snapshot(id);
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->stage, 1);
}

TEST(StreamEngineTest, ResultsCarryMetricsAndMemoryStaysBounded) {
  const CerlConfig config = FastConfig(55);
  const std::vector<DataSplit> domains = MakeStream(12, 2, 1.5);
  StreamEngineOptions options;
  options.num_workers = 2;
  StreamEngine engine(options);
  const int id = engine.AddStream("metrics", config, kFeatures);
  for (const DataSplit& split : domains) engine.PushDomain(id, split);
  engine.Drain();

  const std::vector<DomainResult>& results = engine.results(id);
  ASSERT_EQ(results.size(), 2u);
  for (const DomainResult& r : results) {
    EXPECT_GT(r.stats.epochs_run, 0);
    ASSERT_TRUE(r.has_metrics);
    EXPECT_TRUE(std::isfinite(r.metrics.pehe));
  }
  EXPECT_LE(engine.trainer(id).memory().size(), config.memory_capacity);
  EXPECT_EQ(engine.name(id), "metrics");
}

// --- Typed error plane / admission control / health ----------------------

TEST(StreamEngineTest, DrainOnZeroStreamEngineReturnsImmediately) {
  StreamEngineOptions options;
  options.num_workers = 1;
  StreamEngine engine(options);
  engine.Drain();  // no streams: must not block or crash
  EXPECT_EQ(engine.num_streams(), 0);
  // DrainStream on an id that does not exist is a typed error, not a CHECK.
  EXPECT_EQ(engine.DrainStream(0).code(), StatusCode::kNotFound);
  EXPECT_EQ(engine.DrainStream(-1).code(), StatusCode::kNotFound);
}

TEST(StreamEngineTest, PushToUnknownStreamIsTypedReject) {
  StreamEngineOptions options;
  options.num_workers = 1;
  StreamEngine engine(options);
  Rng rng(3);
  DataSplit split = data::SplitDataset(ShiftedToy(&rng, 80, 0.0), &rng);
  EXPECT_EQ(engine.PushDomain(5, split).code(), StatusCode::kNotFound);
}

TEST(StreamEngineTest, ConcurrentDrainStreamFromTwoThreads) {
  const CerlConfig config = FastConfig(71);
  const std::vector<DataSplit> domains = MakeStream(17, 2, 1.0);
  StreamEngineOptions options;
  options.num_workers = 2;
  StreamEngine engine(options);
  const int id = engine.AddStream("dual-drain", config, kFeatures);
  for (const DataSplit& split : domains) {
    ASSERT_TRUE(engine.PushDomain(id, split).ok());
  }
  Status a, b;
  std::thread t1([&] { a = engine.DrainStream(id); });
  std::thread t2([&] { b = engine.DrainStream(id); });
  t1.join();
  t2.join();
  EXPECT_TRUE(a.ok());
  EXPECT_TRUE(b.ok());
  EXPECT_EQ(engine.results(id).size(), domains.size());
}

TEST(StreamEngineTest, BoundedQueueShedsLoadWithResourceExhausted) {
  const CerlConfig config = FastConfig(72);
  StreamEngineOptions options;
  options.num_workers = 1;
  options.max_queued_domains = 2;
  StreamEngine engine(options);
  const int id = engine.AddStream("bounded", config, kFeatures);
  Rng rng(19);
  // One domain dispatches immediately; two sit in the queue; the fourth
  // (and later) pushes must shed with the typed reject until the queue
  // drains. Pushing under a 1-worker engine keeps the first domain training
  // long enough for the bound to be observable deterministically: dispatch
  // happens on push, so after 3 pushes the queue holds exactly 2.
  std::vector<DataSplit> domains;
  for (int i = 0; i < 4; ++i) {
    domains.push_back(data::SplitDataset(ShiftedToy(&rng, 200, 0.3 * i), &rng));
  }
  ASSERT_TRUE(engine.PushDomain(id, domains[0]).ok());  // -> in flight
  ASSERT_TRUE(engine.PushDomain(id, domains[1]).ok());  // queued (1/2)
  ASSERT_TRUE(engine.PushDomain(id, domains[2]).ok());  // queued (2/2)
  Status shed = engine.PushDomain(id, domains[3]);
  EXPECT_EQ(shed.code(), StatusCode::kResourceExhausted);
  engine.Drain();
  // The shed push left no trace: exactly the three admitted domains ran.
  EXPECT_EQ(engine.results(id).size(), 3u);
  for (const DomainResult& r : engine.results(id)) {
    EXPECT_TRUE(r.status.ok());
  }
  // Queue drained: admission works again.
  EXPECT_TRUE(engine.PushDomain(id, domains[3]).ok());
  engine.Drain();
  EXPECT_EQ(engine.results(id).size(), 4u);
}

TEST(StreamEngineTest, MalformedDomainIsDroppedNotAborted) {
  const CerlConfig config = FastConfig(73);
  StreamEngineOptions options;
  options.num_workers = 2;
  StreamEngine engine(options);
  const int id = engine.AddStream("bad-data", config, kFeatures);
  Rng rng(23);
  DataSplit good = data::SplitDataset(ShiftedToy(&rng, 200, 0.0), &rng);
  DataSplit bad = good;
  bad.train.x(0, 0) = std::numeric_limits<double>::quiet_NaN();
  ASSERT_TRUE(engine.PushDomain(id, bad).ok());   // admitted...
  ASSERT_TRUE(engine.PushDomain(id, good).ok());
  engine.Drain();
  // ...but dropped by the pipeline with the validation error; the stream
  // then served the good domain normally.
  const std::vector<DomainResult>& results = engine.results(id);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(results[0].attempts, 1);  // data errors are never retried
  EXPECT_TRUE(results[1].status.ok());
  EXPECT_GT(results[1].stats.epochs_run, 0);
  EXPECT_EQ(engine.health(id), StreamHealth::kHealthy);  // recovered
  EXPECT_EQ(engine.failed_domains(id), 1);
  EXPECT_EQ(engine.consecutive_failures(id), 0);
}

TEST(StreamEngineTest, RepeatedBadDomainsQuarantineAndPushGetsTypedReject) {
  const CerlConfig config = FastConfig(74);
  StreamEngineOptions options;
  options.num_workers = 2;
  options.quarantine_after_failures = 2;
  StreamEngine engine(options);
  const int bad_id = engine.AddStream("poisoned", config, kFeatures);
  const int good_id = engine.AddStream("bystander", config, kFeatures);
  Rng rng(29);
  DataSplit good = data::SplitDataset(ShiftedToy(&rng, 200, 0.0), &rng);
  DataSplit bad = good;
  bad.train.x(0, 0) = std::numeric_limits<double>::quiet_NaN();

  ASSERT_TRUE(engine.PushDomain(bad_id, bad).ok());
  ASSERT_TRUE(engine.PushDomain(bad_id, bad).ok());  // second strike
  ASSERT_TRUE(engine.PushDomain(good_id, good).ok());
  engine.Drain();

  EXPECT_EQ(engine.health(bad_id), StreamHealth::kQuarantined);
  EXPECT_EQ(engine.consecutive_failures(bad_id), 2);
  // A quarantined stream sheds new pushes with the typed reject...
  Status rejected = engine.PushDomain(bad_id, good);
  EXPECT_EQ(rejected.code(), StatusCode::kUnavailable);
  // ...while other streams keep serving.
  EXPECT_EQ(engine.health(good_id), StreamHealth::kHealthy);
  ASSERT_EQ(engine.results(good_id).size(), 1u);
  EXPECT_TRUE(engine.results(good_id)[0].status.ok());
}

// The retry backoff clamps the configured base BEFORE doubling it: with the
// largest int base, every one of the 3 retries waits the 100 ms cap. An
// unclamped shift would go negative at retry 2 (no wait at all) and
// overflow at retry 3, which UBSan traps.
TEST(StreamEngineTest, RetryBackoffClampsHugeBase) {
  StreamEngineOptions options;
  options.num_workers = 2;
  options.retry_backoff_ms = INT_MAX;
  options.max_domain_retries = 3;
  StreamEngine engine(options);
  const int id = engine.AddStream("huge-backoff", FastConfig(75), kFeatures);
  Rng rng(31);
  const DataSplit split = data::SplitDataset(ShiftedToy(&rng, 200, 0.0), &rng);

  FaultInjector::Global().Arm(FaultPoint::kStageThrow, "huge-backoff",
                              /*probability=*/1.0, /*max_fires=*/0,
                              /*seed=*/1);
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(engine.PushDomain(id, split).ok());
  engine.Drain();
  const double elapsed_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - start)
                                .count();
  FaultInjector::Global().Reset();

  const std::vector<DomainResult>& results = engine.results(id);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status.code(), StatusCode::kInternal);
  EXPECT_EQ(results[0].attempts, 4);  // 1 + max_domain_retries
  EXPECT_GE(elapsed_ms, 300.0);       // 3 backoffs at the 100 ms cap
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

// Every kernel of a stage runs inline on the stage's stream worker, so the
// engine's workers are the only threads training starts. The domain is large
// enough (1000 units, {32} net) that herding, gathers and the training
// kernels all see their biggest inputs. ctest also runs this test alone in a
// fresh process (stream_engine_threads_test), where no earlier test has
// started a thread. Runtimes that start a helper thread of their own on the
// process's first pthread_create (ThreadSanitizer does) are settled first by
// creating and joining one thread, so the baseline already counts it.
TEST(StreamEngineThreadTest, TrainingStartsOnlyTheStreamWorkers) {
  std::thread([] {}).join();
  const int before = LiveThreadCount();
  if (before < 0) GTEST_SKIP() << "/proc/self/status not available";

  CerlConfig config = FastConfig(91);
  config.net.rep_hidden = {32};
  config.train.epochs = 2;
  Rng rng(92);
  const DataSplit split =
      data::SplitDataset(ShiftedToy(&rng, 1000, 0.0), &rng);

  StreamEngineOptions options;
  options.num_workers = 2;
  StreamEngine engine(options);
  const int id = engine.AddStream("threads", config, kFeatures);
  ASSERT_TRUE(engine.PushDomain(id, split).ok());
  engine.Drain();
  ASSERT_EQ(engine.results(id).size(), 1u);
  EXPECT_TRUE(engine.results(id)[0].status.ok());
  EXPECT_EQ(LiveThreadCount(), before + 2);
}

}  // namespace
}  // namespace cerl::stream
