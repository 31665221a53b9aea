// Tests for StreamEngine::SaveSnapshot / LoadSnapshot: drain-consistent
// multi-stream checkpoints taken UNDER LOAD (domains still queued), bitwise
// continuation after restore (the queued backlog replayed from the WAL by
// Recover), fresh-engine preconditions, and all-or-nothing restore on bad
// input.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
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
        data::SplitDataset(ShiftedToy(&rng, 300, shift * d), &rng));
  }
  return stream;
}

CerlConfig FastConfig(uint64_t seed) {
  CerlConfig c;
  c.net.rep_hidden = {16};
  c.net.rep_dim = 8;
  c.net.head_hidden = {8};
  c.train.epochs = 12;
  c.train.batch_size = 64;
  c.train.learning_rate = 3e-3;
  c.train.patience = 12;
  c.train.alpha = 0.2;
  c.train.lambda = 1e-5;
  c.train.seed = seed;
  c.memory_capacity = 80;
  return c;
}

void ExpectTrainersBitIdentical(CerlTrainer* a, CerlTrainer* b,
                                const Matrix& probe, const std::string& tag) {
  ASSERT_EQ(a->stages_seen(), b->stages_seen()) << tag;
  const Vector ia = a->PredictIte(probe);
  const Vector ib = b->PredictIte(probe);
  ASSERT_EQ(ia.size(), ib.size()) << tag;
  for (size_t i = 0; i < ia.size(); ++i) {
    ASSERT_EQ(ia[i], ib[i]) << tag << " unit " << i;
  }
  ASSERT_EQ(a->memory().size(), b->memory().size()) << tag;
  EXPECT_EQ(Matrix::MaxAbsDiff(a->memory().reps(), b->memory().reps()), 0.0)
      << tag;
  EXPECT_EQ(a->memory().y(), b->memory().y()) << tag;
  EXPECT_EQ(a->memory().t(), b->memory().t()) << tag;
}

// The acceptance scenario: a 4-stream engine with a WAL is snapshotted
// WHILE domains are still queued, recovered into a fresh engine (snapshot
// plus the WAL records of the queued domains), and the continuation — WAL
// replay plus one extra pushed domain per stream — must be bitwise
// identical to the uninterrupted run.
TEST(EngineCheckpointTest, FourStreamSnapshotUnderLoadContinuesBitIdentical) {
  const int kStreams = 4;
  const int kSnapshotDomains = 4;  // pushed before the snapshot
  const int kExtraDomains = 1;     // pushed after the restore
  std::vector<CerlConfig> configs;
  std::vector<std::vector<DataSplit>> domains;
  for (int s = 0; s < kStreams; ++s) {
    configs.push_back(FastConfig(900 + 31 * s));
    domains.push_back(MakeStream(40 + s, kSnapshotDomains + kExtraDomains,
                                 0.4 + 0.3 * s));
  }

  // Uninterrupted reference: all domains through one engine.
  StreamEngineOptions options;
  options.num_workers = 4;
  StreamEngine reference(options);
  std::vector<int> ref_ids;
  for (int s = 0; s < kStreams; ++s) {
    ref_ids.push_back(reference.AddStream("tenant-" + std::to_string(s),
                                          configs[s], kFeatures));
    for (const DataSplit& split : domains[s]) {
      reference.PushDomain(ref_ids[s], split);
    }
  }
  reference.Drain();

  // Snapshotted run: push the first kSnapshotDomains of every stream, then
  // snapshot immediately — training a domain takes far longer than reaching
  // the snapshot fence, so most of the queue is still queued there and
  // survives only as WAL records.
  const std::string path = ::testing::TempDir() + "/engine_underload.snap";
  StreamEngineOptions durable = options;
  durable.wal_path = ::testing::TempDir() + "/engine_underload.wal";
  std::remove(durable.wal_path.c_str());
  StreamEngine::SnapshotInfo info;
  {
    StreamEngine original(durable);
    ASSERT_TRUE(original.OpenStorage().ok());
    std::vector<int> ids;
    for (int s = 0; s < kStreams; ++s) {
      ids.push_back(original.AddStream("tenant-" + std::to_string(s),
                                       configs[s], kFeatures));
      for (int d = 0; d < kSnapshotDomains; ++d) {
        original.PushDomain(ids[s], domains[s][d]);
      }
    }
    ASSERT_TRUE(original.SaveSnapshot(path, &info).ok());
    // The WAL-replay path must be exercised: work must still have been
    // queued at the fence.
    ASSERT_GT(info.queued_domains, 0);
    EXPECT_EQ(info.num_streams, kStreams);
    EXPECT_EQ(info.completed_domains + info.queued_domains,
              kStreams * kSnapshotDomains);
    // The original engine keeps serving after the snapshot.
    original.Drain();
  }

  // Recover into a fresh engine ("new process"), let the queued domains
  // replay from the WAL, push the remaining domains, and compare against the
  // reference.
  StreamEngine restored(durable);
  ASSERT_TRUE(restored.Recover(path).ok());
  ASSERT_EQ(restored.num_streams(), kStreams);
  for (int s = 0; s < kStreams; ++s) {
    EXPECT_EQ(restored.name(s), "tenant-" + std::to_string(s));
    for (int d = kSnapshotDomains; d < kSnapshotDomains + kExtraDomains;
         ++d) {
      restored.PushDomain(s, domains[s][d]);
    }
  }
  restored.Drain();
  for (int s = 0; s < kStreams; ++s) {
    ExpectTrainersBitIdentical(&reference.trainer(ref_ids[s]),
                               &restored.trainer(s), domains[s][0].test.x,
                               "stream " + std::to_string(s));
    // Domain indices continue across the restart: the replayed and newly
    // pushed domains carry their original positions.
    const std::vector<DomainResult>& results = restored.results(s);
    ASSERT_FALSE(results.empty());
    EXPECT_EQ(results.back().domain_index,
              kSnapshotDomains + kExtraDomains - 1);
  }
}

TEST(EngineCheckpointTest, DrainedSnapshotRoundTripsAndKeepsServing) {
  const CerlConfig config = FastConfig(77);
  const std::vector<DataSplit> domains = MakeStream(50, 3, 0.8);
  StreamEngineOptions options;
  options.num_workers = 2;

  StreamEngine original(options);
  const int id = original.AddStream("drained", config, kFeatures);
  original.PushDomain(id, domains[0]);
  original.PushDomain(id, domains[1]);
  original.Drain();

  const std::string path = ::testing::TempDir() + "/engine_drained.snap";
  StreamEngine::SnapshotInfo info;
  ASSERT_TRUE(original.SaveSnapshot(path, &info).ok());
  EXPECT_EQ(info.queued_domains, 0);
  EXPECT_EQ(info.completed_domains, 2);

  StreamEngine restored(options);
  ASSERT_TRUE(restored.LoadSnapshot(path).ok());
  restored.Drain();  // nothing was queued: immediately idle
  ExpectTrainersBitIdentical(&original.trainer(id), &restored.trainer(0),
                             domains[0].test.x, "drained");

  // Both engines absorb the next domain identically.
  original.PushDomain(id, domains[2]);
  restored.PushDomain(0, domains[2]);
  original.Drain();
  restored.Drain();
  ExpectTrainersBitIdentical(&original.trainer(id), &restored.trainer(0),
                             domains[0].test.x, "drained+1");
}

// Without a WAL the snapshot is the trained state alone: whatever was still
// queued at the fence is not in the file, the restored engine is idle, and
// the stream resumes at its completed-domain count.
TEST(EngineCheckpointTest, SnapshotWithoutWalHoldsTrainedStateOnly) {
  const CerlConfig config = FastConfig(66);
  const std::vector<DataSplit> domains = MakeStream(53, 4, 0.6);
  StreamEngineOptions options;
  options.num_workers = 2;
  StreamEngine original(options);
  const int id = original.AddStream("no-wal", config, kFeatures);
  for (const DataSplit& split : domains) {
    ASSERT_TRUE(original.PushDomain(id, split).ok());
  }
  const std::string path = ::testing::TempDir() + "/engine_no_wal.snap";
  StreamEngine::SnapshotInfo info;
  ASSERT_TRUE(original.SaveSnapshot(path, &info).ok());
  EXPECT_EQ(info.completed_domains + info.queued_domains, 4);
  original.Drain();

  StreamEngine restored(options);
  ASSERT_TRUE(restored.LoadSnapshot(path).ok());
  restored.Drain();
  EXPECT_TRUE(restored.results(0).empty());  // nothing queued came back
  EXPECT_EQ(restored.trainer(0).stages_seen(), info.completed_domains);
  ASSERT_TRUE(restored.PushDomain(0, domains[3]).ok());
  restored.Drain();
  ASSERT_EQ(restored.results(0).size(), 1u);
  EXPECT_EQ(restored.results(0)[0].domain_index, info.completed_domains);
}

TEST(EngineCheckpointTest, SnapshotOfEngineWithUntrainedStream) {
  // A registered stream with zero observed domains has no trainer blob yet;
  // the snapshot must carry it (name + config) and restore it functional.
  const CerlConfig config = FastConfig(88);
  StreamEngineOptions options;
  options.num_workers = 2;
  StreamEngine original(options);
  original.AddStream("empty", config, kFeatures);
  const std::string path = ::testing::TempDir() + "/engine_empty.snap";
  ASSERT_TRUE(original.SaveSnapshot(path).ok());

  StreamEngine restored(options);
  ASSERT_TRUE(restored.LoadSnapshot(path).ok());
  ASSERT_EQ(restored.num_streams(), 1);
  EXPECT_EQ(restored.name(0), "empty");
  EXPECT_EQ(restored.trainer(0).stages_seen(), 0);

  const std::vector<DataSplit> domains = MakeStream(51, 1, 0.0);
  restored.PushDomain(0, domains[0]);
  restored.Drain();
  EXPECT_EQ(restored.trainer(0).stages_seen(), 1);
}

TEST(EngineCheckpointTest, LoadRequiresFreshEngine) {
  const CerlConfig config = FastConfig(99);
  StreamEngineOptions options;
  options.num_workers = 2;
  StreamEngine original(options);
  original.AddStream("a", config, kFeatures);
  const std::string path = ::testing::TempDir() + "/engine_fresh.snap";
  ASSERT_TRUE(original.SaveSnapshot(path).ok());

  StreamEngine busy(options);
  busy.AddStream("existing", config, kFeatures);
  Status s = busy.LoadSnapshot(path);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(busy.num_streams(), 1);  // untouched
}

TEST(EngineCheckpointTest, MissingSnapshotFileIsCleanError) {
  StreamEngineOptions options;
  options.num_workers = 2;
  StreamEngine engine(options);
  Status s = engine.LoadSnapshot("/nonexistent/engine.snap");
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  EXPECT_EQ(engine.num_streams(), 0);
}

TEST(EngineCheckpointTest, HealthStateRoundTripsThroughSnapshot) {
  // A quarantined stream must restore quarantined (still rejecting pushes),
  // and its failure counters must survive the snapshot round trip.
  const CerlConfig config = FastConfig(121);
  StreamEngineOptions options;
  options.num_workers = 2;
  options.quarantine_after_failures = 2;
  StreamEngine original(options);
  const int sick = original.AddStream("sick", config, kFeatures);
  const int fine = original.AddStream("fine", config, kFeatures);

  Rng rng(7);
  DataSplit good = data::SplitDataset(ShiftedToy(&rng, 200, 0.0), &rng);
  DataSplit bad = good;
  bad.train.x(0, 0) = std::numeric_limits<double>::quiet_NaN();
  ASSERT_TRUE(original.PushDomain(sick, bad).ok());
  ASSERT_TRUE(original.PushDomain(sick, bad).ok());
  ASSERT_TRUE(original.PushDomain(fine, good).ok());
  original.Drain();
  ASSERT_EQ(original.health(sick), StreamHealth::kQuarantined);
  ASSERT_EQ(original.health(fine), StreamHealth::kHealthy);

  const std::string path = ::testing::TempDir() + "/engine_health.snap";
  ASSERT_TRUE(original.SaveSnapshot(path).ok());

  StreamEngine restored(options);
  ASSERT_TRUE(restored.LoadSnapshot(path).ok());
  restored.Drain();
  EXPECT_EQ(restored.health(0), StreamHealth::kQuarantined);
  EXPECT_EQ(restored.consecutive_failures(0), 2);
  EXPECT_EQ(restored.failed_domains(0), 2);
  EXPECT_EQ(restored.health(1), StreamHealth::kHealthy);
  EXPECT_EQ(restored.failed_domains(1), 0);
  // Quarantine is enforced, not just reported, after restore.
  EXPECT_EQ(restored.PushDomain(0, good).code(), StatusCode::kUnavailable);
  // The healthy stream keeps serving.
  ASSERT_TRUE(restored.PushDomain(1, good).ok());
  restored.Drain();
  EXPECT_EQ(restored.results(1).size(), 1u);
}

TEST(EngineCheckpointTest, SaveSnapshotRetriesTransientIoFailure) {
  const CerlConfig config = FastConfig(131);
  StreamEngineOptions options;
  options.num_workers = 2;
  StreamEngine engine(options);
  engine.AddStream("retry", config, kFeatures);

  // Two injected write failures, then the third attempt lands (the engine
  // retries a failed write 3 times).
  FaultInjector::Global().Arm(FaultPoint::kIoWrite, /*scope=*/"",
                              /*probability=*/1.0, /*max_fires=*/2,
                              /*seed=*/1);
  const std::string path = ::testing::TempDir() + "/engine_retry.snap";
  Status saved = engine.SaveSnapshot(path);
  const int fires = FaultInjector::Global().fires(FaultPoint::kIoWrite);
  FaultInjector::Global().Reset();
  ASSERT_TRUE(saved.ok()) << saved.ToString();
  EXPECT_EQ(fires, 2);  // both injected failures were consumed by retries

  StreamEngine restored(options);
  EXPECT_TRUE(restored.LoadSnapshot(path).ok());
  EXPECT_EQ(restored.num_streams(), 1);

  // With a budget exceeding the retry allowance the save surfaces IoError.
  FaultInjector::Global().Arm(FaultPoint::kIoWrite, "", 1.0,
                              /*max_fires=*/0, /*seed=*/1);
  Status exhausted = engine.SaveSnapshot(path);
  FaultInjector::Global().Reset();
  EXPECT_EQ(exhausted.code(), StatusCode::kIoError);
}

// CERLENG5 blob reuse: a stream whose trainer is unchanged since its last
// blob capture is embedded from the cache (reused), not re-serialized
// (dirty), and the cached blob restores bit-identically to the live trainer.
TEST(EngineCheckpointTest, SnapshotInfoCountsReusedAndDirtyBlobs) {
  const int kStreams = 3;
  StreamEngineOptions options;
  options.num_workers = 2;
  StreamEngine engine(options);
  std::vector<std::vector<DataSplit>> domains;
  for (int s = 0; s < kStreams; ++s) {
    domains.push_back(MakeStream(60 + s, 2, 0.5));
    engine.AddStream("tenant-" + std::to_string(s), FastConfig(700 + 13 * s),
                     kFeatures);
  }
  engine.AddStream("untrained", FastConfig(999), kFeatures);
  for (int s = 0; s < kStreams; ++s) {
    ASSERT_TRUE(engine.PushDomain(s, domains[s][0]).ok());
  }
  engine.Drain();

  // (a) The finish task captured every trainer's blob at its domain
  // boundary, so the fence re-serializes nothing — and the reused blobs ARE
  // the live trainers.
  const std::string reuse_path = ::testing::TempDir() + "/engine_reuse.snap";
  StreamEngine::SnapshotInfo info;
  ASSERT_TRUE(engine.SaveSnapshot(reuse_path, &info).ok());
  EXPECT_EQ(info.num_streams, kStreams + 1);
  EXPECT_EQ(info.reused_blobs, kStreams);
  EXPECT_EQ(info.dirty_streams, 0);
  EXPECT_GE(info.serialize_ms, 0.0);
  {
    StreamEngine restored(options);
    ASSERT_TRUE(restored.LoadSnapshot(reuse_path).ok());
    for (int s = 0; s < kStreams; ++s) {
      ExpectTrainersBitIdentical(&restored.trainer(s), &engine.trainer(s),
                                 domains[s][0].test.x,
                                 "reused stream " + std::to_string(s));
    }
  }

  // (b) Advancing a drained stream through trainer(id) outdates its cached
  // blob: the fence falls back to a fresh serialize for exactly that stream,
  // and the fresh blob restores bit-identically too.
  engine.trainer(1).ObserveDomain(domains[1][1]);
  const std::string dirty_path = ::testing::TempDir() + "/engine_dirty.snap";
  ASSERT_TRUE(engine.SaveSnapshot(dirty_path, &info).ok());
  EXPECT_EQ(info.dirty_streams, 1);
  EXPECT_EQ(info.reused_blobs, kStreams - 1);
  StreamEngine restored(options);
  ASSERT_TRUE(restored.LoadSnapshot(dirty_path).ok());
  EXPECT_EQ(restored.trainer(1).stages_seen(), 2);
  for (int s = 0; s < kStreams; ++s) {
    ExpectTrainersBitIdentical(&restored.trainer(s), &engine.trainer(s),
                               domains[s][1].test.x,
                               "stream " + std::to_string(s));
  }
}

TEST(EngineCheckpointTest, SnapshotWriteIsAtomic) {
  // A snapshot over an existing file must never leave a torn file: the temp
  // is renamed into place, so the destination always parses.
  const CerlConfig config = FastConfig(111);
  const std::vector<DataSplit> domains = MakeStream(52, 1, 0.0);
  StreamEngineOptions options;
  options.num_workers = 2;
  StreamEngine engine(options);
  const int id = engine.AddStream("atomic", config, kFeatures);
  engine.PushDomain(id, domains[0]);
  engine.Drain();

  const std::string path = ::testing::TempDir() + "/engine_atomic.snap";
  {
    std::ofstream prev(path, std::ios::binary);
    prev << "previous generation checkpoint";
  }
  ASSERT_TRUE(engine.SaveSnapshot(path).ok());
  std::ifstream tmp(path + ".tmp", std::ios::binary);
  EXPECT_FALSE(tmp.good());  // no temp file left behind

  StreamEngine restored(options);
  EXPECT_TRUE(restored.LoadSnapshot(path).ok());
  EXPECT_EQ(restored.num_streams(), 1);
}

}  // namespace
}  // namespace cerl::stream
