// Concurrency soak for the effect-query serving plane, built to run under
// TSan (the tsan-stream CI job): four reader threads hammer
// QueryEffectBatch / QueryEffect while the engine ingests domains with
// deterministic faults injected into one stream (rollback + retry on the
// write path). Asserts the lock-free read contract: every answered query is
// finite and internally consistent, observed snapshot versions are
// monotone per reader, any newly observed snapshot passes its fingerprint
// recomputation (no torn publish), and the bystander stream's training is
// bitwise unaffected by the concurrent read load. Also pins snapshot
// reclamation: a query's version switch never frees a snapshot (the
// publishing worker does), and retired snapshots outlive only the slots
// that pin them. Runs under ASan too, where a use-after-free or a leaked
// snapshot at engine teardown would show.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/cerl_trainer.h"
#include "data/dataset.h"
#include "serve/effect_snapshot.h"
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
constexpr int kReaders = 4;

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
  std::vector<DataSplit> out;
  for (int d = 0; d < domains; ++d) {
    out.push_back(data::SplitDataset(ShiftedToy(&rng, 200, shift * d), &rng));
  }
  return out;
}

CerlConfig SmallConfig(uint64_t seed) {
  CerlConfig c;
  c.net.rep_hidden = {16};
  c.net.rep_dim = 8;
  c.net.head_hidden = {8};
  c.train.epochs = 8;
  c.train.batch_size = 64;
  c.train.learning_rate = 3e-3;
  c.train.patience = 8;
  c.train.alpha = 0.2;
  c.train.lambda = 1e-5;
  c.train.seed = seed;
  c.memory_capacity = 80;
  return c;
}

TEST(ServeConcurrencyTest, ReadersNeverSeeTornStateDuringFaultedIngest) {
  FaultInjector::Global().Reset();
  const CerlConfig bystander_config = SmallConfig(71);
  const CerlConfig faulty_config = SmallConfig(72);
  const std::vector<DataSplit> bystander_domains = MakeStream(73, 3, 0.6);
  const std::vector<DataSplit> faulty_domains = MakeStream(74, 3, 0.6);

  // Reference: the bystander trained with no engine, no faults, no readers.
  Vector expected;
  {
    CerlTrainer solo(bystander_config, kFeatures);
    for (const DataSplit& split : bystander_domains) solo.ObserveDomain(split);
    expected = solo.PredictIte(bystander_domains.back().test.x);
  }

  StreamEngineOptions options;
  options.num_workers = 2;
  StreamEngine engine(options);
  const int bystander =
      engine.AddStream("bystander", bystander_config, kFeatures);
  const int faulty = engine.AddStream("faulty", faulty_config, kFeatures);
  std::vector<QueryContext*> contexts;
  for (int r = 0; r < kReaders; ++r) {
    contexts.push_back(engine.CreateQueryContext());
  }

  // Transient stage faults on the faulty stream only: each fires once, the
  // rollback replays the domain bit-identically, training completes.
  FaultInjector::Global().Arm(FaultPoint::kStageThrow, "faulty",
                              /*probability=*/1.0, /*max_fires=*/2,
                              /*seed=*/9);

  // A fixed query batch reused by every reader (reads only).
  Rng qrng(75);
  const Matrix qx = ShiftedToy(&qrng, 32, 0.3).x;

  std::atomic<bool> stop{false};
  std::atomic<int64_t> answered{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      QueryContext* ctx = contexts[r];
      uint64_t last_version[2] = {0, 0};
      Vector ite;
      double one = 0.0;
      while (!stop.load(std::memory_order_relaxed)) {
        for (int id : {bystander, faulty}) {
          EffectQueryMeta meta;
          const Status s =
              engine.QueryEffectBatch(ctx, id, qx, &ite, &meta);
          if (!s.ok()) {
            // Only the not-yet-published window may reject.
            EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
            continue;
          }
          answered.fetch_add(1, std::memory_order_relaxed);
          for (double v : ite) EXPECT_TRUE(std::isfinite(v));
          EXPECT_GE(meta.snapshot_version, last_version[id]);
          if (meta.snapshot_version != last_version[id]) {
            // New snapshot observed: its payload must hash to the
            // fingerprint computed at publish — a torn or half-published
            // snapshot cannot pass.
            auto snap = engine.effect_snapshot(id);
            ASSERT_NE(snap, nullptr);
            EXPECT_EQ(serve::SnapshotFingerprint(*snap), snap->fingerprint);
            last_version[id] = meta.snapshot_version;
          }
          EXPECT_TRUE(
              engine.QueryEffect(ctx, id, qx.row(0), kFeatures, &one).ok());
          EXPECT_TRUE(std::isfinite(one));
        }
      }
    });
  }

  // Interleaved pushes while the readers are already running.
  for (size_t d = 0; d < 3; ++d) {
    ASSERT_TRUE(engine.PushDomain(bystander, bystander_domains[d]).ok());
    ASSERT_TRUE(engine.PushDomain(faulty, faulty_domains[d]).ok());
  }
  engine.Drain();
  // One more beat of pure read load against the final snapshots.
  while (answered.load(std::memory_order_relaxed) < kReaders * 8) {
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();

  // Both streams trained all three domains (the faulty one via retries).
  ASSERT_EQ(engine.results(bystander).size(), 3u);
  ASSERT_EQ(engine.results(faulty).size(), 3u);
  for (const DomainResult& r : engine.results(faulty)) {
    EXPECT_TRUE(r.status.ok());
  }
  EXPECT_EQ(engine.query_stats(bystander).snapshot_version, 3u);
  EXPECT_EQ(engine.query_stats(faulty).snapshot_version, 3u);
  EXPECT_GT(engine.query_stats(bystander).queries, 0);

  // The read side never perturbs training: bystander is bitwise identical
  // to its solo run.
  const Vector got =
      engine.trainer(bystander).PredictIte(bystander_domains.back().test.x);
  ASSERT_EQ(got.size(), expected.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], expected[i]) << "unit " << i;
  }
  FaultInjector::Global().Reset();
}

// A version switch in QueryEffect drops the context's reference to the
// replaced snapshot; the publisher, not the query thread, frees it.
TEST(ServeConcurrencyTest, QuerySwitchNeverFreesASnapshot) {
  const std::vector<DataSplit> domains = MakeStream(81, 3, 0.5);
  StreamEngineOptions options;
  options.num_workers = 1;
  StreamEngine engine(options);
  const int id = engine.AddStream("tenant", SmallConfig(82), kFeatures);
  QueryContext* ctx = engine.CreateQueryContext();
  const double* row = domains[0].test.x.row(0);
  double ite = 0.0;

  ASSERT_TRUE(engine.PushDomain(id, domains[0]).ok());
  engine.Drain();
  const std::weak_ptr<const serve::EffectSnapshot> v1 =
      engine.effect_snapshot(id);
  ASSERT_FALSE(v1.expired());
  ASSERT_TRUE(engine.QueryEffect(ctx, id, row, kFeatures, &ite).ok());

  ASSERT_TRUE(engine.PushDomain(id, domains[1]).ok());
  engine.Drain();
  EffectQueryMeta meta;
  ASSERT_TRUE(engine.QueryEffect(ctx, id, row, kFeatures, &ite, &meta).ok());
  EXPECT_EQ(meta.snapshot_version, 2u);
  // The switch dropped the slot's reference, yet v1 is still alive: the
  // publisher's retired list holds the last one.
  EXPECT_FALSE(v1.expired());

  // The next publish finds v1 unreferenced and frees it on the worker.
  ASSERT_TRUE(engine.PushDomain(id, domains[2]).ok());
  engine.Drain();
  EXPECT_TRUE(v1.expired());
}

// Retired snapshots live exactly as long as some slot pins them: three
// contexts pin v1, v2, v3; none expires while pinned. Once every context
// moved on to v4, the next publish frees v1..v3 and keeps only v4, which
// the slots still hold.
TEST(ServeConcurrencyTest, RetiredSnapshotsAreBoundedByPinningSlots) {
  const std::vector<DataSplit> domains = MakeStream(83, 5, 0.5);
  StreamEngineOptions options;
  options.num_workers = 1;
  StreamEngine engine(options);
  const int id = engine.AddStream("tenant", SmallConfig(84), kFeatures);
  std::vector<QueryContext*> contexts;
  for (int c = 0; c < 3; ++c) contexts.push_back(engine.CreateQueryContext());
  const double* row = domains[0].test.x.row(0);
  double ite = 0.0;
  EffectQueryMeta meta;

  std::vector<std::weak_ptr<const serve::EffectSnapshot>> versions;
  for (int c = 0; c < 4; ++c) {
    ASSERT_TRUE(engine.PushDomain(id, domains[c]).ok());
    engine.Drain();
    versions.push_back(engine.effect_snapshot(id));
    if (c == 3) break;
    ASSERT_TRUE(
        engine.QueryEffect(contexts[c], id, row, kFeatures, &ite, &meta).ok());
    EXPECT_EQ(meta.snapshot_version, static_cast<uint64_t>(c + 1));
    // Every pinned version survives the publishes that replaced it.
    for (int p = 0; p <= c; ++p) {
      EXPECT_FALSE(versions[p].expired())
          << "v" << p + 1 << " after publishing v" << c + 1;
    }
  }

  // Every context switches to v4, dropping its pin — but the query threads
  // free nothing; the retired list still holds v1..v3.
  for (QueryContext* ctx : contexts) {
    ASSERT_TRUE(engine.QueryEffect(ctx, id, row, kFeatures, &ite, &meta).ok());
    EXPECT_EQ(meta.snapshot_version, 4u);
  }
  for (int p = 0; p < 3; ++p) EXPECT_FALSE(versions[p].expired());

  // One more publish reclaims every version older than the slots' v4.
  ASSERT_TRUE(engine.PushDomain(id, domains[4]).ok());
  engine.Drain();
  EXPECT_EQ(engine.query_stats(id).snapshot_version, 5u);
  for (int p = 0; p < 3; ++p) {
    EXPECT_TRUE(versions[p].expired()) << "v" << p + 1 << " still alive";
  }
  EXPECT_FALSE(versions[3].expired()) << "v4 is still pinned by the slots";
}

}  // namespace
}  // namespace cerl::stream
