// Concurrency soak for the effect-query serving plane, built to run under
// TSan (the tsan-stream CI job): four reader threads hammer
// QueryEffectBatch / QueryEffect while the engine ingests domains with
// deterministic faults injected into one stream (rollback + retry on the
// write path). Asserts the lock-free read contract: every answered query is
// finite and internally consistent, observed snapshot versions are
// monotone per reader, any newly observed snapshot passes its fingerprint
// recomputation (no torn publish), and the bystander stream's training is
// bitwise unaffected by the concurrent read load.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
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

}  // namespace
}  // namespace cerl::stream
