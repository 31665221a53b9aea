// Tests for the effect-query serving plane (src/serve/ + the StreamEngine
// read path): bit-identity of snapshot predictions with the publishing
// trainer (directly, through a checkpoint round-trip, and under the forced
// scalar kernel table), the zero-allocation steady state of the inference
// arena, snapshot publish/version semantics, quarantined-stream staleness,
// and the per-stream query stats surface.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "core/cerl_trainer.h"
#include "data/dataset.h"
#include "linalg/simd.h"
#include "serve/batch_predictor.h"
#include "serve/effect_snapshot.h"
#include "stream/stream_engine.h"
#include "util/fault_injection.h"
#include "util/rng.h"

namespace cerl::serve {
namespace {

using core::CerlConfig;
using core::CerlTrainer;
using data::CausalDataset;
using data::DataSplit;
using linalg::Matrix;
using linalg::Vector;
using stream::EffectQueryMeta;
using stream::QueryContext;
using stream::StreamEngine;
using stream::StreamEngineOptions;
using stream::StreamHealth;
using stream::StreamQueryStats;

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
  std::vector<DataSplit> out;
  for (int d = 0; d < domains; ++d) {
    out.push_back(data::SplitDataset(ShiftedToy(&rng, 300, shift * d), &rng));
  }
  return out;
}

// Small but representative config: cosine-normalized representation (the
// paper's default) so the snapshot's precomputed column normalization is on
// the tested path, elu hidden activations for the transcendental branch.
CerlConfig SmallConfig(uint64_t seed) {
  CerlConfig c;
  c.net.rep_hidden = {16};
  c.net.rep_dim = 8;
  c.net.head_hidden = {8};
  c.train.epochs = 10;
  c.train.batch_size = 64;
  c.train.learning_rate = 3e-3;
  c.train.patience = 10;
  c.train.alpha = 0.2;
  c.train.lambda = 1e-5;
  c.train.seed = seed;
  c.memory_capacity = 100;
  return c;
}

void ExpectBitIdentical(const Vector& a, const Vector& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "row " << i;
  }
}

// Trains `domains` stages and checks every bit-identity contract of one
// snapshot: batch vs the trainer, 1-row queries vs 1-row trainer forwards,
// and stability through a checkpoint round-trip. Runs under whichever
// kernel table is active, so the forced-scalar test reuses it wholesale.
void CheckSnapshotIdentity(uint64_t seed) {
  const CerlConfig config = SmallConfig(seed);
  const std::vector<DataSplit> domains = MakeStream(seed + 1, 2, 0.8);
  CerlTrainer trainer(config, kFeatures);
  for (const DataSplit& split : domains) trainer.ObserveDomain(split);

  auto snap = BuildEffectSnapshot(trainer, 1);
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->version, 1u);
  EXPECT_EQ(snap->stage, 2);
  EXPECT_EQ(snap->input_dim, kFeatures);
  EXPECT_EQ(snap->fingerprint, SnapshotFingerprint(*snap));

  const Matrix& x = domains.back().test.x;
  const Vector expected = trainer.PredictIte(x);

  BatchPredictor predictor;
  Vector got;
  predictor.PredictIte(*snap, x, &got);
  ExpectBitIdentical(expected, got);

  // Single-row queries against 1-row trainer forwards (same block shape on
  // both sides, so this is bitwise too).
  Matrix one(1, kFeatures);
  for (int r = 0; r < std::min(8, x.rows()); ++r) {
    for (int c = 0; c < kFeatures; ++c) one(0, c) = x(r, c);
    const Vector expected_one = trainer.PredictIte(one);
    EXPECT_EQ(predictor.PredictIteRow(*snap, x.row(r)), expected_one[0]);
  }

  // A snapshot built from a checkpoint round-trip of the trainer is the
  // same model: same fingerprint, same predictions.
  std::string blob;
  ASSERT_TRUE(trainer.SerializeCheckpoint(&blob).ok());
  CerlTrainer restored(config, kFeatures);
  ASSERT_TRUE(restored.DeserializeCheckpoint(blob).ok());
  auto snap2 = BuildEffectSnapshot(restored, 1);
  ASSERT_NE(snap2, nullptr);
  EXPECT_EQ(snap2->fingerprint, snap->fingerprint);
  Vector got2;
  BatchPredictor predictor2;
  predictor2.PredictIte(*snap2, x, &got2);
  ExpectBitIdentical(expected, got2);
}

TEST(EffectSnapshotTest, PredictsBitIdenticalToTrainerAndCheckpoint) {
  CheckSnapshotIdentity(41);
}

TEST(EffectSnapshotTest, PredictsBitIdenticalUnderForcedScalarKernels) {
  // The whole flow — training, snapshot build (including the precomputed
  // cosine column normalization), and both prediction paths — on the
  // portable scalar kernel table, as CERL_FORCE_SCALAR=1 would select it.
  linalg::simd::ForceScalarForTesting(true);
  CheckSnapshotIdentity(43);
  linalg::simd::ForceScalarForTesting(false);
}

TEST(EffectSnapshotTest, BuildReturnsNullBeforeFirstStage)
{
  CerlTrainer trainer(SmallConfig(7), kFeatures);
  EXPECT_EQ(BuildEffectSnapshot(trainer, 1), nullptr);
}

TEST(BatchPredictorTest, SteadyStateMakesNoArenaAllocations) {
  const CerlConfig config = SmallConfig(47);
  const std::vector<DataSplit> domains = MakeStream(48, 1, 0.5);
  CerlTrainer trainer(config, kFeatures);
  trainer.ObserveDomain(domains[0]);
  auto snap = BuildEffectSnapshot(trainer, 1);
  ASSERT_NE(snap, nullptr);

  const Matrix& x = domains[0].test.x;
  BatchPredictor predictor;
  Vector ite;
  ite.reserve(static_cast<size_t>(x.rows()));
  // Warm-up: the largest batch this predictor will see, plus the 1-row
  // shape (a smaller block than the batch's 64-row panels, but shrinking
  // never allocates — the assertion below proves it).
  predictor.PredictIte(*snap, x, &ite);
  predictor.PredictIteRow(*snap, x.row(0));
  const int64_t warm = predictor.arena_allocations();
  EXPECT_GT(warm, 0);

  double sink = 0.0;
  for (int iter = 0; iter < 200; ++iter) {
    predictor.PredictIte(*snap, x, &ite);
    sink += predictor.PredictIteRow(*snap, x.row(iter % x.rows()));
  }
  EXPECT_TRUE(std::isfinite(sink));
  EXPECT_EQ(predictor.arena_allocations(), warm)
      << "query steady state allocated";
}

TEST(QueryPlaneTest, PublishesAfterEachDomainAndAnswersBitIdentically) {
  const CerlConfig config = SmallConfig(51);
  const std::vector<DataSplit> domains = MakeStream(52, 2, 0.8);
  StreamEngineOptions options;
  options.num_workers = 2;
  StreamEngine engine(options);
  const int id = engine.AddStream("tenant", config, kFeatures);
  QueryContext* ctx = engine.CreateQueryContext();

  // Before the first publish: typed precondition reject, counted.
  double ite_one = 0.0;
  const Matrix& x = domains[0].test.x;
  Status s = engine.QueryEffect(ctx, id, x.row(0), kFeatures, &ite_one);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine.QueryEffect(ctx, 99, x.row(0), kFeatures, &ite_one).code(),
            StatusCode::kNotFound);

  ASSERT_TRUE(engine.PushDomain(id, domains[0]).ok());
  engine.Drain();
  EffectQueryMeta meta;
  Vector ite;
  ASSERT_TRUE(engine.QueryEffectBatch(ctx, id, x, &ite, &meta).ok());
  EXPECT_EQ(meta.snapshot_version, 1u);
  EXPECT_EQ(meta.snapshot_stage, 1);
  EXPECT_FALSE(meta.stale);
  ExpectBitIdentical(engine.trainer(id).PredictIte(x), ite);

  // Wrong dimension count: rejected without touching the model.
  Matrix bad(2, kFeatures + 1);
  Vector bad_ite;
  EXPECT_EQ(engine.QueryEffectBatch(ctx, id, bad, &bad_ite).code(),
            StatusCode::kInvalidArgument);

  ASSERT_TRUE(engine.PushDomain(id, domains[1]).ok());
  engine.Drain();
  ASSERT_TRUE(engine.QueryEffectBatch(ctx, id, x, &ite, &meta).ok());
  EXPECT_EQ(meta.snapshot_version, 2u);
  EXPECT_EQ(meta.snapshot_stage, 2);
  ExpectBitIdentical(engine.trainer(id).PredictIte(x), ite);
  // The single-row API agrees with a 1-row batch (same code path).
  Matrix one(1, kFeatures);
  for (int c = 0; c < kFeatures; ++c) one(0, c) = x(1, c);
  Vector one_ite;
  ASSERT_TRUE(engine.QueryEffectBatch(ctx, id, one, &one_ite).ok());
  ASSERT_TRUE(engine.QueryEffect(ctx, id, x.row(1), kFeatures, &ite_one).ok());
  EXPECT_EQ(ite_one, one_ite[0]);

  const StreamQueryStats stats = engine.query_stats(id);
  EXPECT_EQ(stats.snapshot_version, 2u);
  EXPECT_EQ(stats.snapshot_stage, 2);
  EXPECT_GE(stats.staleness_ms, 0.0);
  EXPECT_FALSE(stats.stale);
  EXPECT_EQ(stats.queries, 4);  // two batches + one 1-row batch + one row
  EXPECT_EQ(stats.rows, 2 * x.rows() + 2);
  EXPECT_EQ(stats.rejected, 2);  // pre-publish + bad dims (bad id excluded)
  EXPECT_EQ(stats.latency.count(), 4);
}

TEST(QueryPlaneTest, NullArgumentsAreInvalidArgument) {
  StreamEngineOptions options;
  options.num_workers = 2;
  StreamEngine engine(options);
  const int id = engine.AddStream("tenant", SmallConfig(55), kFeatures);
  QueryContext* ctx = engine.CreateQueryContext();
  const std::vector<DataSplit> domains = MakeStream(56, 1, 0.5);
  const Matrix& x = domains[0].test.x;
  double ite_one = 0.0;
  Vector ite;

  // Checked before anything else, so even a bad id or an unpublished
  // stream reports the null argument.
  EXPECT_EQ(engine.QueryEffect(nullptr, 99, x.row(0), kFeatures, &ite_one)
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.QueryEffectBatch(nullptr, id, x, &ite).code(),
            StatusCode::kInvalidArgument);

  ASSERT_TRUE(engine.PushDomain(id, domains[0]).ok());
  engine.Drain();
  EXPECT_EQ(engine.QueryEffect(nullptr, id, x.row(0), kFeatures, &ite_one)
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.QueryEffect(ctx, id, nullptr, kFeatures, &ite_one).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.QueryEffect(ctx, id, x.row(0), kFeatures, nullptr).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.QueryEffectBatch(nullptr, id, x, &ite).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.QueryEffectBatch(ctx, id, x, nullptr).code(),
            StatusCode::kInvalidArgument);

  // No slot was touched: nothing answered, nothing counted as rejected.
  StreamQueryStats stats = engine.query_stats(id);
  EXPECT_EQ(stats.queries, 0);
  EXPECT_EQ(stats.rejected, 0);
  // The context still works.
  ASSERT_TRUE(engine.QueryEffect(ctx, id, x.row(0), kFeatures, &ite_one).ok());
  EXPECT_EQ(engine.query_stats(id).queries, 1);
}

TEST(QueryPlaneTest, QuarantinedStreamServesLastGoodSnapshotAsStale) {
  FaultInjector::Global().Reset();
  StreamEngineOptions options;
  options.num_workers = 2;
  options.max_domain_retries = 0;
  options.quarantine_after_failures = 1;
  StreamEngine engine(options);
  const CerlConfig config = SmallConfig(57);
  const int id = engine.AddStream("sick", config, kFeatures);
  QueryContext* ctx = engine.CreateQueryContext();
  const std::vector<DataSplit> domains = MakeStream(58, 2, 0.5);

  ASSERT_TRUE(engine.PushDomain(id, domains[0]).ok());
  engine.Drain();
  Vector before;
  EffectQueryMeta meta;
  ASSERT_TRUE(
      engine.QueryEffectBatch(ctx, id, domains[0].test.x, &before, &meta)
          .ok());
  ASSERT_EQ(meta.snapshot_version, 1u);
  ASSERT_FALSE(meta.stale);

  // Every further stage attempt of this stream throws: the next domain is
  // dropped and the stream quarantined.
  FaultInjector::Global().Arm(FaultPoint::kStageThrow, "sick",
                              /*probability=*/1.0, /*max_fires=*/0,
                              /*seed=*/5);
  ASSERT_TRUE(engine.PushDomain(id, domains[1]).ok());
  engine.Drain();
  ASSERT_EQ(engine.health(id), StreamHealth::kQuarantined);
  EXPECT_EQ(engine.PushDomain(id, domains[1]).code(),
            StatusCode::kUnavailable);

  // Still serving — the last-good model, flagged stale, version unchanged.
  Vector after;
  ASSERT_TRUE(
      engine.QueryEffectBatch(ctx, id, domains[0].test.x, &after, &meta)
          .ok());
  EXPECT_EQ(meta.snapshot_version, 1u);
  EXPECT_TRUE(meta.stale);
  ExpectBitIdentical(before, after);
  EXPECT_TRUE(engine.query_stats(id).stale);
  FaultInjector::Global().Reset();
}

TEST(QueryPlaneTest, LoadSnapshotRepublishesRestoredStreams) {
  const CerlConfig config = SmallConfig(61);
  const std::vector<DataSplit> domains = MakeStream(62, 1, 0.5);
  const std::string path = ::testing::TempDir() + "/serve_republish.snap";
  Vector expected;
  {
    StreamEngineOptions options;
    options.num_workers = 2;
    StreamEngine engine(options);
    const int id = engine.AddStream("restoreme", config, kFeatures);
    ASSERT_TRUE(engine.PushDomain(id, domains[0]).ok());
    engine.Drain();
    expected = engine.trainer(id).PredictIte(domains[0].test.x);
    ASSERT_TRUE(engine.SaveSnapshot(path).ok());
  }
  StreamEngineOptions options;
  options.num_workers = 2;
  StreamEngine engine(options);
  ASSERT_TRUE(engine.LoadSnapshot(path).ok());
  QueryContext* ctx = engine.CreateQueryContext();
  Vector ite;
  EffectQueryMeta meta;
  ASSERT_TRUE(
      engine.QueryEffectBatch(ctx, 0, domains[0].test.x, &ite, &meta).ok());
  EXPECT_EQ(meta.snapshot_version, 1u);  // publish sequence restarts
  EXPECT_EQ(meta.snapshot_stage, 1);
  ExpectBitIdentical(expected, ite);
}

}  // namespace
}  // namespace cerl::serve
