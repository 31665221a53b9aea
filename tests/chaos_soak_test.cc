// Chaos soak for StreamEngine fault isolation — the acceptance scenario of
// the robustness PR: with deterministic faults injected into K of N tenant
// streams, the process never aborts, only the faulted streams are
// quarantined, and the surviving streams' results and trainer state are
// BITWISE identical to a fault-free run. Also covers transient-fault
// recovery through rollback+retry and a snapshot taken mid-chaos restoring
// with health state intact.
//
// All faults here are scoped to a tenant name with probability 1 and a
// seeded injector, so every run of this binary exercises the exact same
// failure schedule — chaos, but reproducible chaos.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
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
}

void ExpectResultsBitIdentical(const std::vector<DomainResult>& a,
                               const std::vector<DomainResult>& b,
                               const std::string& tag) {
  ASSERT_EQ(a.size(), b.size()) << tag;
  for (size_t i = 0; i < a.size(); ++i) {
    const std::string at = tag + " domain " + std::to_string(i);
    ASSERT_EQ(a[i].domain_index, b[i].domain_index) << at;
    ASSERT_TRUE(a[i].status.ok()) << at;
    ASSERT_TRUE(b[i].status.ok()) << at;
    // Bitwise: exact double equality, no tolerance.
    EXPECT_EQ(a[i].stats.epochs_run, b[i].stats.epochs_run) << at;
    EXPECT_EQ(a[i].stats.best_valid_loss, b[i].stats.best_valid_loss) << at;
    EXPECT_EQ(a[i].stats.steps, b[i].stats.steps) << at;
    EXPECT_EQ(a[i].memory_units, b[i].memory_units) << at;
    ASSERT_EQ(a[i].has_metrics, b[i].has_metrics) << at;
    if (a[i].has_metrics) {
      EXPECT_EQ(a[i].metrics.pehe, b[i].metrics.pehe) << at;
      EXPECT_EQ(a[i].metrics.ate_error, b[i].metrics.ate_error) << at;
    }
  }
}

class ChaosSoakTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::Global().Reset(); }
};

// The headline scenario: 4 tenants, 2 of them hit by persistent faults
// (one throws at ingest, one produces NaN losses in training). The faulted
// tenants must degrade and quarantine; the bystanders must be untouched —
// bit for bit.
TEST_F(ChaosSoakTest, KOfNFaultedStreamsAreIsolatedBitwise) {
  const int kStreams = 4;
  const int kDomains = 3;
  std::vector<CerlConfig> configs;
  std::vector<std::vector<DataSplit>> domains;
  for (int s = 0; s < kStreams; ++s) {
    configs.push_back(FastConfig(500 + 31 * s));
    domains.push_back(MakeStream(60 + s, kDomains, 0.3 + 0.2 * s));
  }

  StreamEngineOptions options;
  options.num_workers = 4;
  options.max_domain_retries = 1;   // fail fast: persistent faults anyway
  options.retry_backoff_ms = 1;
  options.quarantine_after_failures = 2;

  // Fault-free reference run.
  StreamEngine reference(options);
  for (int s = 0; s < kStreams; ++s) {
    reference.AddStream("tenant-" + std::to_string(s), configs[s], kFeatures);
    for (const DataSplit& split : domains[s]) {
      ASSERT_TRUE(reference.PushDomain(s, split).ok());
    }
  }
  reference.Drain();
  for (int s = 0; s < kStreams; ++s) {
    ASSERT_EQ(reference.health(s), StreamHealth::kHealthy);
  }

  // Chaos run: tenant-1 throws at every stage ingest, tenant-2 poisons
  // every training loss. Probability 1, unbounded budget — the streams
  // cannot make progress and must quarantine after the drop streak.
  FaultInjector::Global().Arm(FaultPoint::kStageThrow, "tenant-1",
                              /*probability=*/1.0, /*max_fires=*/0,
                              /*seed=*/11);
  FaultInjector::Global().Arm(FaultPoint::kNanGradient, "tenant-2",
                              /*probability=*/1.0, /*max_fires=*/0,
                              /*seed=*/12);
  StreamEngine chaos(options);
  for (int s = 0; s < kStreams; ++s) {
    chaos.AddStream("tenant-" + std::to_string(s), configs[s], kFeatures);
    // Admission may reject late pushes once the stream quarantines
    // mid-burst; both outcomes are legal here.
    for (const DataSplit& split : domains[s]) {
      Status pushed = chaos.PushDomain(s, split);
      if (!pushed.ok()) {
        EXPECT_EQ(pushed.code(), StatusCode::kUnavailable) << "tenant " << s;
        EXPECT_TRUE(s == 1 || s == 2) << "healthy tenant shed a push";
      }
    }
  }
  chaos.Drain();  // the process is alive to reach this line at all

  // Faulted tenants: quarantined, with failures recorded as typed statuses
  // and trainer state rolled back to the last good stage. tenant-1 throws
  // at ingest, so it never trains a stage; tenant-2's NaN point lives in
  // the continual loss, which first engages at stage 2 — its first domain
  // legitimately succeeds, then every later one fails.
  for (int s : {1, 2}) {
    EXPECT_EQ(chaos.health(s), StreamHealth::kQuarantined) << "tenant " << s;
    EXPECT_GE(chaos.failed_domains(s), options.quarantine_after_failures);
    bool seen_failure = false;
    for (const DomainResult& r : chaos.results(s)) {
      if (!r.status.ok()) seen_failure = true;
      // Once a persistent fault bites, no later domain sneaks through.
      EXPECT_EQ(r.status.ok(), !seen_failure)
          << "tenant " << s << " domain " << r.domain_index;
    }
    EXPECT_TRUE(seen_failure) << "tenant " << s;
  }
  EXPECT_EQ(chaos.trainer(1).stages_seen(), 0);  // never got past ingest
  EXPECT_EQ(chaos.trainer(2).stages_seen(), 1);  // rolled back to stage 1

  // Bystanders: healthy, and bitwise identical to the fault-free run.
  for (int s : {0, 3}) {
    const std::string tag = "tenant-" + std::to_string(s);
    EXPECT_EQ(chaos.health(s), StreamHealth::kHealthy) << tag;
    EXPECT_EQ(chaos.failed_domains(s), 0) << tag;
    ExpectResultsBitIdentical(reference.results(s), chaos.results(s), tag);
    ExpectTrainersBitIdentical(&reference.trainer(s), &chaos.trainer(s),
                               domains[s][0].test.x, tag);
  }
}

// A single transient fault must be absorbed: the stream rolls back to its
// last-good checkpoint, replays the domain, and lands bit-identical to a
// run that never saw the fault (stage seeds derive from stages_seen, which
// the rollback rewinds).
TEST_F(ChaosSoakTest, TransientFaultRecoversBitIdentically) {
  const CerlConfig config = FastConfig(640);
  const std::vector<DataSplit> domains = MakeStream(70, 3, 0.5);
  StreamEngineOptions options;
  options.num_workers = 2;
  options.max_domain_retries = 2;
  options.retry_backoff_ms = 1;

  StreamEngine reference(options);
  reference.AddStream("tenant-t", config, kFeatures);
  for (const DataSplit& split : domains) {
    ASSERT_TRUE(reference.PushDomain(0, split).ok());
  }
  reference.Drain();

  // One NaN excursion, then the injector budget is spent. The second
  // domain's first attempt fails; its retry replays cleanly.
  FaultInjector::Global().Arm(FaultPoint::kNanGradient, "tenant-t",
                              /*probability=*/1.0, /*max_fires=*/1,
                              /*seed=*/21);
  StreamEngine engine(options);
  engine.AddStream("tenant-t", config, kFeatures);
  ASSERT_TRUE(engine.PushDomain(0, domains[0]).ok());
  ASSERT_TRUE(engine.DrainStream(0).ok());  // let domain 0 seed last_good
  for (size_t d = 1; d < domains.size(); ++d) {
    ASSERT_TRUE(engine.PushDomain(0, domains[d]).ok());
  }
  engine.Drain();

  EXPECT_EQ(engine.health(0), StreamHealth::kHealthy);  // fully recovered
  EXPECT_EQ(engine.consecutive_failures(0), 0);
  EXPECT_EQ(engine.failed_domains(0), 0);
  const std::vector<DomainResult>& results = engine.results(0);
  ASSERT_EQ(results.size(), domains.size());
  int retried = 0;
  for (const DomainResult& r : results) {
    ASSERT_TRUE(r.status.ok()) << "domain " << r.domain_index;
    retried += r.attempts > 1 ? 1 : 0;
  }
  EXPECT_EQ(retried, 1);  // exactly the faulted domain needed a retry
  ExpectResultsBitIdentical(reference.results(0), results, "transient");
  ExpectTrainersBitIdentical(&reference.trainer(0), &engine.trainer(0),
                             domains[0].test.x, "transient");
}

// A snapshot taken while chaos is in progress must recover with the health
// plane intact: the quarantined tenant stays quarantined (and still rejects
// pushes), the healthy tenant continues bit-identically (its domains still
// queued at the fence replay from the WAL).
TEST_F(ChaosSoakTest, MidChaosSnapshotRestoresHealthIntact) {
  const int kPreDomains = 2;   // before the snapshot
  const int kPostDomains = 1;  // after the restore
  const CerlConfig good_config = FastConfig(700);
  const CerlConfig sick_config = FastConfig(701);
  const std::vector<DataSplit> good_domains =
      MakeStream(80, kPreDomains + kPostDomains, 0.4);
  const std::vector<DataSplit> sick_domains = MakeStream(81, kPreDomains, 0.4);
  StreamEngineOptions options;
  options.num_workers = 2;
  options.max_domain_retries = 1;
  options.retry_backoff_ms = 1;
  options.quarantine_after_failures = 2;

  // Fault-free reference for the healthy tenant only.
  StreamEngine reference(options);
  reference.AddStream("tenant-good", good_config, kFeatures);
  for (const DataSplit& split : good_domains) {
    ASSERT_TRUE(reference.PushDomain(0, split).ok());
  }
  reference.Drain();

  FaultInjector::Global().Arm(FaultPoint::kStageThrow, "tenant-sick",
                              /*probability=*/1.0, /*max_fires=*/0,
                              /*seed=*/31);
  const std::string path = ::testing::TempDir() + "/chaos_mid.snap";
  StreamEngineOptions durable = options;
  durable.wal_path = ::testing::TempDir() + "/chaos_mid.wal";
  std::remove(durable.wal_path.c_str());
  {
    StreamEngine original(durable);
    ASSERT_TRUE(original.OpenStorage().ok());
    const int good = original.AddStream("tenant-good", good_config,
                                        kFeatures);
    const int sick = original.AddStream("tenant-sick", sick_config,
                                        kFeatures);
    for (int d = 0; d < kPreDomains; ++d) {
      ASSERT_TRUE(original.PushDomain(good, good_domains[d]).ok());
      (void)original.PushDomain(sick, sick_domains[d]);
    }
    // Snapshot WITH the faults still armed and work possibly queued: the
    // fence waits out in-flight attempts (including their retries); the
    // rest stays in the compacted WAL.
    ASSERT_TRUE(original.SaveSnapshot(path).ok());
    original.Drain();
    ASSERT_EQ(original.health(sick), StreamHealth::kQuarantined);
  }

  // "New process": faults disarmed, snapshot + WAL recovered. Whatever of
  // the sick tenant's history was still queued replays cleanly now — but
  // its PERSISTED health must dominate: a stream snapshotted as quarantined
  // must come back quarantined even though the fault is gone.
  FaultInjector::Global().Reset();
  StreamEngine restored(durable);
  ASSERT_TRUE(restored.Recover(path).ok());
  restored.Drain();
  ASSERT_EQ(restored.num_streams(), 2);

  const int good = 0, sick = 1;
  EXPECT_EQ(restored.name(sick), "tenant-sick");
  if (restored.health(sick) == StreamHealth::kQuarantined) {
    // Quarantine persisted across the snapshot: pushes still shed.
    EXPECT_EQ(restored.PushDomain(sick, good_domains[0]).code(),
              StatusCode::kUnavailable);
  }
  // The healthy tenant continues exactly where the snapshot fenced it.
  EXPECT_EQ(restored.health(good), StreamHealth::kHealthy);
  for (int d = kPreDomains; d < kPreDomains + kPostDomains; ++d) {
    ASSERT_TRUE(restored.PushDomain(good, good_domains[d]).ok());
  }
  restored.Drain();
  ExpectTrainersBitIdentical(&reference.trainer(0), &restored.trainer(good),
                             good_domains[0].test.x, "mid-chaos good tenant");
}

// Sinkhorn divergence injected into the OT distance used by stage begin /
// migration: the typed NumericalError must travel up through the stage
// pipeline like any other failure and quarantine only the afflicted tenant.
TEST_F(ChaosSoakTest, SinkhornDivergenceIsContained) {
  const std::vector<DataSplit> domains = MakeStream(90, 2, 0.6);
  StreamEngineOptions options;
  options.num_workers = 2;
  options.max_domain_retries = 1;
  options.retry_backoff_ms = 1;
  options.quarantine_after_failures = 1;  // first drop quarantines

  FaultInjector::Global().Arm(FaultPoint::kSinkhornDiverge, "tenant-ot",
                              /*probability=*/1.0, /*max_fires=*/0,
                              /*seed=*/41);
  StreamEngine engine(options);
  engine.AddStream("tenant-ot", FastConfig(800), kFeatures);
  engine.AddStream("tenant-ok", FastConfig(801), kFeatures);
  ASSERT_TRUE(engine.PushDomain(0, domains[0]).ok());
  ASSERT_TRUE(engine.PushDomain(1, domains[0]).ok());
  engine.Drain();

  EXPECT_EQ(engine.health(0), StreamHealth::kQuarantined);
  ASSERT_EQ(engine.results(0).size(), 1u);
  EXPECT_EQ(engine.results(0)[0].status.code(), StatusCode::kNumericalError);
  EXPECT_EQ(engine.health(1), StreamHealth::kHealthy);
  ASSERT_EQ(engine.results(1).size(), 1u);
  EXPECT_TRUE(engine.results(1)[0].status.ok());
}

}  // namespace
}  // namespace cerl::stream
