// Effect-query serving walkthrough: a StreamEngine ingesting multiple
// tenant streams while reader threads answer ITE queries against each
// stream's published snapshot THE WHOLE TIME — reads never wait for
// training and training never waits for reads.
//
// Two tenants ingest the paper's synthetic covariate-shift stream at
// different scales. The moment a tenant finishes its first domain it
// publishes an immutable EffectSnapshot (copy-on-publish, RCU swap);
// every later domain publishes a fresh version. Two query threads (one
// single-user, one batched) hammer both tenants from push to drain; the
// run ends with a per-stream serving report: snapshot version, model
// staleness, queries answered, and the query latency distribution.
//
// Run: ./build/examples/effect_query_server
#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "data/synthetic.h"
#include "stream/stream_engine.h"
#include "util/rng.h"
#include "util/timer.h"

namespace {

using namespace cerl;  // NOLINT

core::CerlConfig TenantConfig(uint64_t seed) {
  core::CerlConfig config;
  config.net.rep_hidden = {32};
  config.net.rep_dim = 16;
  config.net.head_hidden = {16};
  config.train.epochs = 20;
  config.train.batch_size = 64;
  config.train.patience = 20;
  config.train.seed = seed;
  config.memory_capacity = 150;
  return config;
}

}  // namespace

int main() {
  // Two tenants fed the synthetic covariate-shift stream (3 domains each).
  struct Tenant {
    const char* name;
    int units;
    uint64_t seed;
    int id = 0;
    std::vector<data::DataSplit> domains;
  };
  std::vector<Tenant> tenants = {{"tenant-a", 500, 11, 0, {}},
                                 {"tenant-b", 350, 23, 0, {}}};

  data::SyntheticConfig dgp;
  dgp.num_domains = 3;
  const int input_dim = dgp.num_features();
  for (Tenant& t : tenants) {
    dgp.units_per_domain = t.units;
    dgp.seed = t.seed;
    data::SyntheticStream stream = data::GenerateSyntheticStream(dgp);
    Rng rng(t.seed + 1);
    t.domains = data::SplitStream(stream.domains, &rng);
  }

  stream::StreamEngine engine;
  for (Tenant& t : tenants) {
    t.id = engine.AddStream(t.name, TenantConfig(t.seed), input_dim);
  }

  // Query load: fixed covariate rows standing in for live users.
  Rng qrng(99);
  linalg::Matrix users(64, input_dim);
  for (int64_t i = 0; i < users.size(); ++i) users.data()[i] = qrng.Normal();

  // One context per reader thread (each owns its inference arena).
  std::vector<stream::QueryContext*> contexts = {engine.CreateQueryContext(),
                                                 engine.CreateQueryContext()};
  std::atomic<bool> stop{false};
  std::atomic<int64_t> not_ready{0};

  // Reader 0: single-user queries, round-robin over users and tenants.
  std::thread single_reader([&] {
    double ite = 0.0;
    size_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      for (const Tenant& t : tenants) {
        const Status s = engine.QueryEffect(
            contexts[0], t.id, users.row(static_cast<int>(i % 64)),
            input_dim, &ite);
        if (!s.ok()) not_ready.fetch_add(1, std::memory_order_relaxed);
      }
      ++i;
    }
  });
  // Reader 1: 32-row batches (one campaign audience per call).
  std::thread batch_reader([&] {
    linalg::Vector ite;
    linalg::Matrix batch(32, input_dim);
    for (int r = 0; r < 32; ++r) {
      for (int c = 0; c < input_dim; ++c) batch(r, c) = users(r, c);
    }
    while (!stop.load(std::memory_order_relaxed)) {
      for (const Tenant& t : tenants) {
        const Status s =
            engine.QueryEffectBatch(contexts[1], t.id, batch, &ite);
        if (!s.ok()) not_ready.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });

  // Ingest while the readers are already live: the first queries land
  // before any snapshot exists (typed kFailedPrecondition, counted below),
  // then each migrated domain bumps the served version.
  WallTimer timer;
  for (size_t d = 0; d < tenants[0].domains.size(); ++d) {
    for (const Tenant& t : tenants) {
      Status pushed = engine.PushDomain(t.id, t.domains[d]);
      if (!pushed.ok()) {
        std::printf("%s: push shed (%s)\n", t.name,
                    pushed.ToString().c_str());
      }
    }
  }
  engine.Drain();
  const double ingest_s = timer.ElapsedSeconds();
  stop.store(true, std::memory_order_relaxed);
  single_reader.join();
  batch_reader.join();

  std::printf("ingested %d domains x %zu tenants in %.2fs "
              "(queries running throughout)\n\n",
              dgp.num_domains, tenants.size(), ingest_s);
  std::printf("%-10s %8s %6s %12s %9s %10s %10s %10s\n", "stream", "version",
              "stage", "staleness_ms", "queries", "rows", "p50_us",
              "p99_us");
  for (const Tenant& t : tenants) {
    const stream::StreamQueryStats stats = engine.query_stats(t.id);
    std::printf("%-10s %8llu %6d %12.1f %9lld %10lld %10.1f %10.1f%s\n",
                t.name,
                static_cast<unsigned long long>(stats.snapshot_version),
                stats.snapshot_stage, stats.staleness_ms,
                static_cast<long long>(stats.queries),
                static_cast<long long>(stats.rows),
                stats.latency.Percentile(0.5) * 1e3,
                stats.latency.Percentile(0.99) * 1e3,
                stats.stale ? "  [STALE: quarantined]" : "");
  }
  std::printf("\nqueries before first publish (typed rejects): %lld\n",
              static_cast<long long>(
                  not_ready.load(std::memory_order_relaxed)));

  // The served model is the trained model: compare a few users' ITEs from
  // the final snapshot against the drained trainer directly.
  std::printf("\nsample ITEs (snapshot == trainer, bitwise):\n");
  for (const Tenant& t : tenants) {
    linalg::Matrix head(3, input_dim);
    for (int r = 0; r < 3; ++r) {
      for (int c = 0; c < input_dim; ++c) head(r, c) = users(r, c);
    }
    linalg::Vector served;
    if (!engine.QueryEffectBatch(contexts[0], t.id, head, &served).ok()) {
      continue;
    }
    const linalg::Vector trained = engine.trainer(t.id).PredictIte(head);
    std::printf("  %-10s", t.name);
    for (int r = 0; r < 3; ++r) {
      std::printf("  user%d: %+0.4f%s", r, served[r],
                  served[r] == trained[r] ? "" : " (MISMATCH)");
    }
    std::printf("\n");
  }
  return 0;
}
