// Serving-plane microbenchmarks: effect-query throughput (single-user and
// batched) against a published snapshot, the write-path cost of snapshot
// publication (ingest with publishing on vs off, CI-gated as a pair), and a
// mixed read/write soak with a full-tilt reader thread hammering the
// serving plane while the engine ingests domains.
//
// Compiled into the micro_substrates binary (no BENCHMARK_MAIN here).
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "core/cerl_trainer.h"
#include "data/dataset.h"
#include "stream/stream_engine.h"
#include "util/check.h"
#include "util/rng.h"

namespace cerl {
namespace {

constexpr int kFeatures = 8;

data::DataSplit QueryBenchSplit(Rng* rng, int units, double shift) {
  data::CausalDataset dataset;
  dataset.x = linalg::Matrix(units, kFeatures);
  for (int64_t i = 0; i < dataset.x.size(); ++i) {
    dataset.x.data()[i] = rng->Normal();
  }
  dataset.t.resize(units);
  dataset.y.resize(units);
  dataset.mu0.assign(units, 0.0);
  dataset.mu1.assign(units, 1.0);
  for (int i = 0; i < units; ++i) {
    dataset.x(i, 0) += shift;
    dataset.t[i] = rng->Uniform() < 0.5 ? 1 : 0;
    dataset.y[i] = std::sin(dataset.x(i, 0)) + dataset.t[i] +
                   0.1 * rng->Normal();
  }
  return data::SplitDataset(dataset, rng);
}

core::CerlConfig QueryBenchConfig(uint64_t seed) {
  core::CerlConfig config;
  config.net.rep_hidden = {16};
  config.net.rep_dim = 8;
  config.net.head_hidden = {8};
  // Relu hidden layers: the serving-latency floor should measure the
  // pipeline, not the ELU forward's expm1 core (the rep output stays tanh
  // by architecture). The floor in CI was set with this config; keep it.
  config.net.activation = nn::Activation::kRelu;
  config.train.epochs = 6;
  config.train.batch_size = 64;
  config.train.patience = 6;
  config.train.alpha = 0.2;
  config.train.seed = seed;
  config.memory_capacity = 80;
  return config;
}

// Engine with one trained-and-published stream, shared bench scaffolding.
struct ServingFixture {
  explicit ServingFixture(uint64_t seed)
      : engine(MakeOptions()), queries(1024, kFeatures) {
    Rng rng(seed);
    id = engine.AddStream("serve", QueryBenchConfig(seed), kFeatures);
    CERL_CHECK(engine.PushDomain(id, QueryBenchSplit(&rng, 240, 0.0)).ok());
    engine.Drain();
    ctx = engine.CreateQueryContext();
    for (int64_t i = 0; i < queries.size(); ++i) {
      queries.data()[i] = rng.Normal();
    }
  }

  static stream::StreamEngineOptions MakeOptions() {
    stream::StreamEngineOptions options;
    options.num_workers = 1;
    return options;
  }

  stream::StreamEngine engine;
  stream::QueryContext* ctx = nullptr;
  int id = 0;
  linalg::Matrix queries;
};

// Single-user effect queries, one per iteration, cycling through 1024
// distinct covariate rows. The qps counter is the serving throughput the CI
// floor-gates (tools/compare_bench.py --floor): the acceptance target is
// >= 1e6 queries/s/core in Release on the committed-baseline machine.
void BM_EffectQueryThroughput(benchmark::State& state) {
  ServingFixture fx(11);
  double ite = 0.0;
  CERL_CHECK(
      fx.engine.QueryEffect(fx.ctx, fx.id, fx.queries.row(0), kFeatures, &ite)
          .ok());
  size_t i = 0;
  for (auto _ : state) {
    fx.engine.QueryEffect(fx.ctx, fx.id, fx.queries.row(i & 1023), kFeatures,
                          &ite);
    benchmark::DoNotOptimize(ite);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["qps"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EffectQueryThroughput);

// Batched variant: rows/s at batch sizes straddling the 64-row block size.
void BM_EffectQueryBatch(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  ServingFixture fx(12);
  linalg::Matrix x(batch, kFeatures);
  for (int r = 0; r < batch; ++r) {
    for (int c = 0; c < kFeatures; ++c) x(r, c) = fx.queries(r & 1023, c);
  }
  linalg::Vector ite;
  CERL_CHECK(fx.engine.QueryEffectBatch(fx.ctx, fx.id, x, &ite).ok());
  for (auto _ : state) {
    fx.engine.QueryEffectBatch(fx.ctx, fx.id, x, &ite);
    benchmark::DoNotOptimize(ite.data());
  }
  state.SetItemsProcessed(state.iterations() * batch);
  state.counters["rows_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * batch,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EffectQueryBatch)->Arg(16)->Arg(256);

// Ingest of 4 streams with the serving plane publishing an effect snapshot
// per migrated domain (the engine always publishes). The publish cost itself
// is timed by BM_DomainBoundaryWork in micro_substrates.cc.
void BM_StreamEngineIngestServe(benchmark::State& state) {
  const int streams = static_cast<int>(state.range(0));
  const int kDomains = 2;
  std::vector<std::vector<data::DataSplit>> domains(streams);
  for (int s = 0; s < streams; ++s) {
    Rng rng(140 + s);
    for (int d = 0; d < kDomains; ++d) {
      domains[s].push_back(QueryBenchSplit(&rng, 240, 0.8 * d));
    }
  }
  core::CerlConfig config = QueryBenchConfig(0);

  const stream::StreamEngineOptions options;
  for (auto _ : state) {
    stream::StreamEngine engine(options);
    for (int s = 0; s < streams; ++s) {
      config.train.seed = 150 + s;
      const int id = engine.AddStream("bench", config, kFeatures);
      for (const data::DataSplit& split : domains[s]) {
        CERL_CHECK(engine.PushDomain(id, split).ok());
      }
    }
    engine.Drain();
  }
  state.SetItemsProcessed(state.iterations() * streams * kDomains);
}
BENCHMARK(BM_StreamEngineIngestServe)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Mixed read/write: a full-tilt reader thread issues 16-row batched queries
// nonstop while the engine ingests 2 domains x 2 streams. Counters report
// both sides of the contention story: ingest_p99_ms (domain completion
// latency under read load; suffix-gated against the committed baseline)
// and query_qps (reads served per wall second mid-ingest). On a single
// hardware thread the reader and the trainers timeshare one core, so
// ingest slows by CPU division — the lock-freedom claim is that it slows
// by scheduling only, never by blocking on the read side.
void BM_EffectQueryMixed(benchmark::State& state) {
  const int kStreams = 2;
  const int kDomains = 2;
  std::vector<std::vector<data::DataSplit>> domains(kStreams);
  for (int s = 0; s < kStreams; ++s) {
    Rng rng(160 + s);
    for (int d = 0; d < kDomains; ++d) {
      domains[s].push_back(QueryBenchSplit(&rng, 240, 0.8 * d));
    }
  }
  core::CerlConfig config = QueryBenchConfig(0);

  Rng qrng(161);
  linalg::Matrix qx(16, kFeatures);
  for (int64_t i = 0; i < qx.size(); ++i) qx.data()[i] = qrng.Normal();

  double ingest_p99 = 0.0;
  double queries_per_s = 0.0;
  int rounds = 0;
  for (auto _ : state) {
    stream::StreamEngineOptions options;
    options.num_workers = 1;
    stream::StreamEngine engine(options);
    std::vector<int> ids;
    for (int s = 0; s < kStreams; ++s) {
      config.train.seed = 170 + s;
      ids.push_back(engine.AddStream("mixed", config, kFeatures));
    }
    stream::QueryContext* ctx = engine.CreateQueryContext();

    std::atomic<bool> stop{false};
    std::atomic<int64_t> answered{0};
    std::thread reader([&] {
      linalg::Vector ite;
      while (!stop.load(std::memory_order_relaxed)) {
        for (int id : ids) {
          if (engine.QueryEffectBatch(ctx, id, qx, &ite).ok()) {
            answered.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
    const auto t0 = std::chrono::steady_clock::now();
    for (int d = 0; d < kDomains; ++d) {
      for (int s = 0; s < kStreams; ++s) {
        CERL_CHECK(engine.PushDomain(ids[s], domains[s][d]).ok());
      }
    }
    engine.Drain();
    const double elapsed_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    stop.store(true, std::memory_order_relaxed);
    reader.join();

    ingest_p99 +=
        engine.TotalSchedStats().completion_latency.Percentile(0.99);
    queries_per_s +=
        static_cast<double>(answered.load(std::memory_order_relaxed)) /
        elapsed_s;
    ++rounds;
  }
  state.SetItemsProcessed(state.iterations() * kStreams * kDomains);
  state.counters["ingest_p99_ms"] = ingest_p99 / rounds;
  state.counters["query_qps"] = queries_per_s / rounds;
}
BENCHMARK(BM_EffectQueryMixed)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace
}  // namespace cerl
