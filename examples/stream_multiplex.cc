// Multi-tenant stream multiplexing: several independent CERL scenario
// streams served concurrently by one stream::StreamEngine.
//
// Three tenants share the engine's workers, each with its own trainer,
// memory bank and seeds:
//   - "news":      topic-model benchmark batches under moderate shift;
//   - "marketing": city-by-city coupon rollout (synthetic cohorts);
//   - "synthetic": the paper's §IV-C covariate-shift stream.
// Domains are pushed as they "arrive"; the engine validates each pushed
// domain on the shared pool, then pipelines ingest -> train -> migrate per
// stream (serialized within a stream, parallel across streams). For
// comparison the same work is rerun serially — per-stream results are
// bit-identical either way; only the wall clock changes (on multicore
// hosts).
//
// The run also demonstrates a rolling restart: mid-run — with domains still
// queued — the engine snapshots itself to disk (SaveSnapshot drains each
// stream to a domain boundary, journals the queued work, and keeps
// serving), and a FRESH engine restores from the file (LoadSnapshot),
// replays the journal, and finishes with bit-identical trainers.
//
// Run: ./build/examples/stream_multiplex
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "data/synthetic.h"
#include "data/topic_benchmark.h"
#include "stream/stream_engine.h"
#include "util/timer.h"

namespace {

using namespace cerl;  // NOLINT

struct Scenario {
  const char* name;
  core::CerlConfig config;
  int input_dim;
  std::vector<data::DataSplit> domains;
};

core::CerlConfig SmallConfig(uint64_t seed) {
  core::CerlConfig config;
  config.net.rep_hidden = {32};
  config.net.rep_dim = 16;
  config.net.head_hidden = {16};
  config.train.epochs = 25;
  config.train.batch_size = 64;
  config.train.patience = 25;
  config.train.seed = seed;
  config.memory_capacity = 150;
  return config;
}

std::vector<Scenario> BuildScenarios() {
  std::vector<Scenario> scenarios;

  {  // News: word-count covariates, moderate topic shift between batches.
    Scenario s;
    s.name = "news";
    s.config = SmallConfig(101);
    data::TopicBenchmarkConfig config = data::NewsConfigSmall();
    config.shift = data::DomainShift::kModerate;
    config.seed = 17;
    data::TopicBenchmark bench = data::GenerateTopicBenchmark(config);
    Rng rng(18);
    s.domains = data::SplitStream(bench.domains, &rng);
    s.input_dim = bench.domains[0].num_features();
    scenarios.push_back(std::move(s));
  }
  {  // Marketing: three synthetic city cohorts (coupon rollout).
    Scenario s;
    s.name = "marketing";
    s.config = SmallConfig(202);
    data::SyntheticConfig config;
    config.num_domains = 3;
    config.units_per_domain = 600;
    config.seed = 2026;
    data::SyntheticStream stream = data::GenerateSyntheticStream(config);
    Rng rng(19);
    s.domains = data::SplitStream(stream.domains, &rng);
    s.input_dim = config.num_features();
    scenarios.push_back(std::move(s));
  }
  {  // Synthetic: the paper's covariate-shift stream, reduced scale.
    Scenario s;
    s.name = "synthetic";
    s.config = SmallConfig(303);
    data::SyntheticConfig config;
    config.num_domains = 3;
    config.units_per_domain = 500;
    config.mean_shift = 1.0;
    config.seed = 4;
    data::SyntheticStream stream = data::GenerateSyntheticStream(config);
    Rng rng(20);
    s.domains = data::SplitStream(stream.domains, &rng);
    s.input_dim = config.num_features();
    scenarios.push_back(std::move(s));
  }
  return scenarios;
}

}  // namespace

int main() {
  std::vector<Scenario> scenarios = BuildScenarios();

  // --- Concurrent: every stream multiplexed over the engine's workers ---
  WallTimer engine_timer;
  stream::StreamEngine engine;
  std::vector<int> ids;
  for (const Scenario& s : scenarios) {
    ids.push_back(engine.AddStream(s.name, s.config, s.input_dim));
  }
  for (size_t i = 0; i < scenarios.size(); ++i) {
    for (const data::DataSplit& split : scenarios[i].domains) {
      // Copies; real feeds would move. A push can shed with a typed reject
      // (quarantined tenant, full queue) — e.g. under a CERL_FAULTS chaos
      // spec — and the fleet keeps serving.
      Status pushed = engine.PushDomain(ids[i], split);
      if (!pushed.ok()) {
        std::printf("stream '%s': push shed (%s)\n", scenarios[i].name,
                    pushed.ToString().c_str());
      }
    }
  }

  // Snapshot UNDER LOAD: most pushed domains are still queued, so the
  // container carries every trainer plus a replay journal of pending work.
  const char* snap_path = "stream_multiplex.snap";
  stream::StreamEngine::SnapshotInfo snap_info;
  Status snap = engine.SaveSnapshot(snap_path, &snap_info);
  if (!snap.ok()) {
    std::printf("snapshot failed: %s\n", snap.ToString().c_str());
    return 1;
  }

  engine.Drain();
  const double engine_seconds = engine_timer.ElapsedSeconds();

  std::printf("stream multiplexing — %d tenants on %d workers\n\n",
              engine.num_streams(), engine.num_workers());
  std::printf("%-11s %7s %9s %12s %14s\n", "stream", "domain", "epochs",
              "sqrt(PEHE)", "memory units");
  for (size_t i = 0; i < scenarios.size(); ++i) {
    for (const stream::DomainResult& r : engine.results(ids[i])) {
      if (!r.status.ok()) {
        std::printf("%-11s %7d   dropped: %s\n", scenarios[i].name,
                    r.domain_index, r.status.ToString().c_str());
        continue;
      }
      std::printf("%-11s %7d %9d %12.3f %14d\n", scenarios[i].name,
                  r.domain_index, r.stats.epochs_run,
                  r.has_metrics ? r.metrics.pehe : -1.0, r.memory_units);
    }
    if (engine.health(ids[i]) != stream::StreamHealth::kHealthy) {
      std::printf("%-11s         health: %s\n", scenarios[i].name,
                  stream::StreamHealthName(engine.health(ids[i])));
    }
  }

  // --- Rolling restart: a fresh engine resumes from the snapshot --------
  std::printf("\nsnapshot under load: %d streams, %d domains trained, "
              "%d journaled (still queued at the fence)\n",
              snap_info.num_streams, snap_info.completed_domains,
              snap_info.journaled_domains);
  stream::StreamEngine resumed;
  Status restored = resumed.LoadSnapshot(snap_path);
  if (!restored.ok()) {
    std::printf("restore failed: %s\n", restored.ToString().c_str());
    return 1;
  }
  resumed.Drain();  // journal replays: queued domains train in push order
  double max_restart_diff = 0.0;
  for (size_t i = 0; i < scenarios.size(); ++i) {
    // A stream with no trained stage (e.g. quarantined before its first
    // domain completed under fault injection) has no model to query.
    if (engine.trainer(ids[i]).stages_seen() == 0 ||
        resumed.trainer(static_cast<int>(i)).stages_seen() == 0) {
      continue;
    }
    const linalg::Matrix& probe = scenarios[i].domains[0].test.x;
    const linalg::Vector a = engine.trainer(ids[i]).PredictIte(probe);
    const linalg::Vector b =
        resumed.trainer(static_cast<int>(i)).PredictIte(probe);
    for (size_t u = 0; u < a.size(); ++u) {
      max_restart_diff = std::max(max_restart_diff, std::abs(a[u] - b[u]));
    }
  }
  std::printf("restored engine finished the journal; max |ITE diff| vs the "
              "uninterrupted engine: %g (bit-identical restart)\n",
              max_restart_diff);

  // --- Serial reference: identical math, one domain at a time ----------
  WallTimer serial_timer;
  for (const Scenario& s : scenarios) {
    core::CerlTrainer trainer(s.config, s.input_dim);
    for (const data::DataSplit& split : s.domains) {
      trainer.ObserveDomain(split);
    }
  }
  const double serial_seconds = serial_timer.ElapsedSeconds();

  std::printf("\nwall time: engine %.2fs vs serial %.2fs (%.2fx aggregate "
              "throughput; gains require multiple hardware threads)\n",
              engine_seconds, serial_seconds,
              serial_seconds / engine_seconds);
  std::printf("per-stream results are bit-identical in both modes — the "
              "engine changes scheduling, never math.\n");
  return 0;
}
