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
// The run also demonstrates a rolling restart: the engine logs every
// accepted domain to a write-ahead log, and mid-run — with domains still
// queued — it snapshots itself to disk (SaveSnapshot drains each stream to a
// domain boundary, writes the trained state, compacts the WAL down to the
// still-queued domains, and keeps serving). After the engine is gone, a
// FRESH engine recovers from snapshot + WAL (Recover), replays the queued
// domains, and must finish with bit-identical trainers: the program exits 1
// if any restored ITE differs. Its files live in a fresh temporary
// directory, removed at exit. Also registered as a ctest smoke test.
//
// Run: ./build/examples/stream_multiplex
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>

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
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("cerl_stream_multiplex_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string snap_path = (dir / "engine.snap").string();
  stream::StreamEngineOptions options;
  options.wal_path = (dir / "engine.wal").string();

  // --- Concurrent: every stream multiplexed over the engine's workers ---
  WallTimer engine_timer;
  auto engine = std::make_unique<stream::StreamEngine>(options);
  Status opened = engine->OpenStorage();
  if (!opened.ok()) {
    std::printf("WAL open failed: %s\n", opened.ToString().c_str());
    return 1;
  }
  std::vector<int> ids;
  for (const Scenario& s : scenarios) {
    ids.push_back(engine->AddStream(s.name, s.config, s.input_dim));
  }
  for (size_t i = 0; i < scenarios.size(); ++i) {
    for (const data::DataSplit& split : scenarios[i].domains) {
      // Copies; real feeds would move. A push can shed with a typed reject
      // (quarantined tenant, full queue) — e.g. under a CERL_FAULTS chaos
      // spec — and the fleet keeps serving.
      Status pushed = engine->PushDomain(ids[i], split);
      if (!pushed.ok()) {
        std::printf("stream '%s': push shed (%s)\n", scenarios[i].name,
                    pushed.ToString().c_str());
      }
    }
  }

  // Snapshot UNDER LOAD: most pushed domains are still queued. The
  // snapshot carries every trainer; the queued domains stay in the WAL.
  stream::StreamEngine::SnapshotInfo snap_info;
  Status snap = engine->SaveSnapshot(snap_path, &snap_info);
  if (!snap.ok()) {
    std::printf("snapshot failed: %s\n", snap.ToString().c_str());
    return 1;
  }

  engine->Drain();
  const double engine_seconds = engine_timer.ElapsedSeconds();

  std::printf("stream multiplexing — %d tenants on %d workers\n\n",
              engine->num_streams(), engine->num_workers());
  std::printf("%-11s %7s %9s %12s %14s\n", "stream", "domain", "epochs",
              "sqrt(PEHE)", "memory units");
  for (size_t i = 0; i < scenarios.size(); ++i) {
    for (const stream::DomainResult& r : engine->results(ids[i])) {
      if (!r.status.ok()) {
        std::printf("%-11s %7d   dropped: %s\n", scenarios[i].name,
                    r.domain_index, r.status.ToString().c_str());
        continue;
      }
      std::printf("%-11s %7d %9d %12.3f %14d\n", scenarios[i].name,
                  r.domain_index, r.stats.epochs_run,
                  r.has_metrics ? r.metrics.pehe : -1.0, r.memory_units);
    }
    if (engine->health(ids[i]) != stream::StreamHealth::kHealthy) {
      std::printf("%-11s         health: %s\n", scenarios[i].name,
                  stream::StreamHealthName(engine->health(ids[i])));
    }
  }

  // The uninterrupted engine's final ITEs (empty for a stream with no
  // trained stage, e.g. quarantined before its first domain completed
  // under fault injection), then the engine goes away like a stopped
  // process.
  std::vector<linalg::Vector> want(scenarios.size());
  for (size_t i = 0; i < scenarios.size(); ++i) {
    if (engine->trainer(ids[i]).stages_seen() > 0) {
      want[i] = engine->trainer(ids[i]).PredictIte(
          scenarios[i].domains[0].test.x);
    }
  }
  engine.reset();

  // --- Rolling restart: a fresh engine recovers from snapshot + WAL -----
  std::printf("\nsnapshot under load: %d streams, %d domains trained, "
              "%d still queued at the fence (kept in the WAL)\n",
              snap_info.num_streams, snap_info.completed_domains,
              snap_info.queued_domains);
  stream::StreamEngine resumed(options);
  Status recovered = resumed.Recover(snap_path);
  if (!recovered.ok()) {
    std::printf("recover failed: %s\n", recovered.ToString().c_str());
    return 1;
  }
  resumed.Drain();  // WAL replay: the queued domains train in push order
  bool identical = true;
  double max_restart_diff = 0.0;
  for (size_t i = 0; i < scenarios.size(); ++i) {
    const int id = static_cast<int>(i);
    if (want[i].empty() != (resumed.trainer(id).stages_seen() == 0)) {
      identical = false;
      continue;
    }
    if (want[i].empty()) continue;
    const linalg::Vector got =
        resumed.trainer(id).PredictIte(scenarios[i].domains[0].test.x);
    for (size_t u = 0; u < got.size(); ++u) {
      identical = identical && got[u] == want[i][u];
      max_restart_diff = std::max(max_restart_diff,
                                  std::abs(got[u] - want[i][u]));
    }
  }
  std::filesystem::remove_all(dir);
  std::printf("recovered engine replayed the WAL; max |ITE diff| vs the "
              "uninterrupted engine: %g\n",
              max_restart_diff);
  if (!identical) {
    std::printf("FAILED: the restart is not bit-identical\n");
    return 1;
  }

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
