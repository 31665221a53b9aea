// Engine-facing helpers shared by the three workloads: timed set-up, timed
// pushes, freshness tracking from published snapshots, the correctness
// checks, snapshot + Recover, the traced-run layer counters, and the
// serial replay probes.
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"

namespace cerl::bench {

struct Tenant {
  core::CerlConfig config;
  std::vector<data::DataSplit> domains;
};

struct Engine {
  std::unique_ptr<stream::StreamEngine> engine;
  std::vector<int> ids;
  stream::QueryContext* ctx = nullptr;
};

/// Engine construction + OpenStorage (when a store or WAL is configured) +
/// every AddStream + CreateQueryContext; the elapsed ms land in *setup_ms.
Engine SetUpEngine(const stream::StreamEngineOptions& options,
                   const std::vector<Tenant>& tenants, int features,
                   double* setup_ms);

/// Per-layer counters gathered over the traced part of a run.
struct LayerStats {
  int threads_peak = 0;
  int backlog_max = 0;
  double cpu_s = 0.0;
  double wall_s = 0.0;
  int64_t cswitches = 0;
  int64_t domains = 0;  ///< domains completed in the traced part
  double train_wall_s = 0.0;
  int64_t train_steps = 0;
  int64_t train_samples = 0;
  int64_t train_epochs = 0;
  int64_t trained = 0;
  int64_t retries = 0;
  std::vector<double> engine_p99_ms;
  double cost_model_err = 0.0;
  int64_t steals = 0;
  std::vector<double> snapshot_ms;
  std::vector<double> snapshot_serialize_ms;
  std::vector<double> snapshot_dirty_ratio;
  std::vector<double> recover_call_ms;
  std::vector<double> replay_drain_ms;
  int64_t query_rejected = 0;
  int64_t spills = 0;
  int64_t fault_backs = 0;
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;
  std::vector<double> gen_late_ms;
  std::vector<double> push_us;
  /// Headline per-domain time of the untraced and traced halves, for
  /// bench.trace_overhead.
  std::vector<double> untraced_headline;
  std::vector<double> traced_headline;
};

/// Folds one drained engine's scheduler, training, serving and storage
/// counters into `stats`.
void CollectEngineStats(const Engine& e, LayerStats* stats);

/// Samples the process thread count and the engine's summed queue depth
/// every few milliseconds while alive (traced runs only).
class Sampler {
 public:
  Sampler(const Engine* e, LayerStats* stats);
  ~Sampler();
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

 private:
  const Engine* engine_;
  LayerStats* stats_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// Copies `split` outside the timed region, then pushes it with a span and
/// a timed PushDomain. Counts the attempt and a reject.
bool TimedPush(Engine* e, int tenant, int domain_index,
               const data::DataSplit& split, Report* report,
               std::vector<double>* push_us);

/// Freshness bookkeeping: every accepted domain's due time, and how many
/// of each tenant's domains the published snapshots already cover. A domain
/// is fresh at the publish time of the first snapshot seen to cover it.
class Coverage {
 public:
  explicit Coverage(int tenants);
  /// Stage of the tenant's snapshot before the measured domains (warm-up).
  void SetBase(int tenant, int stage) { base_[tenant] = stage; }
  void Pushed(int tenant, Clock::time_point due);
  /// Polls only tenants with uncovered domains; returns how many domains
  /// are still uncovered.
  int64_t Poll(const Engine& e);
  /// Counts every still-uncovered domain as a miss (dropped domains).
  void FinishMisses();
  int64_t outstanding() const { return pushed_ - covered_total_; }
  int64_t covered() const { return covered_total_; }
  const std::vector<double>& freshness_ms() const { return freshness_ms_; }
  Clock::time_point last_publish() const { return last_publish_; }

 private:
  std::vector<std::vector<Clock::time_point>> due_;
  std::vector<int> covered_;
  std::vector<int> base_;
  std::vector<double> freshness_ms_;
  int64_t pushed_ = 0;
  int64_t covered_total_ = 0;
  Clock::time_point last_publish_{};
};

/// Accepted domains per tenant equal trained + dropped, and the engine
/// holds one result per accepted domain. Dropped domains count as failed.
void CheckAccounting(const Engine& e, const std::vector<int>& accepted,
                     const RunOptions& options, Report* report);

/// After a drain: a sample of single-row QueryEffect answers per tenant
/// with a published model is bitwise equal to trainer(id).PredictIte on
/// the same rows. The query
/// latencies (closed loop, quiescent engine) are appended to latency_us.
void VerifyQueries(Engine* e, const std::vector<const linalg::Matrix*>& rows,
                   int rows_per_tenant, const RunOptions& options,
                   Report* report, std::vector<double>* latency_us);

/// Stage and fingerprint of every stream's published snapshot.
struct Fingerprints {
  std::vector<int> stage;
  std::vector<uint64_t> fingerprint;
};
Fingerprints CaptureFingerprints(const Engine& e, Report* report);

/// Timings of one Recover into a fresh engine.
struct RecoverTimes {
  double total_ms = 0.0;   ///< Recover() start -> drained and verified
  double call_ms = 0.0;    ///< the Recover() call
  double drain_ms = 0.0;   ///< the Drain() after it
};

/// Builds a fresh engine with `options`, runs Recover(snapshot) (or
/// LoadSnapshot when neither a page store nor a WAL is configured), drains,
/// and checks every stream's snapshot fingerprint against `want`.
RecoverTimes RecoverAndVerify(const stream::StreamEngineOptions& options,
                              const std::string& snapshot_path,
                              const Fingerprints& want,
                              const RunOptions& run, Report* report);

/// Timed SaveSnapshot; fills the snapshot counters when `stats` is set.
void TimedSnapshot(Engine* e, const std::string& path, Report* report,
                   LayerStats* stats);

/// Serial replay of `sequences` (each one tenant's domains, in order)
/// through the layers' public entry points, plus the single-call layer
/// probes at the workload's shapes. Writes every probe metric and the
/// LayerStats-derived metrics into `report`.
struct ProbeInput {
  std::vector<core::CerlConfig> configs;
  std::vector<std::vector<const data::DataSplit*>> sequences;
  int features = 0;
  double ingest_dps = 0.0;  ///< the workload's ingest_dps, for stream.speedup
};
void EmitLayerMetrics(const ProbeInput& probe, const LayerStats& stats,
                      const RunOptions& options, Report* report);

/// Removes a file if present (scratch files of the run).
void RemoveFile(const std::string& path);

}  // namespace cerl::bench
