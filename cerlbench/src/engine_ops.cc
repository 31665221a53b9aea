#include "engine_ops.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "serve/effect_snapshot.h"

namespace cerl::bench {

namespace {

void ThrowIfError(const Status& status, const char* what) {
  if (!status.ok()) {
    throw std::runtime_error(std::string(what) + ": " + status.ToString());
  }
}

}  // namespace

void RemoveFile(const std::string& path) { std::remove(path.c_str()); }

Engine SetUpEngine(const stream::StreamEngineOptions& options,
                   const std::vector<Tenant>& tenants, int features,
                   double* setup_ms) {
  const Clock::time_point start = Clock::now();
  Engine e;
  e.engine = std::make_unique<stream::StreamEngine>(options);
  if (!options.storage_path.empty() || !options.wal_path.empty()) {
    ThrowIfError(e.engine->OpenStorage(), "OpenStorage");
  }
  e.ids.reserve(tenants.size());
  for (size_t t = 0; t < tenants.size(); ++t) {
    e.ids.push_back(e.engine->AddStream("tenant-" + std::to_string(t),
                                        tenants[t].config, features));
  }
  e.ctx = e.engine->CreateQueryContext();
  *setup_ms = MsBetween(start, Clock::now());
  return e;
}

// --- Layer counters ----------------------------------------------------

void CollectEngineStats(const Engine& e, LayerStats* stats) {
  const stream::StreamEngine& engine = *e.engine;
  const stream::StreamSchedStats total = engine.TotalSchedStats();
  stats->engine_p99_ms.push_back(total.completion_latency.Percentile(0.99));
  stats->cost_model_err = total.cost_model_error;
  stats->steals += engine.steal_count();
  for (int id : e.ids) {
    for (const stream::DomainResult& r : engine.results(id)) {
      stats->retries += r.attempts - 1;
      if (!r.status.ok()) continue;
      ++stats->trained;
      stats->train_wall_s += r.stats.wall_seconds;
      stats->train_steps += r.stats.steps;
      stats->train_samples += r.stats.samples_seen;
      stats->train_epochs += r.stats.epochs_run;
    }
    stats->query_rejected += engine.query_stats(id).rejected;
  }
  const stream::StreamEngine::StorageStats storage = engine.storage_stats();
  stats->spills += storage.spills;
  stats->fault_backs += storage.fault_backs;
  stats->pool_hits += storage.pool_hits;
  stats->pool_misses += storage.pool_misses;
}

Sampler::Sampler(const Engine* e, LayerStats* stats)
    : engine_(e), stats_(stats), thread_([this] {
        while (!stop_.load()) {
          int backlog = 0;
          for (int id : engine_->ids) {
            backlog += engine_->engine->sched_stats(id).queue_depth;
          }
          stats_->backlog_max = std::max(stats_->backlog_max, backlog);
          stats_->threads_peak = std::max(stats_->threads_peak, ThreadCount());
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
      }) {}

Sampler::~Sampler() {
  stop_.store(true);
  thread_.join();
}

// --- Pushing and freshness ---------------------------------------------

bool TimedPush(Engine* e, int tenant, int domain_index,
               const data::DataSplit& split, Report* report,
               std::vector<double>* push_us) {
  data::DataSplit copy = split;
  ScopedSpan span("PushDomain", 'd', tenant, domain_index);
  const Clock::time_point start = Clock::now();
  const Status status = e->engine->PushDomain(e->ids[tenant], std::move(copy));
  if (push_us != nullptr) {
    push_us->push_back(MsBetween(start, Clock::now()) * 1e3);
  }
  ++report->attempted;
  if (!status.ok()) ++report->failed;
  return status.ok();
}

Coverage::Coverage(int tenants)
    : due_(tenants), covered_(tenants, 0), base_(tenants, 0) {}

void Coverage::Pushed(int tenant, Clock::time_point due) {
  due_[tenant].push_back(due);
  ++pushed_;
}

int64_t Coverage::Poll(const Engine& e) {
  for (size_t t = 0; t < due_.size(); ++t) {
    const int pushed = static_cast<int>(due_[t].size());
    if (covered_[t] >= pushed) continue;
    const std::shared_ptr<const serve::EffectSnapshot> snap =
        e.engine->effect_snapshot(e.ids[t]);
    if (snap == nullptr) continue;
    const int trained = std::min(snap->stage - base_[t], pushed);
    if (trained <= covered_[t]) continue;
    for (int k = covered_[t]; k < trained; ++k) {
      freshness_ms_.push_back(
          std::max(0.0, MsBetween(due_[t][k], snap->published_at)));
    }
    covered_total_ += trained - covered_[t];
    covered_[t] = trained;
    last_publish_ = std::max(last_publish_, snap->published_at);
  }
  return outstanding();
}

void Coverage::FinishMisses() {
  for (size_t t = 0; t < due_.size(); ++t) {
    const int pushed = static_cast<int>(due_[t].size());
    for (int k = covered_[t]; k < pushed; ++k) {
      freshness_ms_.push_back(std::numeric_limits<double>::infinity());
    }
    covered_[t] = pushed;
  }
  covered_total_ = pushed_;
}

// --- Correctness checks ------------------------------------------------

void CheckAccounting(const Engine& e, const std::vector<int>& accepted,
                     const RunOptions& options, Report* report) {
  for (size_t t = 0; t < e.ids.size(); ++t) {
    const std::vector<stream::DomainResult>& results =
        e.engine->results(e.ids[t]);
    int trained = 0, dropped = 0;
    for (const stream::DomainResult& r : results) {
      (r.status.ok() ? trained : dropped) += 1;
    }
    report->failed += dropped;
    const int expected =
        accepted[t] + (options.perturb == Perturb::kAccounting && t == 0);
    report->Check(static_cast<int>(results.size()) == expected &&
                      trained + dropped == expected,
                  "accounting: tenant " + std::to_string(t) + " accepted " +
                      std::to_string(expected) + " domains but has " +
                      std::to_string(trained) + " trained + " +
                      std::to_string(dropped) + " dropped");
  }
}

void VerifyQueries(Engine* e, const std::vector<const linalg::Matrix*>& rows,
                   int rows_per_tenant, const RunOptions& options,
                   Report* report, std::vector<double>* latency_us) {
  bool perturb_next = options.perturb == Perturb::kQuery;
  for (size_t t = 0; t < e->ids.size(); ++t) {
    const int id = e->ids[t];
    // Tenants that never received a domain have no model to query.
    if (e->engine->effect_snapshot(id) == nullptr) continue;
    const linalg::Matrix& x = *rows[t];
    const int n = std::min(rows_per_tenant, x.rows());
    linalg::Matrix sub(n, x.cols());
    std::copy(x.row(0), x.row(0) + sub.size(), sub.data());
    // A spilled tenant's trainer lives in the page store until faulted in.
    const Status resident = e->engine->EnsureResident(id);
    report->Check(resident.ok(), "EnsureResident: " + resident.ToString());
    if (!resident.ok()) continue;
    const linalg::Vector expected = e->engine->trainer(id).PredictIte(sub);
    int mismatches = 0;
    for (int i = 0; i < n; ++i) {
      double ite = 0.0;
      Status status;
      {
        ScopedSpan span("QueryEffect", 'q', static_cast<int>(t), i);
        const Clock::time_point start = Clock::now();
        status = e->engine->QueryEffect(e->ctx, id, sub.row(i), sub.cols(),
                                        &ite);
        latency_us->push_back(MsBetween(start, Clock::now()) * 1e3);
      }
      ++report->attempted;
      if (!status.ok()) {
        ++report->failed;
        ++mismatches;
        continue;
      }
      double want = expected[i];
      if (perturb_next) {  // the first checked answer
        want = std::nextafter(want, std::numeric_limits<double>::infinity());
        perturb_next = false;
      }
      if (std::memcmp(&ite, &want, sizeof(double)) != 0) ++mismatches;
    }
    report->Check(mismatches == 0,
                  "query: tenant " + std::to_string(t) + " has " +
                      std::to_string(mismatches) +
                      " QueryEffect answers not bitwise equal to PredictIte");
  }
}

Fingerprints CaptureFingerprints(const Engine& e, Report* report) {
  Fingerprints f;
  for (int id : e.ids) {
    const std::shared_ptr<const serve::EffectSnapshot> snap =
        e.engine->effect_snapshot(id);
    f.stage.push_back(snap ? snap->stage : -1);
    f.fingerprint.push_back(snap ? snap->fingerprint : 0);
    if (snap != nullptr) {
      report->Check(serve::SnapshotFingerprint(*snap) == snap->fingerprint,
                    "snapshot of stream " + std::to_string(id) +
                        " does not match its own fingerprint");
    }
  }
  return f;
}

RecoverTimes RecoverAndVerify(const stream::StreamEngineOptions& options,
                              const std::string& snapshot_path,
                              const Fingerprints& want,
                              const RunOptions& run, Report* report) {
  stream::StreamEngine engine(options);
  RecoverTimes times;
  const Clock::time_point start = Clock::now();
  if (options.storage_path.empty() && options.wal_path.empty()) {
    // Without a page store or WAL the restart path is the snapshot alone.
    ScopedSpan span("LoadSnapshot");
    ThrowIfError(engine.LoadSnapshot(snapshot_path), "LoadSnapshot");
  } else {
    ScopedSpan span("Recover");
    ThrowIfError(engine.Recover(snapshot_path), "Recover");
  }
  const Clock::time_point recovered = Clock::now();
  {
    ScopedSpan span("Drain");
    engine.Drain();
  }
  const Clock::time_point drained = Clock::now();
  report->Check(engine.num_streams() == static_cast<int>(want.stage.size()),
                "recover: stream count differs from the dropped engine");
  // The perturbation alters the first stream that has a model.
  const int perturbed =
      run.perturb != Perturb::kFingerprint
          ? -1
          : static_cast<int>(
                std::find_if(want.stage.begin(), want.stage.end(),
                             [](int stage) { return stage >= 0; }) -
                want.stage.begin());
  int mismatches = 0;
  for (int id = 0; id < engine.num_streams() &&
                   id < static_cast<int>(want.stage.size());
       ++id) {
    const std::shared_ptr<const serve::EffectSnapshot> snap =
        engine.effect_snapshot(id);
    uint64_t expected = want.fingerprint[id];
    if (id == perturbed) expected ^= 1;
    const bool same = snap ? snap->stage == want.stage[id] &&
                                 snap->fingerprint == expected
                           : want.stage[id] == -1;
    if (!same) ++mismatches;
  }
  report->Check(mismatches == 0,
                "recover: " + std::to_string(mismatches) +
                    " streams' snapshot fingerprints differ from before "
                    "the drop");
  times.call_ms = MsBetween(start, recovered);
  times.drain_ms = MsBetween(recovered, drained);
  times.total_ms = MsBetween(start, Clock::now());
  return times;
}

void TimedSnapshot(Engine* e, const std::string& path, Report* report,
                   LayerStats* stats) {
  stream::StreamEngine::SnapshotInfo info;
  const Clock::time_point start = Clock::now();
  Status status;
  {
    ScopedSpan span("SaveSnapshot");
    status = e->engine->SaveSnapshot(path, &info);
  }
  const double ms = MsBetween(start, Clock::now());
  report->Check(status.ok(), "SaveSnapshot: " + status.ToString());
  if (stats != nullptr) {
    stats->snapshot_ms.push_back(ms);
    stats->snapshot_serialize_ms.push_back(info.serialize_ms);
    stats->snapshot_dirty_ratio.push_back(
        info.num_streams == 0
            ? 0.0
            : static_cast<double>(info.dirty_streams) / info.num_streams);
  }
}

}  // namespace cerl::bench
