#include "stream/stream_engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <utility>

#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/tenant_store.h"
#include "storage/wal.h"
#include "stream/stream_internal.h"
#include "util/check.h"
#include "util/fault_injection.h"
#include "util/logging.h"

namespace cerl::stream {

int BackoffMs(int base_ms, int attempt) {
  constexpr int kMaxBackoffMs = 100;
  if (base_ms <= 0) return 0;
  // Clamp before shifting: 100 << 6 fits an int, so no base can overflow.
  const int shift = std::clamp(attempt - 1, 0, 6);
  return std::min(kMaxBackoffMs, std::min(base_ms, kMaxBackoffMs) << shift);
}

const char* StreamHealthName(StreamHealth health) {
  switch (health) {
    case StreamHealth::kHealthy: return "healthy";
    case StreamHealth::kDegraded: return "degraded";
    case StreamHealth::kQuarantined: return "quarantined";
  }
  return "unknown";
}

StreamEngine::StreamEngine(const StreamEngineOptions& options)
    : options_(options),
      pool_(WorkStealingPoolOptions{
          options.num_workers,
          options.schedule_policy == SchedulePolicy::kCostAware}) {
  // Honor the CERL_FAULTS chaos spec in any binary that hosts an engine.
  // Once per process: arming is cumulative, and a second engine must not
  // duplicate every rule's fire budget.
  static const bool armed = [] {
    FaultInjector::ArmFromEnv();
    return true;
  }();
  (void)armed;
}

StreamEngine::~StreamEngine() { Drain(); }

StreamEngine::StreamState& StreamEngine::stream(int id) {
  CERL_CHECK(id >= 0 && id < num_streams());
  return *streams_[id];
}

const StreamEngine::StreamState& StreamEngine::stream(int id) const {
  CERL_CHECK(id >= 0 && id < num_streams());
  return *streams_[id];
}

void StreamEngine::SetHealth(StreamState* s, StreamHealth health) {
  s->health = health;
  // The query path reads this mirror instead of taking state_mutex_; plain
  // relaxed is enough (staleness flagging needs no ordering with the
  // snapshot pointer — both values are independently consistent).
  s->health_mirror.store(static_cast<uint8_t>(health),
                         std::memory_order_relaxed);
}

int StreamEngine::AddStream(std::string name, const core::CerlConfig& config,
                            int input_dim) {
  // Registration happens under the engine lock: the spill scheduler and WAL
  // compaction iterate streams_ while holding it, and the WAL append below
  // must be ordered against concurrent domain appends.
  std::lock_guard<std::mutex> lock(state_mutex_);
  streams_.push_back(std::make_unique<StreamState>(
      std::move(name), config, input_dim, &pool_));
  const int id = num_streams() - 1;
  // Home worker by round-robin over the stream id: streams spread evenly,
  // and the assignment is deterministic so the steal tests can pin it.
  StreamState& s = *streams_[id];
  s.id = id;
  s.home = id % pool_.num_threads();
  s.touch_tick = ++storage_tick_;
  ExecOptions opts;
  opts.home = s.home;
  s.group.SetExecOptions(opts);
  if (wal_ != nullptr && !wal_replaying_) {
    Status logged = WalLogAddStreamLocked(s);
    if (!logged.ok()) {
      // AddStream has no failure channel; an unlogged registration only
      // matters if the process dies before the next snapshot, so warn
      // loudly rather than abort the tenant.
      CERL_LOG(Error) << "stream '" << s.name
                      << "' registration not logged to WAL: "
                      << logged.ToString();
    }
  }
  return id;
}

Status StreamEngine::PushDomain(int id, data::DataSplit split) {
  if (id < 0 || id >= num_streams()) {
    return Status::NotFound("no stream with id " + std::to_string(id));
  }
  StreamState& s = *streams_[id];
  auto owned = std::make_unique<PendingDomain>();
  owned->split = std::move(split);

  std::lock_guard<std::mutex> lock(state_mutex_);
  // Admission control: both rejects are evaluated under the same lock that
  // admits, so concurrent pushes can never overshoot the queue bound.
  if (s.health == StreamHealth::kQuarantined) {
    return Status::Unavailable("stream '" + s.name + "' is quarantined");
  }
  if (options_.max_queued_domains > 0 &&
      static_cast<int>(s.queue.size()) >= options_.max_queued_domains) {
    return Status::ResourceExhausted(
        "stream '" + s.name + "' queue is full (" +
        std::to_string(s.queue.size()) + " domains queued)");
  }
  // Accepted implies logged: the WAL append happens under the same lock
  // that admits (log order == push order), and a failed append REJECTS the
  // push — the caller must never believe a domain is recoverable when it is
  // not. EnqueueLocked below assigns this domain index (s.pushed).
  if (wal_ != nullptr) {
    Status logged = WalLogDomainLocked(s, s.pushed, owned->split);
    if (!logged.ok()) {
      return Status::IoError("domain rejected: WAL append failed: " +
                             logged.message());
    }
  }
  EnqueueLocked(&s, std::move(owned));
  return Status::Ok();
}

void StreamEngine::EnqueueLocked(StreamState* s,
                                 std::unique_ptr<PendingDomain> domain) {
  PendingDomain* d = domain.get();
  d->domain_index = s->pushed++;
  d->shape.n_units = d->split.train.num_units();
  d->shape.epochs = s->trainer.config().train.epochs;
  d->pushed_at = std::chrono::steady_clock::now();
  s->queue.push_back(std::move(domain));
  UpdateScheduleLocked(s);
  MaybeDispatchLocked(s);
}

void StreamEngine::MaybeDispatchLocked(StreamState* s) {
  if (paused_ || s->in_flight != nullptr || s->queue.empty()) return;
  s->in_flight = std::move(s->queue.front());
  s->queue.pop_front();
  SubmitAttemptLocked(s);
}

template <typename Body>
void StreamEngine::RunStageTimed(StreamState* s, PendingDomain* d,
                                 StageKind stage, Body&& body) {
  const auto start = std::chrono::steady_clock::now();
  try {
    FaultScope scope(s->name);
    body();
  } catch (const StatusError& e) {
    d->failure = e.status();
  } catch (const std::exception& e) {
    d->failure = Status::Internal(e.what());
  }
  // A failed stage ran partially — its wall time is not the stage's cost,
  // so only successful stages feed the model. The worker id is read before
  // taking the engine lock purely for tidiness (it is a thread-local).
  if (!d->failure.ok()) return;
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  const int worker = pool_.current_worker();
  std::lock_guard<std::mutex> lock(state_mutex_);
  s->cost_model.Observe(stage, d->shape, ms);
  d->stages_done = static_cast<int>(stage) + 1;
  if (options_.schedule_policy == SchedulePolicy::kCostAware && worker >= 0 &&
      worker != s->home) {
    ++s->stolen_stages;
  }
  // The next pump submission (this stage's completion re-submits it) must
  // carry the refreshed expectation: the stream just got cheaper by one
  // stage, and the rate EWMA may have moved.
  UpdateScheduleLocked(s);
}

void StreamEngine::SubmitAttemptLocked(StreamState* s) {
  PendingDomain* d = s->in_flight.get();
  StreamState* sp = s;
  const int input_dim = s->input_dim;
  d->stages_done = 0;

  // Stage pipeline, serialized per stream by the task group; unrelated
  // streams' groups interleave on the same workers. Every stage body is
  // exception-fenced (RunStageTimed): a data-dependent failure (thrown
  // StatusError from the trainer/OT layers, or any std::exception) lands in
  // d->failure and the finish task routes it to HandleFailure — nothing
  // data-dependent may escape into the pool worker (that would
  // std::terminate the process). RunStageTimed also feeds each successful
  // stage's wall time to the stream's cost model: timing never feeds back
  // into WHAT a stage computes, only into who gets a worker next, so the
  // bit-identity contract is untouched.

  // Ingest: shed quarantined work, validate the domain, then BeginStage.
  s->group.Submit([this, sp, d, input_dim] {
    {
      // A stream quarantined while this domain sat queued sheds it here,
      // through the normal pipeline.
      std::lock_guard<std::mutex> lock(state_mutex_);
      if (sp->health == StreamHealth::kQuarantined) {
        d->failure =
            Status::Unavailable("stream '" + sp->name + "' is quarantined");
        d->terminal = true;
        return;
      }
    }
    // Validated once: a retry only ever follows a domain that passed.
    if (d->attempt == 0) {
      Status valid = core::CerlTrainer::ValidateDomain(d->split, input_dim);
      if (!valid.ok()) {
        // Malformed domain: deterministic data error, dropped without retry
        // (the serial path's CheckConsistent contract, minus the abort).
        d->failure = std::move(valid);
        d->terminal = true;
        return;
      }
    }
    // Fault a spilled tenant back in before the first trainer touch. A
    // store failure drops this domain through the normal failure plane
    // (terminal: a retry on a reset trainer could not be bit-identical);
    // the blob stays in the store for the next domain's attempt.
    if (store_ != nullptr) {
      Status resident = EnsureResidentOnGroup(sp);
      if (!resident.ok()) {
        d->failure = std::move(resident);
        d->terminal = true;
        return;
      }
    }
    RunStageTimed(sp, d, StageKind::kIngest, [sp, d] {
      if (CERL_FAULT_POINT(FaultPoint::kStageThrow)) {
        throw StatusError(Status::Internal("injected stage failure"));
      }
      d->ctx = sp->trainer.BeginStage(d->split);
    });
  });

  // Train, then the post-train numerical guard: a non-finite validation
  // loss means the surviving best snapshot was never beaten by a finite
  // score — the stage trained on garbage.
  s->group.Submit([this, sp, d] {
    if (!d->failure.ok()) return;
    RunStageTimed(sp, d, StageKind::kTrain, [sp, d] {
      sp->trainer.TrainStage(d->ctx.get());
      if (!std::isfinite(d->ctx->stats.best_valid_loss)) {
        throw StatusError(
            Status::NumericalError("non-finite stage validation loss"));
      }
    });
  });

  // Migrate + finish: success bookkeeping or the failure epilogue.
  s->group.Submit([this, sp, d] {
    if (d->failure.ok()) {
      RunStageTimed(sp, d, StageKind::kMigrate, [sp, d] {
        sp->trainer.MigrateStage(d->ctx.get());
        // Post-migrate guard covers the whole durable state: migration just
        // rewrote the memory bank through phi, so params AND memory
        // representations must be finite before this boundary is declared
        // good.
        Status health = sp->trainer.CheckNumericalHealth();
        if (!health.ok()) throw StatusError(health);
      });
    }
    if (!d->failure.ok()) {
      HandleFailure(sp, d);
      return;
    }

    DomainResult result;
    result.domain_index = d->domain_index;
    result.stats = d->ctx->stats;
    result.memory_units = sp->trainer.memory().size();
    result.attempts = d->attempt + 1;
    // Score only when the test split carries counterfactual ground truth
    // (semi-synthetic benchmarks); production domains without mu0/mu1 pass
    // validation and simply skip the PEHE/ATE readout.
    const data::CausalDataset& test = d->split.test;
    if (test.num_units() > 0 &&
        static_cast<int>(test.mu0.size()) == test.num_units()) {
      result.has_metrics = true;
      result.metrics = sp->trainer.Evaluate(test);
    }
    // Capture the new last-good rollback boundary outside the engine lock
    // (the group serializes all trainer access). Doubles as the snapshot
    // blob cache. On the vanishingly unlikely serialize failure the
    // previous boundary stays in place — a stale rollback target beats
    // none (and the stale cache is rejected by its stage tag).
    std::string last_good;
    int last_good_stage = -1;
    if (sp->trainer.SerializeCheckpoint(&last_good).ok()) {
      last_good_stage = sp->trainer.stages_seen();
    } else {
      last_good.clear();
    }
    // Publish the new domain boundary to the serving plane, still outside
    // the engine lock (the group serializes the trainer; readers swap in
    // the snapshot via the RCU exchange, never via state_mutex_).
    PublishSnapshot(sp);
    const double completion_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - d->pushed_at)
            .count();
    {
      std::lock_guard<std::mutex> lock(state_mutex_);
      // Domain-completion latency (push to migrated), successes only:
      // dropped domains have no meaningful service time and would poison
      // the SLO percentiles the bench gates on.
      sp->latency.Record(completion_ms);
      sp->results.push_back(result);
      sp->consecutive_failures = 0;
      if (sp->health == StreamHealth::kDegraded) {
        SetHealth(sp, StreamHealth::kHealthy);
      }
      if (!last_good.empty()) {
        sp->last_good = std::move(last_good);
        sp->last_good_stage = last_good_stage;
      }
      // Raw domain data and stage scratch are dead weight once migrated —
      // long-lived tenant streams must not accumulate covariates (the same
      // accessibility criterion the trainer upholds for its memory). The
      // validation task has long been consumed by this pipeline's ingest
      // stage, so the PendingDomain itself can go.
      sp->in_flight.reset();
      sp->touch_tick = ++storage_tick_;
      MaybeDispatchLocked(sp);
      UpdateScheduleLocked(sp);
      MaybeScheduleSpillsLocked();
      // Notify INSIDE the lock: a drain-waiter may be the engine
      // destructor, and notifying an already-destroyed condvar is a race —
      // holding the mutex pins the engine alive until the call returns.
      state_cv_.notify_all();
    }
  });
}

void StreamEngine::HandleFailure(StreamState* sp, PendingDomain* d) {
  // The attempt is over; drop its stage context before any rollback.
  const bool trainer_touched = d->ctx != nullptr;
  d->ctx.reset();

  if (!d->terminal && trainer_touched) {
    // Roll the trainer back to its last-good domain boundary. BeginStage
    // advanced stages_seen_ (and TrainStage may have poisoned parameters),
    // so the restore is what makes a retry replay the IDENTICAL stage:
    // stage seeds derive from stages_seen_, which the rollback rewinds.
    // last_good is only written at domain boundaries under state_mutex_ and
    // only read here on the stream's serialized group, so the read is safe.
    sp->trainer.Reset();
    if (!sp->last_good.empty()) {
      Status restored = sp->trainer.DeserializeCheckpoint(sp->last_good);
      if (!restored.ok()) {
        // The rollback target itself failed to restore: the stream's state
        // is unrecoverable in place. Drop the domain and let the health
        // machine quarantine below (the trainer is left freshly reset).
        CERL_LOG(Error) << "stream '" << sp->name
                        << "': rollback failed: " << restored.ToString();
        d->failure = Status::Internal("rollback restore failed: " +
                                      restored.message());
        d->terminal = true;
      }
    }
  }

  // Bounded retry (the rollback above is what makes the replay
  // bit-identical). The backoff is a DEADLINE requeue, not a sleep: the domain parks on the pool's timer
  // heap and the worker returns to serving other streams; when the deadline
  // fires, the attempt is resubmitted onto the stream's (idle) strand. The
  // domain stays in_flight throughout, so Drain and the snapshot fence keep
  // waiting it out exactly as before.
  if (!d->terminal && d->attempt < options_.max_domain_retries) {
    const Status failure = d->failure;
    ++d->attempt;
    d->failure = Status::Ok();
    const int delay_ms = BackoffMs(options_.retry_backoff_ms, d->attempt);
    std::lock_guard<std::mutex> lock(state_mutex_);
    if (sp->health == StreamHealth::kHealthy) {
      SetHealth(sp, StreamHealth::kDegraded);
    }
    CERL_LOG(Warning) << "stream '" << sp->name << "' domain "
                      << d->domain_index << " attempt " << d->attempt
                      << " after rollback: " << failure.ToString();
    // Infinite priority like the validation tasks: the requeue itself is
    // microseconds (it only re-submits the stage tasks), and a delayed
    // retry should not additionally queue behind heavy stage work.
    ExecOptions opts;
    opts.priority = std::numeric_limits<double>::infinity();
    pool_.ExecuteAfter(
        delay_ms,
        [this, sp] {
          std::lock_guard<std::mutex> relock(state_mutex_);
          SubmitAttemptLocked(sp);
        },
        opts);
    return;
  }

  // Drop the domain and advance the health state machine.
  DomainResult result;
  result.domain_index = d->domain_index;
  result.status = d->failure;
  result.attempts = d->attempt + 1;
  // Quarantine-shed domains do not re-count toward the failure streak (the
  // stream is already quarantined; the streak recorded how it got there).
  const bool shed = d->terminal &&
                    d->failure.code() == StatusCode::kUnavailable;
  std::lock_guard<std::mutex> lock(state_mutex_);
  sp->results.push_back(std::move(result));
  ++sp->failed_domains;
  if (!shed) {
    ++sp->consecutive_failures;
    if (sp->consecutive_failures >=
        std::max(1, options_.quarantine_after_failures)) {
      SetHealth(sp, StreamHealth::kQuarantined);
      CERL_LOG(Warning) << "stream '" << sp->name << "' quarantined after "
                        << sp->consecutive_failures
                        << " consecutive dropped domains";
    } else {
      SetHealth(sp, StreamHealth::kDegraded);
    }
  }
  sp->in_flight.reset();
  sp->touch_tick = ++storage_tick_;
  MaybeDispatchLocked(sp);
  UpdateScheduleLocked(sp);
  MaybeScheduleSpillsLocked();
  state_cv_.notify_all();
}

double StreamEngine::ExpectedPendingMsLocked(const StreamState& s) const {
  double pending = 0.0;
  for (const auto& queued : s.queue) {
    pending += s.cost_model.PredictDomainMs(queued->shape);
  }
  if (s.in_flight != nullptr) {
    for (int stage = s.in_flight->stages_done; stage < kNumStages; ++stage) {
      pending += s.cost_model.PredictMs(static_cast<StageKind>(stage),
                                        s.in_flight->shape);
    }
  }
  return pending;
}

double StreamEngine::OldestPendingAgeMsLocked(const StreamState& s) const {
  // Per-stream FIFO: the in-flight domain (if any) was pushed before
  // anything still queued.
  const PendingDomain* oldest = s.in_flight != nullptr
                                    ? s.in_flight.get()
                                    : (!s.queue.empty() ? s.queue.front().get()
                                                        : nullptr);
  if (oldest == nullptr) return 0.0;
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - oldest->pushed_at)
      .count();
}

void StreamEngine::UpdateScheduleLocked(StreamState* s) {
  if (options_.schedule_policy != SchedulePolicy::kCostAware) return;
  ExecOptions opts;
  // Longest-expected-queue-first with aging: the age of the stream's oldest
  // un-migrated domain dominates (so completion order tracks arrival order
  // and no tenant can be starved by a heavier one — the pool additionally
  // ages every waiting task at 1 ms/ms), while a fraction of the expected
  // pending work breaks age ties toward backlogged streams, which then
  // drain back-to-back instead of one stage per cycle of the ready set.
  // kPendingWeight trades the two: 1.0 lets a deep backlog pre-empt light
  // tenants for its whole drain (p50 suffers), 0 is plain oldest-first and
  // forfeits the continuous-drain win; 0.5 measured best for p99 on the
  // skewed-tenant SLO bench. Both terms are in milliseconds, the pool's
  // priority unit.
  constexpr double kPendingWeight = 0.5;
  opts.priority = kPendingWeight * ExpectedPendingMsLocked(*s) +
                  OldestPendingAgeMsLocked(*s);
  opts.home = s->home;
  s->group.SetExecOptions(opts);
}

StreamSchedStats StreamEngine::SchedStatsLocked(const StreamState& s) const {
  StreamSchedStats stats;
  stats.queue_depth = static_cast<int>(s.queue.size()) +
                      (s.in_flight != nullptr ? 1 : 0);
  for (int stage = 0; stage < kNumStages; ++stage) {
    stats.ewma_stage_cost_ms[stage] =
        s.cost_model.ewma_stage_ms(static_cast<StageKind>(stage));
  }
  stats.steal_count = s.stolen_stages;
  stats.stages_executed = s.cost_model.observations();
  stats.cost_model_error = s.cost_model.mean_abs_pct_error();
  stats.expected_pending_ms = ExpectedPendingMsLocked(s);
  stats.completion_latency = s.latency;
  return stats;
}

StreamSchedStats StreamEngine::sched_stats(int id) const {
  const StreamState& s = stream(id);
  std::lock_guard<std::mutex> lock(state_mutex_);
  return SchedStatsLocked(s);
}

StreamSchedStats StreamEngine::TotalSchedStats() const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  StreamSchedStats total;
  double weighted_error = 0.0;
  int64_t error_weight = 0;
  for (const auto& s : streams_) {
    const StreamSchedStats stats = SchedStatsLocked(*s);
    total.queue_depth += stats.queue_depth;
    total.steal_count += stats.steal_count;
    total.stages_executed += stats.stages_executed;
    total.expected_pending_ms += stats.expected_pending_ms;
    total.completion_latency.Merge(stats.completion_latency);
    const int64_t scored = s->cost_model.scored_predictions();
    weighted_error += stats.cost_model_error * static_cast<double>(scored);
    error_weight += scored;
    // The per-stage EWMAs do not aggregate meaningfully across streams of
    // different sizes; the total reports the max as "worst stage cost".
    for (int stage = 0; stage < kNumStages; ++stage) {
      total.ewma_stage_cost_ms[stage] = std::max(
          total.ewma_stage_cost_ms[stage], stats.ewma_stage_cost_ms[stage]);
    }
  }
  if (error_weight > 0) {
    total.cost_model_error =
        weighted_error / static_cast<double>(error_weight);
  }
  return total;
}

void StreamEngine::Drain() {
  std::unique_lock<std::mutex> lock(state_mutex_);
  state_cv_.wait(lock, [this] {
    if (paused_) return false;  // snapshot fence first, then keep draining
    for (const auto& s : streams_) {
      // A pending spill task also counts as in-flight work: the destructor
      // relies on Drain leaving no task that could touch engine state (the
      // mutex/condvar are destroyed before the TaskGroups).
      if (s->in_flight != nullptr || !s->queue.empty() || s->spilling) {
        return false;
      }
    }
    return true;
  });
}

Status StreamEngine::DrainStream(int id) {
  if (id < 0 || id >= num_streams()) {
    return Status::NotFound("no stream with id " + std::to_string(id));
  }
  StreamState& s = *streams_[id];
  std::unique_lock<std::mutex> lock(state_mutex_);
  state_cv_.wait(lock, [this, &s] {
    return !paused_ && s.in_flight == nullptr && s.queue.empty() &&
           !s.spilling;
  });
  return Status::Ok();
}

const std::string& StreamEngine::name(int id) const {
  return stream(id).name;
}

const std::vector<DomainResult>& StreamEngine::results(int id) const {
  return stream(id).results;
}

core::CerlTrainer& StreamEngine::trainer(int id) { return stream(id).trainer; }

StreamHealth StreamEngine::health(int id) const {
  const StreamState& s = stream(id);
  std::lock_guard<std::mutex> lock(state_mutex_);
  return s.health;
}

int StreamEngine::consecutive_failures(int id) const {
  const StreamState& s = stream(id);
  std::lock_guard<std::mutex> lock(state_mutex_);
  return s.consecutive_failures;
}

int StreamEngine::failed_domains(int id) const {
  const StreamState& s = stream(id);
  std::lock_guard<std::mutex> lock(state_mutex_);
  return s.failed_domains;
}

}  // namespace cerl::stream
