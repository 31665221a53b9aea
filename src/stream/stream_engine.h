// StreamEngine — concurrent multiplexing of independent CERL streams.
//
// The paper's setting is a stream of incrementally arriving domains
// (Algorithm 1); deployments serve MANY such streams at once (one per
// tenant / scenario / data source — arXiv:2301.01026 frames continual
// causal estimation as exactly this). The engine owns a shared
// util::WorkStealingPool of stream workers and drives each registered
// stream through the explicit per-domain stage pipeline exposed by
// core::CerlTrainer:
//
//   PushDomain ──► [ingest:  ValidateDomain + BeginStage] ┐ per-stream
//                  [train + validate:         TrainStage] ├ TaskGroup
//                  [herd/migrate:           MigrateStage] ┘ (FIFO, serialized)
//
// Pipelining: across streams, every stage runs concurrently — stream A's
// herding overlaps stream B's training on different workers. Within a
// stream the algorithmic chain train(d) -> migrate(d) -> train(d+1) is
// inherently sequential (stage d+1 replays the memory M_d), so it stays
// serialized by the TaskGroup.
//
// Scheduling (SchedulePolicy::kCostAware, the default): ready stage work is
// ordered longest-expected-queue-first — each stream's strand carries a
// priority equal to its expected pending milliseconds under a per-stream
// EWMA stage cost model (stream/cost_model.h), stage tasks prefer the
// stream's home worker, and idle workers steal the globally most-backlogged
// stream's next stage. A backlogged tenant therefore drains continuously at
// its own stage cadence instead of one stage per round-robin cycle of every
// ready stream, which is what bounds tail latency under skewed multi-tenant
// load (bench/load_generator.cc measures it; README "Scheduling & SLOs").
// SchedulePolicy::kRoundRobin keeps the legacy strict-FIFO dispatch as the
// A/B baseline.
//
// Determinism: a stream's results depend only on its own config/seed and
// pushed domains. One stream through the engine is bit-identical to calling
// CerlTrainer::ObserveDomain serially, and each of N concurrent streams is
// bit-identical to running it alone — the shared-pool kernels reduce in a
// fixed order, all per-stream RNG streams live in the trainer/context, and
// stage serialization (TaskGroup) carries the cross-worker memory fences.
// Both properties are asserted by tests/stream_engine_test.cc.
//
// Domain boundary: every successful domain ends with the same fixed work —
// the finiteness guards, a last-good CERLCKP1 capture (rollback target and
// snapshot blob cache in one) and an effect-snapshot publish. None of it is
// optional; together it costs under 1% of a domain's ingest
// (BM_DomainBoundaryWork in bench/micro_substrates.cc).
#pragma once

#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "causal/metrics.h"
#include "core/cerl_trainer.h"
#include "data/dataset.h"
#include "serve/batch_predictor.h"
#include "serve/effect_snapshot.h"
#include "stream/cost_model.h"
#include "util/histogram.h"
#include "util/scheduler.h"
#include "util/task_group.h"

namespace cerl::storage {
class BufferPool;
class DiskManager;
class TenantStore;
class Wal;
}  // namespace cerl::storage

namespace cerl::stream {

/// How the engine orders ready stage work across streams (see
/// util/scheduler.h for the pool mechanics). Either policy produces
/// bit-identical stream results — scheduling only picks WHO runs next.
enum class SchedulePolicy : uint8_t {
  /// Longest-expected-queue-first: each stream's dispatch priority is its
  /// expected pending milliseconds under its StageCostModel, stage tasks
  /// have worker affinity, and idle workers steal. The default.
  kCostAware = 0,
  /// Strict FIFO over all streams' stage tasks — the legacy round-robin
  /// dispatch, kept as the A/B baseline for the SLO bench and tests.
  kRoundRobin = 1,
};

struct StreamEngineOptions {
  /// Stream workers (the pool running stage tasks; the compute kernels of a
  /// stage run inline on that stage's worker). 0 = hardware concurrency.
  int num_workers = 0;
  /// Ready-work ordering across streams. Runtime scheduling choice, not
  /// durable state (snapshots neither save nor restore it).
  SchedulePolicy schedule_policy = SchedulePolicy::kCostAware;

  // --- Fault isolation (per-tenant health; see README "Failure model") ---
  // The numerical health guards always run: a non-finite validation loss,
  // parameter, or memory representation rolls the stream's trainer back to
  // its last-good domain boundary and retries the domain.

  /// Admission bound: PushDomain returns kResourceExhausted while a
  /// stream's queued (not yet dispatched) domains are at this count.
  /// 0 = unbounded.
  int max_queued_domains = 0;
  /// Failed-domain retries before the domain is dropped. Each retry rolls
  /// back and replays the identical stage pipeline, so a transient fault
  /// recovers bit-identically; a deterministic one fails again and falls
  /// through to the drop.
  int max_domain_retries = 2;
  /// Backoff before retry r is retry_backoff_ms << (r-1) milliseconds,
  /// capped at 100ms. The waiting domain is parked on the pool's timer
  /// heap (WorkStealingPool::ExecuteAfter) — no worker is occupied while
  /// the backoff elapses, so under faults every scheduler slot keeps
  /// serving healthy streams.
  int retry_backoff_ms = 1;
  /// Consecutive dropped domains after which the stream is quarantined:
  /// its queue is rejected with kUnavailable, as is every later push.
  int quarantine_after_failures = 2;

  // --- Paged tenant-state storage (src/storage/; see README "Storage
  // engine & durability"). Activated by OpenStorage()/Recover(). ----------

  /// Single-file page store for spilled tenant state ("" = no spill
  /// store). The store is a RAM extension, not a durability source:
  /// durability is snapshot + WAL, and the store is repopulated organically
  /// after a crash as tenants go cold again.
  std::string storage_path;
  /// Spill target: when more than this many streams hold live trainer
  /// state, the least-recently-active idle streams are spilled (CERLCKP1
  /// blob to the store, trainer reset) and fault back on their next pushed
  /// domain. 0 = unbounded (never spill). Requires storage_path.
  int max_resident_streams = 0;
  /// Page cache frames between the engine and the store file (4 KiB each).
  int buffer_pool_frames = 256;
  /// Write-ahead log ("" = no WAL): every accepted domain (and stream
  /// registration) is logged on arrival, making "accepted implies
  /// recoverable" hold between snapshots — PushDomain returns IoError and
  /// does NOT accept the domain if its WAL append fails. Recover() replays
  /// the log into a fresh engine bit-identically.
  std::string wal_path;
  /// fsync the WAL after every append: machine-crash durability at one
  /// fsync per accepted domain. Off (default) survives process death only
  /// (the write() completed before PushDomain returned).
  bool wal_fsync = false;
};

/// Per-stream health (Healthy -> Degraded -> Quarantined). Degraded means
/// at least one recent domain attempt failed (rollback/retry in progress or
/// a domain was dropped); the next fully successful domain returns the
/// stream to Healthy. Quarantined is terminal for the stream: reached after
/// `quarantine_after_failures` consecutive dropped domains, it sheds all
/// queued and future work with kUnavailable while other streams keep
/// serving.
enum class StreamHealth : uint8_t {
  kHealthy = 0,
  kDegraded = 1,
  kQuarantined = 2,
};

/// Short human-readable name ("healthy", "degraded", "quarantined").
const char* StreamHealthName(StreamHealth health);

/// One stream's scheduler observability surface (StreamEngine::sched_stats):
/// everything an operator needs to answer "why is this tenant slow" — how
/// much work is waiting, what the engine thinks it costs, how well that
/// estimate tracks reality, and the completion-latency distribution it all
/// produces. Aggregated across streams by StreamEngine::TotalSchedStats
/// (counters sum, histograms merge, the error is observation-weighted).
struct StreamSchedStats {
  /// Domains queued but not yet dispatched, plus the in-flight one.
  int queue_depth = 0;
  /// Plain EWMA of observed wall ms per stage, indexed by StageKind
  /// (0 while the stage is cold).
  double ewma_stage_cost_ms[kNumStages] = {0.0, 0.0, 0.0};
  /// Stage tasks of this stream executed by a worker other than the
  /// stream's home worker (always 0 under SchedulePolicy::kRoundRobin).
  int64_t steal_count = 0;
  /// Stage executions observed by the cost model.
  int64_t stages_executed = 0;
  /// Cost-model accuracy: mean absolute percentage error of warm stage
  /// predictions (StageCostModel::mean_abs_pct_error).
  double cost_model_error = 0.0;
  /// The stream's current dispatch priority: expected pending milliseconds
  /// (queued domains plus the in-flight domain's remaining stages).
  double expected_pending_ms = 0.0;
  /// Push-to-migrated latency of every successful domain, ms.
  LatencyHistogram completion_latency;
};

/// Outcome of one pushed domain of one stream — trained or dropped.
struct DomainResult {
  int domain_index = 0;          ///< 0-based push order within the stream
  causal::TrainStats stats;      ///< TrainStage statistics
  int memory_units = 0;          ///< bank size right after this migration
  bool has_metrics = false;      ///< test split carried ground truth
  causal::CausalMetrics metrics; ///< PEHE / ATE error on the test split
  /// OK for a trained domain; the final failure for a dropped one
  /// (validation reject, exhausted retries, or quarantine shed). Dropped
  /// domains carry no stats/metrics.
  Status status;
  int attempts = 1;              ///< pipeline attempts consumed (1 + retries)
};

/// Per-thread handle for the effect-query read path (see
/// StreamEngine::CreateQueryContext). Owns the thread's inference arena and
/// its cached per-stream snapshot references + query counters; opaque
/// outside the engine.
class QueryContext;

/// Read-side metadata returned with each answered effect query.
struct EffectQueryMeta {
  /// Version of the snapshot that answered the query (1-based publish
  /// sequence number of the stream).
  uint64_t snapshot_version = 0;
  /// Trained domains baked into that snapshot.
  int snapshot_stage = 0;
  /// The stream is quarantined: this answer comes from its last-good model
  /// and will not refresh. Healthy/degraded streams answer with stale=false
  /// (a degraded stream's rollback target IS its published snapshot).
  bool stale = false;
};

/// One stream's serving observability (StreamEngine::query_stats): what is
/// published and how it is being read. Counters/latency are merged across
/// every QueryContext.
struct StreamQueryStats {
  uint64_t snapshot_version = 0;  ///< 0 = nothing published yet
  int snapshot_stage = 0;
  /// Milliseconds since the current snapshot was published (0 if none).
  double staleness_ms = 0.0;
  /// The stream is serving its last-good snapshot from quarantine.
  bool stale = false;
  int64_t queries = 0;   ///< answered QueryEffect/QueryEffectBatch calls
  int64_t rows = 0;      ///< total covariate rows evaluated
  int64_t rejected = 0;  ///< rejected queries (no snapshot / bad dims)
  /// Per-call serving latency across all contexts, ms.
  LatencyHistogram latency;
};

class StreamEngine {
 public:
  explicit StreamEngine(const StreamEngineOptions& options = {});
  /// Drains every stream (TaskGroup destructors wait) before teardown.
  ~StreamEngine();

  StreamEngine(const StreamEngine&) = delete;
  StreamEngine& operator=(const StreamEngine&) = delete;

  /// Registers a tenant stream; returns its id. Streams are fully
  /// independent: own trainer, own memory bank, own RNG streams.
  int AddStream(std::string name, const core::CerlConfig& config,
                int input_dim);

  /// Enqueues the next domain of stream `id`, or sheds it with a typed
  /// reject: kNotFound for an unknown stream id, kUnavailable for a
  /// quarantined stream, kResourceExhausted when the stream's queue is at
  /// options.max_queued_domains. On OK the call returns immediately: the
  /// domain joins the stream's queue — its ingest -> train -> migrate
  /// pipeline is dispatched onto the stream's task group as soon as the
  /// previous domain completes (one pipeline in flight per stream, so a
  /// snapshot can fence at a domain boundary). With a WAL open the domain
  /// is logged before the call returns, and that record is what keeps it
  /// recoverable until it is trained into a snapshot.
  /// A rejected push leaves no trace: no result slot, no domain index.
  /// Malformed domains are accepted here and dropped by the pipeline with
  /// the validation error recorded in their DomainResult — data-dependent
  /// failures never abort the process.
  Status PushDomain(int id, data::DataSplit split);

  /// Blocks until every pushed domain of every stream is fully processed
  /// (trained or dropped). A zero-stream engine drains immediately.
  void Drain();

  /// Blocks until stream `id` alone is drained (other streams keep going).
  /// Returns kNotFound for an unknown id. Safe to call concurrently from
  /// multiple threads.
  Status DrainStream(int id);

  // --- Per-stream health (see StreamHealth) -----------------------------

  StreamHealth health(int id) const;
  /// Dropped domains in a row (resets to 0 on a successful domain).
  int consecutive_failures(int id) const;
  /// Total domains dropped over the stream's lifetime (including
  /// quarantine-shed ones).
  int failed_domains(int id) const;

  // --- Scheduler observability (see StreamSchedStats) -------------------

  /// Snapshot of stream `id`'s scheduling state. Safe to call while the
  /// engine is under load (it locks the engine state briefly).
  StreamSchedStats sched_stats(int id) const;
  /// Engine-wide aggregate: counters summed, completion histograms merged,
  /// cost-model error weighted by each stream's scored predictions.
  StreamSchedStats TotalSchedStats() const;
  /// Cross-queue pops of homed tasks at the pool level (0 under FIFO).
  int64_t steal_count() const { return pool_.steal_count(); }

  int num_streams() const { return static_cast<int>(streams_.size()); }
  const std::string& name(int id) const;

  /// Per-domain results in push order. Stable only while the stream is
  /// drained (call Drain()/DrainStream(id) first).
  const std::vector<DomainResult>& results(int id) const;

  /// The stream's trainer (e.g. for PredictIte / checkpointing). Only
  /// touch a drained stream — the engine's stage tasks own it otherwise.
  core::CerlTrainer& trainer(int id);

  int num_workers() const { return pool_.num_threads(); }

  // --- Effect-query serving plane (stream/query_plane.cc) ---------------
  //
  // Reads run concurrently with training and never block or get blocked by
  // the stage pipeline: each stream's finish task publishes an immutable
  // serve::EffectSnapshot (copy-on-publish, RCU-style shared_ptr swap), and
  // the query path is lock-free in steady state — a relaxed/acquire version
  // check against the context's cached snapshot, zero shared_ptr traffic
  // while the version is unchanged, and a forward pass through the
  // context's reusable arena (no allocations after warm-up).

  /// Creates a query handle for one reader thread (a context must not be
  /// used from two threads at once; create one per thread). Owned by the
  /// engine, freed at engine destruction. Register every stream BEFORE
  /// creating contexts — a context sizes its per-stream slots at creation
  /// and rejects later-added stream ids with kInvalidArgument.
  QueryContext* CreateQueryContext();

  /// ITE for one user (covariate row `x` of `input_dim` doubles) under
  /// stream `id`'s current snapshot, in original outcome units — bitwise
  /// equal to the publishing trainer's PredictIte. kNotFound for a bad id,
  /// kInvalidArgument on a dimension mismatch or a null ctx/x/ite (batch:
  /// ctx/ite), kFailedPrecondition before the stream's first publish.
  /// Quarantined streams ANSWER (last-good snapshot) with meta->stale set
  /// rather than erroring.
  Status QueryEffect(QueryContext* ctx, int id, const double* x,
                     int input_dim, double* ite,
                     EffectQueryMeta* meta = nullptr);

  /// Batched variant: ITE per row of x_raw (n x input_dim) into `ite`
  /// (resized to n; reuse the vector to stay allocation-free). One snapshot
  /// answers the whole batch — no torn reads across rows.
  Status QueryEffectBatch(QueryContext* ctx, int id,
                          const linalg::Matrix& x_raw, linalg::Vector* ite,
                          EffectQueryMeta* meta = nullptr);

  /// The stream's currently published snapshot (nullptr before the first
  /// publish). Same acquire load the query path uses; the returned
  /// reference stays valid for as long as the caller holds it.
  std::shared_ptr<const serve::EffectSnapshot> effect_snapshot(int id) const;

  /// Serving stats of stream `id`: published version/stage/staleness plus
  /// query counters and latency merged across every QueryContext.
  StreamQueryStats query_stats(int id) const;

  // --- Snapshot / restore (engine_checkpoint.cc) ------------------------

  /// What a SaveSnapshot captured (filled at the snapshot fence).
  struct SnapshotInfo {
    int num_streams = 0;
    int completed_domains = 0;  ///< fully trained+migrated, summed
    /// Queued-but-untrained at the fence, summed. Not in the snapshot: the
    /// WAL, when open, holds them and Recover() replays them.
    int queued_domains = 0;
    /// Streams whose trainer blob had to be re-serialized at the fence:
    /// the cached last-good capture was missing or older than the trainer
    /// (e.g. the trainer was advanced through trainer(id) since).
    int dirty_streams = 0;
    /// Streams whose blob was reused: memcpy of the cached capture, or a
    /// page-store read for a spilled stream. dirty + reused + untrained
    /// streams = num_streams.
    int reused_blobs = 0;
    /// Wall milliseconds spent building the container under the fence —
    /// the O(dirty) work the storage engine bounds (file write excluded;
    /// the snapshot bench gates on this).
    double serialize_ms = 0.0;
  };

  /// Drain-consistent snapshot of the ENTIRE engine under load: pauses
  /// dispatch, waits for every stream's in-flight domain pipeline to reach
  /// its domain boundary (workers stay up; queued domains stay queued; a
  /// domain mid-retry resolves — succeeds or drops — before the fence),
  /// writes a CERLENG5 manifest — per-stream name / config /
  /// completed-domain counter / health state (health, consecutive
  /// failures, dropped-domain total), learned stage cost rates and the
  /// embedded CERLCKP1 trainer blob — then resumes dispatch. Domains still
  /// queued at the fence are not written: with a WAL open they are already
  /// logged, the WAL is compacted down to them (plus registrations the
  /// snapshot predates), and Recover() replays them; without a WAL the
  /// snapshot holds trained state only, the same durability every push has
  /// between snapshots. The write is crash-safe (temp file + fsync +
  /// atomic rename), carries a checksum, and transient IO failures are
  /// retried up to 3 times with bounded exponential backoff (1 ms
  /// doubling). Each trainer blob is the stream's cached last-good capture
  /// when it is current, else a fresh serialize. Concurrent PushDomain is
  /// safe: a push lands in the resumed queue (and in the kept WAL tail).
  Status SaveSnapshot(const std::string& path, SnapshotInfo* info = nullptr);

  /// Rebuilds a saved engine into THIS engine, which must be freshly
  /// constructed (no streams registered): re-creates every stream from its
  /// serialized config, restores each trainer bit-identically (re-seeding
  /// its last-good rollback blob), restores health/quarantine state, and
  /// re-publishes each trained stream's effect snapshot. The restored
  /// engine is idle: the domains that were queued at the fence come back
  /// only through Recover()'s WAL replay. Reads CERLENG5 only: any other
  /// magic is kIoError. Worker count stays as THIS engine was constructed
  /// — it is a runtime scheduling choice, not durable state. Per-domain
  /// results of the saved engine are not restored (stats are transient
  /// diagnostics); domain indices continue from the saved counters.
  /// All-or-nothing: on any error the engine still has zero streams.
  Status LoadSnapshot(const std::string& path);

  // --- Paged tenant-state storage + WAL (engine_storage.cc) -------------

  /// Opens the storage plane configured in options_ (page store and/or
  /// WAL) on a fresh engine (no streams). Does NOT replay the WAL — use
  /// Recover() on restart; OpenStorage() alone is for a first boot or for
  /// spill-only use. Idempotent once open.
  Status OpenStorage();

  /// Full restart path: OpenStorage(), then LoadSnapshot(snapshot_path)
  /// when that file exists (missing = cold start), then replay of every
  /// WAL record the snapshot does not subsume — stream registrations the
  /// snapshot predates, and per stream exactly the accepted domains whose
  /// index is at or past its restored completed count, in original push
  /// order (admission-free: queue bounds do not re-apply, and a quarantined
  /// stream sheds them through the pipeline as kUnavailable drops). The
  /// rebuilt engine trains on bit-identically to the uninterrupted run.
  /// Requires a fresh engine; snapshot_path may be "" (WAL-only recovery).
  Status Recover(const std::string& snapshot_path);

  /// Faults stream `id`'s state back in from the page store if it was
  /// spilled (no-op while resident). Only touch a drained stream — same
  /// contract as trainer(id); the ingest pipeline faults in automatically
  /// on the next pushed domain.
  Status EnsureResident(int id);

  /// Storage-plane observability.
  struct StorageStats {
    int resident_streams = 0;   ///< live trainer state in RAM
    int spilled_streams = 0;    ///< serialized to the page store
    int64_t spills = 0;         ///< lifetime spill count
    int64_t fault_backs = 0;    ///< lifetime fault-back count
    uint64_t store_blob_bytes = 0;  ///< payload bytes in the tenant store
    uint32_t store_pages = 0;       ///< pages in the store file
    uint64_t pool_hits = 0;
    uint64_t pool_misses = 0;
    uint64_t pool_evictions = 0;
    uint64_t wal_bytes = 0;         ///< current WAL file size
    uint64_t wal_records = 0;       ///< records appended this process
  };
  StorageStats storage_stats() const;

 private:
  struct PendingDomain;
  struct StreamState;

  StreamState& stream(int id);
  const StreamState& stream(int id) const;

  /// Queues an admitted domain and dispatches if the stream is idle. Caller
  /// holds state_mutex_.
  void EnqueueLocked(StreamState* s, std::unique_ptr<PendingDomain> domain);

  /// Starts the next queued domain's stage pipeline if the stream is idle
  /// and dispatch is not paused. Caller holds state_mutex_.
  void MaybeDispatchLocked(StreamState* s);

  /// Submits the in-flight domain's ingest/train/finish stage tasks onto
  /// the stream's task group (first attempt and retries). Caller holds
  /// state_mutex_.
  void SubmitAttemptLocked(StreamState* s);

  /// Failure epilogue for the in-flight domain, running on the stream's
  /// task group: rolls the trainer back to its last-good boundary, then
  /// either requeues the attempt with a backoff deadline (pool timer heap —
  /// no worker sleeps) or drops the domain and advances the health state
  /// machine.
  void HandleFailure(StreamState* s, PendingDomain* d);

  /// Health transition that also refreshes the stream's lock-free mirror
  /// for the query path. Caller holds state_mutex_ (or owns the stream
  /// exclusively, as LoadSnapshot does).
  static void SetHealth(StreamState* s, StreamHealth health);

  /// Builds and RCU-publishes the stream's next EffectSnapshot from its
  /// trainer. Must run where the trainer is quiescent and externally
  /// serialized: the stream's task group (finish task) or LoadSnapshot's
  /// single-threaded restore. No-op while the trainer has no model yet.
  /// Defined in stream/query_plane.cc.
  void PublishSnapshot(StreamState* s);

  /// Runs one stage body with wall-time measurement, feeds the observation
  /// to the stream's cost model, attributes steals, and refreshes the
  /// stream's dispatch priority. Failure fencing stays in the stage lambdas.
  template <typename Body>
  void RunStageTimed(StreamState* s, PendingDomain* d, StageKind stage,
                     Body&& body);

  /// Expected pending milliseconds of the stream under its cost model:
  /// every queued domain in full, plus the in-flight domain's remaining
  /// stages. This IS the stream's dispatch priority. Caller holds
  /// state_mutex_.
  double ExpectedPendingMsLocked(const StreamState& s) const;
  /// Milliseconds since the stream's oldest un-migrated domain was pushed
  /// (0 when idle) — the aging term of the dispatch priority.
  double OldestPendingAgeMsLocked(const StreamState& s) const;

  /// Recomputes the stream's expected pending milliseconds and pushes it
  /// into the strand's ExecOptions (priority + home worker). Caller holds
  /// state_mutex_.
  void UpdateScheduleLocked(StreamState* s);

  /// Builds the stats snapshot of one stream. Caller holds state_mutex_.
  StreamSchedStats SchedStatsLocked(const StreamState& s) const;

  /// Builds the CERLENG5 payload. Caller holds state_mutex_ with dispatch
  /// paused and no in-flight domains (SaveSnapshot's boundary wait).
  /// Fills the blob-reuse counters of `info` when non-null.
  Status SerializeSnapshotLocked(std::string* out, SnapshotInfo* info);

  // --- Storage plane internals (engine_storage.cc) ----------------------

  /// Appends a stream registration / accepted domain record to the open
  /// WAL. Callers hold state_mutex_, which serializes appends with push
  /// order.
  Status WalLogAddStreamLocked(const StreamState& s);
  Status WalLogDomainLocked(const StreamState& s, int domain_index,
                            const data::DataSplit& split);

  /// Rewrites the WAL down to the records the just-written snapshot does
  /// not subsume (still-queued domains and post-fence registrations).
  /// Caller holds state_mutex_ — pushes cannot append concurrently.
  Status CompactWalLocked(int fence_num_streams);

  /// Fault-back body: restores the stream's trainer from the page store.
  /// Must run where the trainer is externally serialized (the stream's
  /// group, or a drained stream).
  Status EnsureResidentOnGroup(StreamState* s);

  /// Spills least-recently-active idle streams until at most
  /// options_.max_resident_streams hold live state. Caller holds
  /// state_mutex_; the serialize-and-store work runs as a task on each
  /// victim's group (serialized with its stage pipeline).
  void MaybeScheduleSpillsLocked();

  /// Spill-task body, running on the victim's group: re-checks idleness,
  /// serializes the trainer (or reuses the cached last-good blob), stores
  /// the blob, and resets the trainer. Clears StreamState::spilling and
  /// notifies state_cv_ on every path.
  void SpillOnGroup(StreamState* s);

  StreamEngineOptions options_;
  /// Stream workers (declared before the groups using it). Cost-aware
  /// (priority + stealing) or strict FIFO per options_.schedule_policy.
  WorkStealingPool pool_;
  std::vector<std::unique_ptr<StreamState>> streams_;

  /// Guards stream queues / in-flight flags / results / health and the
  /// pause state; state_cv_ signals pipeline completions and pause
  /// transitions. Mutable so the const health accessors can lock it.
  mutable std::mutex state_mutex_;
  std::condition_variable state_cv_;
  bool paused_ = false;  ///< snapshot in progress: no new dispatches

  /// Guards the context registry only — context creation and stats
  /// aggregation, never the query hot path.
  mutable std::mutex query_mutex_;
  std::vector<std::unique_ptr<QueryContext>> query_contexts_;

  // --- Paged tenant-state storage plane (engine_storage.cc) -------------
  // Opened by OpenStorage()/Recover(); null when the engine runs all-RAM.
  // Declaration order: the store and WAL must outlive no stage task — they
  // are torn down after the destructor's Drain() like everything above.
  std::unique_ptr<storage::DiskManager> disk_;
  std::unique_ptr<storage::BufferPool> buffer_pool_;
  std::unique_ptr<storage::TenantStore> store_;
  std::unique_ptr<storage::Wal> wal_;
  /// True while Recover() re-registers logged streams through AddStream —
  /// suppresses re-logging them. Only touched single-threaded (Recover
  /// runs on a fresh engine before concurrent use).
  bool wal_replaying_ = false;
  /// Monotonic activity clock for the spill LRU (guarded by state_mutex_).
  uint64_t storage_tick_ = 0;
};

}  // namespace cerl::stream
