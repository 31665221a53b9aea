// Internal definitions shared by stream_engine.cc and engine_checkpoint.cc
// (the two halves of StreamEngine). Not part of the public stream API.
#pragma once

#include <atomic>
#include <chrono>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "serve/effect_snapshot.h"
#include "stream/stream_engine.h"
#include "util/binary_io.h"

namespace cerl::stream {

/// Exponential backoff in milliseconds before retry `attempt` (1-based):
/// base_ms doubling per retry, capped at 100ms so a large base can never
/// park work for long; 0 for a non-positive base. Shared by the domain
/// retry (HandleFailure) and the snapshot-write retry (SaveSnapshot).
int BackoffMs(int base_ms, int attempt);

// One pushed domain moving through the stage pipeline. The split must stay
// address-stable while tasks reference it, so PendingDomains are held by
// unique_ptr and never relocated.
struct StreamEngine::PendingDomain {
  data::DataSplit split;
  int domain_index = 0;

  /// Cost-relevant shape, captured at push (the split moves into the
  /// trainer during ingest, so it cannot be re-derived later).
  DomainShape shape;
  /// Push wall-clock, for the completion-latency histogram.
  std::chrono::steady_clock::time_point pushed_at;
  /// Pipeline stages of the CURRENT attempt that already completed (0..3);
  /// the remainder prices the in-flight part of the stream's priority.
  int stages_done = 0;

  // Failure plumbing between the stage tasks of one attempt (all tasks run
  // on the stream's serialized group, so no lock is needed): a stage that
  // fails records `failure`; later stages of the attempt then no-op and the
  // finish task routes to HandleFailure. `terminal` marks failures that
  // must not be retried (validation reject, quarantine shed). `attempt`
  // counts completed attempts (0 on the first run).
  Status failure;
  bool terminal = false;
  int attempt = 0;

  std::unique_ptr<core::CerlTrainer::StageContext> ctx;
};

struct StreamEngine::StreamState {
  StreamState(std::string stream_name, const core::CerlConfig& config,
              int input_dim, Executor* pool)
      : name(std::move(stream_name)),
        input_dim(input_dim),
        trainer(config, input_dim),
        group(pool) {}

  std::string name;
  int input_dim;
  core::CerlTrainer trainer;
  TaskGroup group;

  /// The stream's engine id (its index in streams_), fixed at registration.
  /// The spill key in the tenant store and the stream tag in WAL records.
  int id = -1;

  // Cost-aware scheduling state (guarded by the engine's state_mutex_; the
  // stage tasks lock it briefly per stage to observe/re-prioritize).
  int home = -1;              ///< preferred pool worker (round-robin by id)
  StageCostModel cost_model;  ///< learned per-stage rates -> priorities
  LatencyHistogram latency;   ///< push->migrated ms, successful domains
  int64_t stolen_stages = 0;  ///< stage tasks executed off the home worker

  // Domain-boundary dispatch (guarded by the engine's state_mutex_): pushed
  // domains wait in `queue`; exactly one domain owns the stage pipeline at a
  // time (`in_flight`). This is what gives SaveSnapshot a consistent fence —
  // waiting out one pipeline per stream reaches a state where every trainer
  // sits between domains and the queue is exactly the untrained backlog
  // (which the WAL, when open, already holds).
  std::deque<std::unique_ptr<PendingDomain>> queue;
  std::unique_ptr<PendingDomain> in_flight;
  std::vector<DomainResult> results;
  int pushed = 0;

  // Health state machine (guarded by the engine's state_mutex_; see
  // StreamHealth in stream_engine.h).
  StreamHealth health = StreamHealth::kHealthy;
  int consecutive_failures = 0;  ///< dropped domains in a row
  int failed_domains = 0;        ///< dropped domains, lifetime total

  // Serialized trainer state (CERLCKP1) at the last successful domain
  // boundary — the rollback target for health-guard failures AND the
  // snapshot blob cache (O(dirty) snapshots re-embed it instead of
  // re-serializing an unchanged trainer). Captured by the finish task
  // after every successful domain; read by HandleFailure / the spill task
  // on the same stream's group (serialized), so access needs no extra lock
  // beyond state_mutex_ for the capture.
  std::string last_good;
  /// trainer.stages_seen() at the moment last_good was captured; -1 when
  /// the cache is absent or stale. The currency check for blob reuse.
  int last_good_stage = -1;

  // --- Paged tenant-state storage (engine_storage.cc; guarded by the
  // engine's state_mutex_) ----------------------------------------------
  /// Live trainer state is in RAM. False = spilled: the trainer is reset
  /// and the CERLCKP1 blob lives in the tenant store until the next
  /// pushed domain (or EnsureResident) faults it back.
  bool resident = true;
  /// A spill task is queued on this stream's group and has not resolved.
  bool spilling = false;
  /// Last activity tick (engine storage_tick_) — the spill LRU key.
  uint64_t touch_tick = 0;
  int64_t spills = 0;       ///< lifetime spill count
  int64_t fault_backs = 0;  ///< lifetime fault-back count

  // --- Serving plane (stream/query_plane.cc) ---------------------------
  // The stream's published read-side model. Written only by the finish task
  // / snapshot restore via atomic_exchange(acq_rel); read by query threads
  // via atomic_load(acquire). `snapshot_version` is the lock-free fast-path
  // version gate: readers re-load the shared_ptr only when it changes
  // (publish order: snapshot first, then version, both release — a reader
  // that acquires the new version therefore sees the new snapshot).
  std::shared_ptr<const serve::EffectSnapshot> snapshot;
  std::atomic<uint64_t> snapshot_version{0};
  // Mirror of `health` maintained at every transition so the query path can
  // flag quarantined-stream staleness without touching state_mutex_.
  std::atomic<uint8_t> health_mirror{0};
  // Replaced snapshots that a QueryContext slot or an effect_snapshot()
  // copy may still hold; PublishSnapshot frees each once it holds the last
  // reference. Touched only by PublishSnapshot (the serialized finish task,
  // or LoadSnapshot before the engine runs), so it needs no lock. Kept last
  // so the offsets of the read-path fields above do not move.
  std::vector<std::shared_ptr<const serve::EffectSnapshot>> retired;
};

// Wire format shared by engine_checkpoint.cc (the CERLENG5 snapshot) and
// engine_storage.cc (WAL records): the stream header, defined in
// engine_checkpoint.cc, is embedded verbatim in both.
namespace snapfmt {

/// u32 name_len, name bytes, u32 input_dim, CerlConfig block (fixed field
/// order; the snapshot magic and the WAL record type version it).
void WriteStreamHeader(std::string* out, const std::string& name,
                       uint32_t input_dim, const core::CerlConfig& config);
/// Reads a stream header, rejecting (kIoError) an implausible name length
/// or an input_dim outside (0, 2^24], before any allocation.
Status ReadStreamHeader(BoundedReader* r, std::string* name,
                        uint32_t* input_dim, core::CerlConfig* config);

// WAL record types (storage::Wal is payload-agnostic; these tag the
// engine's records). Type 1 was the registration record of the CERLENG4
// era, whose config block carried three more (ignored) fields; it is
// retired, so such a record replays as an unknown type (kIoError) instead
// of being misparsed.
inline constexpr uint32_t kWalDomain = 2;
inline constexpr uint32_t kWalAddStream = 3;

}  // namespace snapfmt

// Per-thread query handle (StreamEngine::CreateQueryContext). All mutable
// state on the query hot path lives here, owned by exactly one reader
// thread: the inference arena plus one slot per stream caching the last
// snapshot reference (so an unchanged version costs zero shared_ptr
// traffic). The counters are atomics only so query_stats can aggregate
// them from another thread; the single writer makes them uncontended.
class QueryContext {
 public:
  explicit QueryContext(int num_streams)
      : slots_(static_cast<size_t>(num_streams)) {}

  QueryContext(const QueryContext&) = delete;
  QueryContext& operator=(const QueryContext&) = delete;

 private:
  friend class StreamEngine;

  struct Slot {
    std::shared_ptr<const serve::EffectSnapshot> snap;
    uint64_t version = 0;
    ConcurrentLatencyHistogram latency;
    std::atomic<int64_t> queries{0};
    std::atomic<int64_t> rows{0};
    std::atomic<int64_t> rejected{0};
  };

  serve::BatchPredictor predictor_;
  std::vector<Slot> slots_;  ///< sized at creation; never resized
};

}  // namespace cerl::stream
