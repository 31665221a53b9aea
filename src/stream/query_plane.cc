// The effect-query serving plane of StreamEngine (see stream_engine.h
// "Effect-query serving plane"): snapshot publication on the write side and
// the lock-free QueryEffect / QueryEffectBatch read side.
//
// Memory-ordering contract between the two sides:
//   publisher:  old = atomic_exchange(&s.snapshot, snap, acq_rel);
//               s.snapshot_version.store(snap->version, release);
//               s.retired += old; erase retired entries with use_count 1
//   reader:     v = s.snapshot_version.load(acquire);      // fast gate
//               if (v != cached) atomic_load(&s.snapshot, acquire);
// The version is stored AFTER the pointer, so a reader that observes a new
// version is guaranteed the pointer swap already happened — the slow path
// can never re-load the previous snapshot for the new version. Readers
// whose cached version still matches touch no shared_ptr control block at
// all (the steady-state query is a relaxed-ish acquire load plus a forward
// pass through thread-local scratch).
// A query never frees a snapshot: a version switch only decrements a
// refcount, and the publisher frees replaced snapshots on its worker.

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "stream/stream_engine.h"
#include "stream/stream_internal.h"

namespace cerl::stream {

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0)
      .count();
}

}  // namespace

void StreamEngine::PublishSnapshot(StreamState* s) {
  const uint64_t version =
      s->snapshot_version.load(std::memory_order_relaxed) + 1;
  std::shared_ptr<const serve::EffectSnapshot> snap =
      serve::BuildEffectSnapshot(s->trainer, version);
  if (snap == nullptr) return;  // nothing trained yet
  std::shared_ptr<const serve::EffectSnapshot> old =
      std::atomic_exchange_explicit(&s->snapshot, std::move(snap),
                                    std::memory_order_acq_rel);
  s->snapshot_version.store(version, std::memory_order_release);
  if (old != nullptr) s->retired.push_back(std::move(old));
  // No reader can gain a new reference to a retired snapshot, so
  // use_count() == 1 is final and the erase frees it on this worker.
  s->retired.erase(
      std::remove_if(s->retired.begin(), s->retired.end(),
                     [](const auto& p) { return p.use_count() == 1; }),
      s->retired.end());
}

QueryContext* StreamEngine::CreateQueryContext() {
  auto ctx = std::make_unique<QueryContext>(num_streams());
  QueryContext* raw = ctx.get();
  std::lock_guard<std::mutex> lock(query_mutex_);
  query_contexts_.push_back(std::move(ctx));
  return raw;
}

Status StreamEngine::QueryEffect(QueryContext* ctx, int id, const double* x,
                                 int input_dim, double* ite,
                                 EffectQueryMeta* meta) {
  const Clock::time_point t0 = Clock::now();
  if (ctx == nullptr || x == nullptr || ite == nullptr) {
    return Status::InvalidArgument("QueryEffect needs a context, x and ite");
  }
  if (id < 0 || id >= num_streams()) {
    return Status::NotFound("no stream with id " + std::to_string(id));
  }
  if (id >= static_cast<int>(ctx->slots_.size())) {
    return Status::InvalidArgument(
        "stream " + std::to_string(id) +
        " was registered after this query context was created");
  }
  StreamState& s = *streams_[id];
  QueryContext::Slot& slot = ctx->slots_[id];
  const uint64_t version = s.snapshot_version.load(std::memory_order_acquire);
  if (version == 0) {
    slot.rejected.fetch_add(1, std::memory_order_relaxed);
    return Status::FailedPrecondition("stream '" + s.name +
                                      "' has not published a snapshot yet");
  }
  if (slot.version != version) {
    slot.snap =
        std::atomic_load_explicit(&s.snapshot, std::memory_order_acquire);
    slot.version = slot.snap->version;
  }
  const serve::EffectSnapshot& snap = *slot.snap;
  if (input_dim != snap.input_dim) {
    slot.rejected.fetch_add(1, std::memory_order_relaxed);
    return Status::InvalidArgument(
        "query has " + std::to_string(input_dim) + " covariates, stream '" +
        s.name + "' expects " + std::to_string(snap.input_dim));
  }
  *ite = ctx->predictor_.PredictIteRow(snap, x);
  if (meta != nullptr) {
    meta->snapshot_version = snap.version;
    meta->snapshot_stage = snap.stage;
    meta->stale = s.health_mirror.load(std::memory_order_relaxed) ==
                  static_cast<uint8_t>(StreamHealth::kQuarantined);
  }
  slot.queries.fetch_add(1, std::memory_order_relaxed);
  slot.rows.fetch_add(1, std::memory_order_relaxed);
  slot.latency.Record(MsSince(t0));
  return Status::Ok();
}

Status StreamEngine::QueryEffectBatch(QueryContext* ctx, int id,
                                      const linalg::Matrix& x_raw,
                                      linalg::Vector* ite,
                                      EffectQueryMeta* meta) {
  const Clock::time_point t0 = Clock::now();
  if (ctx == nullptr || ite == nullptr) {
    return Status::InvalidArgument("QueryEffectBatch needs a context and ite");
  }
  if (id < 0 || id >= num_streams()) {
    return Status::NotFound("no stream with id " + std::to_string(id));
  }
  if (id >= static_cast<int>(ctx->slots_.size())) {
    return Status::InvalidArgument(
        "stream " + std::to_string(id) +
        " was registered after this query context was created");
  }
  StreamState& s = *streams_[id];
  QueryContext::Slot& slot = ctx->slots_[id];
  const uint64_t version = s.snapshot_version.load(std::memory_order_acquire);
  if (version == 0) {
    slot.rejected.fetch_add(1, std::memory_order_relaxed);
    return Status::FailedPrecondition("stream '" + s.name +
                                      "' has not published a snapshot yet");
  }
  if (slot.version != version) {
    slot.snap =
        std::atomic_load_explicit(&s.snapshot, std::memory_order_acquire);
    slot.version = slot.snap->version;
  }
  const serve::EffectSnapshot& snap = *slot.snap;
  if (x_raw.cols() != snap.input_dim) {
    slot.rejected.fetch_add(1, std::memory_order_relaxed);
    return Status::InvalidArgument(
        "query batch has " + std::to_string(x_raw.cols()) +
        " covariates, stream '" + s.name + "' expects " +
        std::to_string(snap.input_dim));
  }
  ctx->predictor_.PredictIte(snap, x_raw, ite);
  if (meta != nullptr) {
    meta->snapshot_version = snap.version;
    meta->snapshot_stage = snap.stage;
    meta->stale = s.health_mirror.load(std::memory_order_relaxed) ==
                  static_cast<uint8_t>(StreamHealth::kQuarantined);
  }
  slot.queries.fetch_add(1, std::memory_order_relaxed);
  slot.rows.fetch_add(static_cast<int64_t>(x_raw.rows()),
                      std::memory_order_relaxed);
  slot.latency.Record(MsSince(t0));
  return Status::Ok();
}

std::shared_ptr<const serve::EffectSnapshot> StreamEngine::effect_snapshot(
    int id) const {
  const StreamState& s = stream(id);
  return std::atomic_load_explicit(&s.snapshot, std::memory_order_acquire);
}

StreamQueryStats StreamEngine::query_stats(int id) const {
  const StreamState& s = stream(id);
  StreamQueryStats stats;
  std::shared_ptr<const serve::EffectSnapshot> snap =
      std::atomic_load_explicit(&s.snapshot, std::memory_order_acquire);
  if (snap != nullptr) {
    stats.snapshot_version = snap->version;
    stats.snapshot_stage = snap->stage;
    stats.staleness_ms = MsSince(snap->published_at);
  }
  stats.stale = s.health_mirror.load(std::memory_order_relaxed) ==
                static_cast<uint8_t>(StreamHealth::kQuarantined);
  std::lock_guard<std::mutex> lock(query_mutex_);
  for (const auto& ctx : query_contexts_) {
    if (id >= static_cast<int>(ctx->slots_.size())) continue;
    const QueryContext::Slot& slot = ctx->slots_[id];
    stats.queries += slot.queries.load(std::memory_order_relaxed);
    stats.rows += slot.rows.load(std::memory_order_relaxed);
    stats.rejected += slot.rejected.load(std::memory_order_relaxed);
    stats.latency.Merge(slot.latency.Snapshot());
  }
  return stats;
}

}  // namespace cerl::stream
