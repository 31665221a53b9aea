// StreamEngine's paged tenant-state storage plane: spill/fault-back of cold
// tenants through storage::TenantStore, the accepted-domain write-ahead log,
// and WAL-based crash recovery (see README "Storage engine & durability").
//
// Division of labor with engine_checkpoint.cc: the snapshot is the O(dirty)
// learned state (trainer blobs + counters at a fence); the WAL is the only
// record of accepted-but-untrained domains and of registrations the
// snapshot predates (logged on arrival under state_mutex_, so log order ==
// push order). Recover() is LoadSnapshot + replay of exactly the WAL
// records the snapshot does not subsume, filtered per stream by domain
// index — the log needs no global sequence numbers.
//
// Spill correctness: a spill task runs ON the victim stream's TaskGroup, so
// it is serialized against that stream's stage pipeline. A push racing the
// spill lands its ingest task BEHIND the spill task on the group; the spill
// re-checks idleness under state_mutex_ and aborts if the queue is no longer
// empty, and the ingest stage faults the blob back in before the first
// trainer touch. The snapshot fence additionally waits out in-flight spill
// tasks (StreamState::spilling), so SerializeSnapshotLocked never races a
// spill's trainer serialization.
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <istream>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/tenant_store.h"
#include "storage/wal.h"
#include "stream/stream_engine.h"
#include "stream/stream_internal.h"
#include "util/binary_io.h"
#include "util/logging.h"

namespace cerl::stream {
namespace {

// --- WAL record payload codecs -------------------------------------------

// Decode-time caps for a logged domain: generous for any real deployment,
// and small enough that rows * cols * 8 can never overflow uint64 and
// defeat the BoundedReader::Require byte guard.
constexpr uint32_t kMaxUnits = 1u << 27;
constexpr uint32_t kMaxFeatures = 1u << 24;

void WriteDataset(std::string* out, const data::CausalDataset& d) {
  WritePod(out, static_cast<uint32_t>(d.x.rows()));
  WritePod(out, static_cast<uint32_t>(d.x.cols()));
  out->append(reinterpret_cast<const char*>(d.x.data()),
              static_cast<size_t>(d.x.size()) * sizeof(double));
  for (int t : d.t) WritePod(out, static_cast<uint8_t>(t));
  WriteF64Vector(out, d.y);
  WriteF64Vector(out, d.mu0);
  WriteF64Vector(out, d.mu1);
}

// A mu column is either aligned with the units or absent (production
// domains without counterfactual ground truth serialize empty mu vectors).
Status ReadMuColumn(BoundedReader* r, uint32_t rows, linalg::Vector* v,
                    const char* what) {
  uint32_t n = 0;
  CERL_RETURN_IF_ERROR(r->ReadPod(&n, what));
  if (n != rows && n != 0) {
    return Status::IoError(std::string(what) + ": size " + std::to_string(n) +
                           " does not match unit count " +
                           std::to_string(rows));
  }
  CERL_RETURN_IF_ERROR(
      r->Require(static_cast<uint64_t>(n) * sizeof(double), what));
  v->resize(n);
  return r->ReadRaw(v->data(), static_cast<uint64_t>(n) * sizeof(double),
                    what);
}

Status ReadDataset(BoundedReader* r, data::CausalDataset* d,
                   const char* what) {
  uint32_t rows = 0, cols = 0;
  CERL_RETURN_IF_ERROR(r->ReadPod(&rows, what));
  CERL_RETURN_IF_ERROR(r->ReadPod(&cols, what));
  // The caps keep rows * cols * 8 far below uint64 overflow (2^27 * 2^24 *
  // 2^3 = 2^54), so the Require byte check below cannot be defeated by
  // wraparound.
  if (rows > kMaxUnits) {
    return Status::IoError(std::string(what) + ": implausible unit count " +
                           std::to_string(rows));
  }
  if (cols > kMaxFeatures) {
    return Status::IoError(std::string(what) +
                           ": implausible feature count " +
                           std::to_string(cols));
  }
  const uint64_t x_bytes = static_cast<uint64_t>(rows) * cols * sizeof(double);
  CERL_RETURN_IF_ERROR(r->Require(x_bytes, what));
  d->x.Resize(static_cast<int>(rows), static_cast<int>(cols));
  CERL_RETURN_IF_ERROR(r->ReadRaw(d->x.data(), x_bytes, what));
  CERL_RETURN_IF_ERROR(r->Require(rows, what));
  d->t.resize(rows);
  for (uint32_t i = 0; i < rows; ++i) {
    uint8_t b = 0;
    CERL_RETURN_IF_ERROR(r->ReadPod(&b, what));
    if (b > 1) {
      return Status::IoError(std::string(what) + ": treatment is not 0/1");
    }
    d->t[i] = b;
  }
  CERL_RETURN_IF_ERROR(ReadF64VectorExpected(r, rows, &d->y, what));
  CERL_RETURN_IF_ERROR(ReadMuColumn(r, rows, &d->mu0, what));
  CERL_RETURN_IF_ERROR(ReadMuColumn(r, rows, &d->mu1, what));
  return Status::Ok();
}

// DataSplit block: train, valid, test, each u32 rows, u32 cols, f64 x[],
// u8 t[], u32 n + f64 y[], u32 n + f64 mu0[], u32 n + f64 mu1[].
void WriteSplit(std::string* out, const data::DataSplit& split) {
  WriteDataset(out, split.train);
  WriteDataset(out, split.valid);
  WriteDataset(out, split.test);
}

Status ReadSplit(BoundedReader* r, data::DataSplit* split) {
  CERL_RETURN_IF_ERROR(ReadDataset(r, &split->train, "WAL train split"));
  CERL_RETURN_IF_ERROR(ReadDataset(r, &split->valid, "WAL valid split"));
  CERL_RETURN_IF_ERROR(ReadDataset(r, &split->test, "WAL test split"));
  return Status::Ok();
}

// kWalAddStream payload: u32 stream_id, then the stream header
// (snapfmt::WriteStreamHeader, the snapshot's per-stream header).
std::string EncodeAddStreamPayload(uint32_t id, const std::string& name,
                                   uint32_t input_dim,
                                   const core::CerlConfig& config) {
  std::string p;
  WritePod(&p, id);
  snapfmt::WriteStreamHeader(&p, name, input_dim, config);
  return p;
}

Status DecodeAddStreamPayload(std::string_view payload, uint32_t* id,
                              std::string* name, uint32_t* input_dim,
                              core::CerlConfig* config) {
  ViewStreambuf buf(payload);
  std::istream in(&buf);
  BoundedReader r(&in, payload.size());
  CERL_RETURN_IF_ERROR(r.ReadPod(id, "WAL stream id"));
  CERL_RETURN_IF_ERROR(snapfmt::ReadStreamHeader(&r, name, input_dim, config));
  if (r.remaining() != 0) {
    return Status::IoError("WAL registration record has trailing bytes");
  }
  return Status::Ok();
}

// kWalDomain payload: u32 stream_id, u32 domain_index, DataSplit block.
std::string EncodeDomainPayload(uint32_t id, uint32_t domain_index,
                                const data::DataSplit& split) {
  std::string p;
  WritePod(&p, id);
  WritePod(&p, domain_index);
  WriteSplit(&p, split);
  return p;
}

Status DecodeDomainPayload(std::string_view payload, uint32_t* id,
                           uint32_t* domain_index, data::DataSplit* split) {
  ViewStreambuf buf(payload);
  std::istream in(&buf);
  BoundedReader r(&in, payload.size());
  CERL_RETURN_IF_ERROR(r.ReadPod(id, "WAL stream id"));
  CERL_RETURN_IF_ERROR(r.ReadPod(domain_index, "WAL domain index"));
  if (*domain_index > (1u << 30)) {
    return Status::IoError("WAL record: implausible domain index " +
                           std::to_string(*domain_index));
  }
  CERL_RETURN_IF_ERROR(ReadSplit(&r, split));
  if (r.remaining() != 0) {
    return Status::IoError("WAL domain record has trailing bytes");
  }
  return Status::Ok();
}

}  // namespace

Status StreamEngine::OpenStorage() {
  if (options_.storage_path.empty() && options_.wal_path.empty()) {
    return Status::InvalidArgument(
        "OpenStorage: neither storage_path nor wal_path is configured");
  }
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    if (!streams_.empty()) {
      // A WAL opened after registrations would be missing them, and spill
      // bookkeeping assumes it observed every stream from birth.
      return Status::FailedPrecondition(
          "OpenStorage requires a fresh engine (no streams registered)");
    }
  }
  if (!options_.storage_path.empty() && store_ == nullptr) {
    Result<std::unique_ptr<storage::DiskManager>> disk =
        storage::DiskManager::Open(options_.storage_path);
    if (!disk.ok()) return disk.status();
    disk_ = std::move(disk).value();
    buffer_pool_ = std::make_unique<storage::BufferPool>(
        disk_.get(),
        static_cast<size_t>(std::max(1, options_.buffer_pool_frames)));
    store_ = std::make_unique<storage::TenantStore>(buffer_pool_.get());
  }
  if (!options_.wal_path.empty() && wal_ == nullptr) {
    storage::Wal::Options wal_options;
    wal_options.fsync_each_append = options_.wal_fsync;
    Result<std::unique_ptr<storage::Wal>> wal =
        storage::Wal::Open(options_.wal_path, wal_options);
    if (!wal.ok()) return wal.status();
    wal_ = std::move(wal).value();
    if (wal_->truncated_bytes() > 0) {
      CERL_LOG(Warning) << "WAL " << options_.wal_path << ": dropped "
                        << wal_->truncated_bytes()
                        << " torn-tail bytes (crash mid-append)";
    }
  }
  return Status::Ok();
}

Status StreamEngine::Recover(const std::string& snapshot_path) {
  CERL_RETURN_IF_ERROR(OpenStorage());
  // Missing snapshot = cold start (first boot, or snapshots not configured);
  // any other read/parse failure must surface, not silently cold-start over
  // real data.
  if (!snapshot_path.empty() &&
      ::access(snapshot_path.c_str(), F_OK) == 0) {
    CERL_RETURN_IF_ERROR(LoadSnapshot(snapshot_path));
  }
  if (wal_ == nullptr) return Status::Ok();

  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    wal_replaying_ = true;
  }
  Status replayed = Status::Ok();
  for (const storage::Wal::Record& rec : wal_->recovered()) {
    if (rec.type == snapfmt::kWalAddStream) {
      uint32_t id = 0, input_dim = 0;
      std::string stream_name;
      core::CerlConfig config;
      replayed = DecodeAddStreamPayload(rec.payload, &id, &stream_name,
                                        &input_dim, &config);
      if (!replayed.ok()) break;
      if (id < static_cast<uint32_t>(num_streams())) continue;  // in snapshot
      if (id > static_cast<uint32_t>(num_streams())) {
        replayed = Status::IoError(
            "WAL gap: registration record for stream " + std::to_string(id) +
            " but the engine has " + std::to_string(num_streams()));
        break;
      }
      AddStream(std::move(stream_name), config, static_cast<int>(input_dim));
    } else if (rec.type == snapfmt::kWalDomain) {
      uint32_t id = 0, domain_index = 0;
      data::DataSplit split;
      replayed = DecodeDomainPayload(rec.payload, &id, &domain_index, &split);
      if (!replayed.ok()) break;
      if (id >= static_cast<uint32_t>(num_streams())) {
        replayed = Status::IoError("WAL domain record for unknown stream " +
                                   std::to_string(id));
        break;
      }
      StreamState* s = streams_[id].get();
      std::lock_guard<std::mutex> lock(state_mutex_);
      // Per-stream index filter (this is what makes compaction and snapshot
      // overlap safe): a record below the stream's push counter is subsumed
      // — already trained into the restored trainer blob — and skipped; the
      // record AT the counter is the next accepted domain and replays; a
      // record past it means accepted domains are missing from the log.
      if (domain_index < static_cast<uint32_t>(s->pushed)) continue;
      if (domain_index > static_cast<uint32_t>(s->pushed)) {
        replayed = Status::IoError(
            "WAL gap: stream " + std::to_string(id) + " expects domain " +
            std::to_string(s->pushed) + " next but the log holds " +
            std::to_string(domain_index));
        break;
      }
      // Admission-free: the saved engine already admitted this domain, so
      // queue bounds do not re-apply, and a quarantined stream sheds it
      // through the pipeline as a kUnavailable drop.
      auto owned = std::make_unique<PendingDomain>();
      owned->split = std::move(split);
      EnqueueLocked(s, std::move(owned));
    } else {
      replayed = Status::IoError("unknown WAL record type " +
                                 std::to_string(rec.type));
      break;
    }
  }
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    wal_replaying_ = false;
    // The recovered engine may exceed the resident budget (snapshot restore
    // faults every tenant in); re-establish it now rather than waiting for
    // the first completion.
    MaybeScheduleSpillsLocked();
  }
  // On a decode error the engine keeps the snapshot state plus the valid
  // record prefix (prefix recovery — same contract as the WAL's own
  // torn-tail handling), and the error reports what was lost.
  return replayed;
}

Status StreamEngine::WalLogAddStreamLocked(const StreamState& s) {
  return wal_->Append(
      snapfmt::kWalAddStream,
      EncodeAddStreamPayload(static_cast<uint32_t>(s.id), s.name,
                             static_cast<uint32_t>(s.input_dim),
                             s.trainer.config()));
}

Status StreamEngine::WalLogDomainLocked(const StreamState& s,
                                        int domain_index,
                                        const data::DataSplit& split) {
  return wal_->Append(
      snapfmt::kWalDomain,
      EncodeDomainPayload(static_cast<uint32_t>(s.id),
                          static_cast<uint32_t>(domain_index), split));
}

Status StreamEngine::CompactWalLocked(int fence_num_streams) {
  std::vector<storage::Wal::Record> keep;
  for (size_t i = 0; i < streams_.size(); ++i) {
    const StreamState& s = *streams_[i];
    if (static_cast<int>(i) >= fence_num_streams) {
      // Registered after the fence: the snapshot predates this stream, so
      // its registration (and, below, its queued domains) must survive.
      keep.push_back(
          {snapfmt::kWalAddStream,
           EncodeAddStreamPayload(static_cast<uint32_t>(i), s.name,
                                  static_cast<uint32_t>(s.input_dim),
                                  s.trainer.config())});
    }
    // Still-queued domains in queue order, with their assigned indices.
    // paused_ has kept every post-fence push in its queue (nothing is
    // in_flight), so the queues ARE the complete unsubsumed backlog.
    for (const auto& d : s.queue) {
      keep.push_back(
          {snapfmt::kWalDomain,
           EncodeDomainPayload(static_cast<uint32_t>(i),
                               static_cast<uint32_t>(d->domain_index),
                               d->split)});
    }
  }
  return wal_->Compact(keep);
}

Status StreamEngine::EnsureResident(int id) {
  if (id < 0 || id >= num_streams()) {
    return Status::NotFound("no stream with id " + std::to_string(id));
  }
  return EnsureResidentOnGroup(streams_[id].get());
}

Status StreamEngine::EnsureResidentOnGroup(StreamState* s) {
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    if (s->resident) {
      s->touch_tick = ++storage_tick_;
      return Status::Ok();
    }
  }
  if (store_ == nullptr) {
    return Status::Internal("stream '" + s->name +
                            "' is spilled but no store is open");
  }
  Result<std::string> got = store_->Get(s->id);
  if (!got.ok()) return got.status();
  std::string blob = std::move(got).value();
  // The trainer was Reset() by the spill; restore is the same rebuild path
  // a rollback uses. Runs off-lock: the caller is on the stream's group (or
  // owns a drained stream), which serializes all trainer access, and the
  // snapshot fence cannot be serializing concurrently (it waits out the
  // in-flight pipeline this fault-back is part of).
  s->trainer.Reset();
  CERL_RETURN_IF_ERROR(s->trainer.DeserializeCheckpoint(blob));
  // Only a successfully restored blob leaves the store (a failed restore
  // keeps it for the next attempt / the next snapshot).
  (void)store_->Erase(s->id);
  std::lock_guard<std::mutex> lock(state_mutex_);
  s->resident = true;
  ++s->fault_backs;
  s->touch_tick = ++storage_tick_;
  // The blob is a domain-boundary state: re-seed the rollback target and
  // the snapshot blob cache, exactly as LoadSnapshot does.
  s->last_good = std::move(blob);
  s->last_good_stage = s->trainer.stages_seen();
  return Status::Ok();
}

void StreamEngine::MaybeScheduleSpillsLocked() {
  if (store_ == nullptr || options_.max_resident_streams <= 0) return;
  int resident = 0;
  for (const auto& s : streams_) {
    if (s->resident) ++resident;
  }
  while (resident > options_.max_resident_streams) {
    // LRU victim among idle, trained, not-already-spilling streams. Reading
    // stages_seen() here is race-free: a stream with no in-flight domain
    // and no pending spill has no task touching its trainer.
    StreamState* victim = nullptr;
    for (const auto& s : streams_) {
      if (!s->resident || s->spilling || s->in_flight != nullptr ||
          !s->queue.empty() || s->trainer.stages_seen() <= 0) {
        continue;
      }
      if (victim == nullptr || s->touch_tick < victim->touch_tick) {
        victim = s.get();
      }
    }
    if (victim == nullptr) return;  // everyone is busy or untrained
    victim->spilling = true;
    --resident;
    StreamState* v = victim;
    // The spill body runs on the victim's group, serialized against its
    // stage pipeline — see the file comment for the race argument.
    v->group.Submit([this, v] { SpillOnGroup(v); });
  }
}

void StreamEngine::SpillOnGroup(StreamState* s) {
  std::string blob;
  bool use_cache = false;
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    // Re-check idleness: a domain pushed between scheduling and now makes
    // the spill pointless (its ingest would immediately fault back).
    if (!s->resident || s->in_flight != nullptr || !s->queue.empty() ||
        s->trainer.stages_seen() <= 0) {
      s->spilling = false;
      state_cv_.notify_all();
      return;
    }
    use_cache = s->last_good_stage == s->trainer.stages_seen() &&
                !s->last_good.empty();
    if (use_cache) blob = s->last_good;
  }
  Status stored = Status::Ok();
  if (!use_cache) {
    // Serialize off-lock: the group serializes trainer access, and the
    // snapshot fence waits out this task via the spilling flag.
    stored = s->trainer.SerializeCheckpoint(&blob);
  }
  if (stored.ok()) stored = store_->Put(s->id, blob);
  std::lock_guard<std::mutex> lock(state_mutex_);
  if (stored.ok()) {
    s->trainer.Reset();
    s->resident = false;
    ++s->spills;
    // The cache would be dead weight next to a reset trainer — the stored
    // blob is now the canonical copy (fault-back re-seeds the cache).
    s->last_good.clear();
    s->last_good.shrink_to_fit();
    s->last_good_stage = -1;
  } else {
    // Spill failure is not a stream failure: the tenant simply stays
    // resident (the budget is best-effort under storage errors).
    CERL_LOG(Warning) << "stream '" << s->name
                      << "' spill failed (stays resident): "
                      << stored.ToString();
  }
  s->spilling = false;
  // Notify INSIDE the lock (destructor-vs-notify rule): Drain and the
  // snapshot fence wait on the spilling flag.
  state_cv_.notify_all();
}

StreamEngine::StorageStats StreamEngine::storage_stats() const {
  StorageStats stats;
  std::lock_guard<std::mutex> lock(state_mutex_);
  for (const auto& s : streams_) {
    if (s->resident) {
      ++stats.resident_streams;
    } else {
      ++stats.spilled_streams;
    }
    stats.spills += s->spills;
    stats.fault_backs += s->fault_backs;
  }
  if (store_ != nullptr) stats.store_blob_bytes = store_->stored_bytes();
  if (disk_ != nullptr) stats.store_pages = disk_->page_count();
  if (buffer_pool_ != nullptr) {
    const storage::BufferPool::Stats pool_stats = buffer_pool_->stats();
    stats.pool_hits = pool_stats.hits;
    stats.pool_misses = pool_stats.misses;
    stats.pool_evictions = pool_stats.evictions;
  }
  if (wal_ != nullptr) {
    stats.wal_bytes = wal_->size_bytes();
    stats.wal_records = wal_->appended_records();
  }
  return stats;
}

}  // namespace cerl::stream
