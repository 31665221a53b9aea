// Engine-level snapshot/restore (StreamEngine::SaveSnapshot/LoadSnapshot).
//
// The snapshot is a manifest of learned state: per stream, the trainer's
// continual state (model + scalers + memory M_d + stage counter + RNG — the
// CERLCKP1 payload from core/checkpoint.cc) plus the counters that resume
// it. Domains still queued at the fence are not written: with a WAL open
// they are already accepted-domain records, which the post-snapshot
// compaction keeps and Recover() replays (engine_storage.cc). Nothing in
// the container is raw covariates, as the paper's accessibility criterion
// requires of the learned state.
//
// Format CERLENG5, the only one written or read (the golden fixture under
// tests/testdata/ pins it; any other magic is a load error):
//   magic "CERLENG5",
//   u32 num_streams, then per stream:
//     stream header (snapfmt::WriteStreamHeader, shared with the WAL
//       registration record): u32 name_len, name bytes, u32 input_dim,
//       CerlConfig block (fixed field order, see WriteConfig),
//     u32 completed_domains                        (resumes domain indices),
//     u8 health, u32 consecutive_failures, u32 failed_domains,
//     3 x { f64 rate_ms_per_unit, i64 count }      (the stream's learned
//       StageCostModel rates),
//     u8 has_trainer, [u64 blob_len, CERLCKP1 payload incl. its checksum],
//   u64 FNV-1a checksum.
//
// Checksum scope: the trailing hash covers the container METADATA only —
// the embedded CERLCKP1 blob spans are excluded. Each blob already carries
// its own whole-payload checksum (verified by DeserializeCheckpoint), so
// corruption anywhere is still detected; what the exclusion buys is an
// O(dirty streams) SaveSnapshot — an unchanged tenant costs one memcpy of
// its cached blob instead of a re-serialize plus a re-hash of megabytes of
// parameters.
//
// The last-good rollback blob is NOT a separate field: at the snapshot
// fence every trainer sits at a domain boundary, so its serialized
// checkpoint IS the last-good state — LoadSnapshot re-seeds each stream's
// rollback target (and the blob-reuse cache) from the embedded blob.
//
// Every read is bounds-checked against the remaining payload before
// allocating, and LoadSnapshot stages the entire engine (streams and
// trainers) before publishing anything — a corrupt snapshot leaves the
// target engine with zero streams.
#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "storage/tenant_store.h"
#include "stream/stream_engine.h"
#include "stream/stream_internal.h"
#include "util/binary_io.h"
#include "util/logging.h"

namespace cerl::stream {
namespace {

constexpr char kMagic[8] = {'C', 'E', 'R', 'L', 'E', 'N', 'G', '5'};

// SaveSnapshot retries a failed file write this many times, backing off
// BackoffMs(kSnapshotRetryBackoffMs, retry) before each retry.
constexpr int kSnapshotIoRetries = 3;
constexpr int kSnapshotRetryBackoffMs = 1;

// Decode-time sanity caps: generous for any real deployment, small enough
// that a corrupted count fails fast with a descriptive error instead of an
// attempted allocation (the byte-level guard is BoundedReader::Require).
constexpr uint32_t kMaxStreams = 1u << 16;
constexpr uint32_t kMaxNameLen = 1u << 12;
constexpr uint32_t kMaxInputDim = 1u << 24;
constexpr uint32_t kMaxHiddenLayers = 1u << 10;
constexpr uint32_t kMaxLayerWidth = 1u << 20;

void WriteIntVector(std::string* out, const std::vector<int>& v) {
  WritePod(out, static_cast<uint32_t>(v.size()));
  for (int x : v) WritePod(out, static_cast<int32_t>(x));
}

// Reads a hidden-layer width list; widths are construction inputs (Mlp
// CHECK-aborts on non-positive sizes), so they are validated here where a
// bad value is still a clean decode error.
Status ReadIntVector(BoundedReader* r, std::vector<int>* v,
                     const char* what) {
  uint32_t n = 0;
  CERL_RETURN_IF_ERROR(r->ReadPod(&n, what));
  if (n > kMaxHiddenLayers) {
    return Status::IoError(std::string(what) + ": implausible count " +
                           std::to_string(n));
  }
  CERL_RETURN_IF_ERROR(r->Require(static_cast<uint64_t>(n) * 4, what));
  v->resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    int32_t x = 0;
    CERL_RETURN_IF_ERROR(r->ReadPod(&x, what));
    if (x < 1 || x > static_cast<int32_t>(kMaxLayerWidth)) {
      return Status::IoError(std::string(what) + ": implausible width " +
                             std::to_string(x));
    }
    (*v)[i] = x;
  }
  return Status::Ok();
}

Status ReadBool(BoundedReader* r, bool* v, const char* what) {
  uint8_t b = 0;
  CERL_RETURN_IF_ERROR(r->ReadPod(&b, what));
  if (b > 1) {
    return Status::IoError(std::string(what) + ": flag is not 0/1");
  }
  *v = b != 0;
  return Status::Ok();
}

// --- CerlConfig codec (fixed field order; the container magic versions it) -

void WriteConfig(std::string* out, const core::CerlConfig& c) {
  WriteIntVector(out, c.net.rep_hidden);
  WritePod(out, static_cast<int32_t>(c.net.rep_dim));
  WriteIntVector(out, c.net.head_hidden);
  WritePod(out, static_cast<uint8_t>(c.net.activation));
  WritePod(out, static_cast<uint8_t>(c.net.cosine_normalized_rep ? 1 : 0));

  WritePod(out, static_cast<int32_t>(c.train.epochs));
  WritePod(out, static_cast<int32_t>(c.train.batch_size));
  WritePod(out, c.train.learning_rate);
  WritePod(out, static_cast<int32_t>(c.train.patience));
  WritePod(out, c.train.alpha);
  WritePod(out, c.train.lambda);
  WritePod(out, static_cast<uint8_t>(c.train.ipm));
  WritePod(out, c.train.sinkhorn.reg_fraction);
  WritePod(out, static_cast<int32_t>(c.train.sinkhorn.max_iterations));
  WritePod(out, c.train.sinkhorn.tolerance);
  WritePod(out, static_cast<uint8_t>(c.train.sinkhorn.warm_start ? 1 : 0));
  WritePod(out, static_cast<uint64_t>(c.train.seed));
  WritePod(out, static_cast<uint8_t>(c.train.verbose ? 1 : 0));

  WritePod(out, c.beta);
  WritePod(out, c.delta);
  WritePod(out, static_cast<int32_t>(c.memory_capacity));
  WritePod(out, static_cast<uint8_t>(c.use_transform ? 1 : 0));
  WritePod(out, static_cast<uint8_t>(c.use_herding ? 1 : 0));
  WritePod(out, static_cast<uint8_t>(c.init_from_previous ? 1 : 0));
  WritePod(out, c.continual_lr_scale);
  WriteIntVector(out, c.transform_hidden);
}

Status ReadConfig(BoundedReader* r, core::CerlConfig* c) {
  int32_t i32 = 0;
  uint8_t u8 = 0;

  CERL_RETURN_IF_ERROR(ReadIntVector(r, &c->net.rep_hidden, "rep_hidden"));
  CERL_RETURN_IF_ERROR(r->ReadPod(&i32, "rep_dim"));
  if (i32 < 1 || i32 > static_cast<int32_t>(kMaxLayerWidth)) {
    return Status::IoError("implausible rep_dim " + std::to_string(i32));
  }
  c->net.rep_dim = i32;
  CERL_RETURN_IF_ERROR(ReadIntVector(r, &c->net.head_hidden, "head_hidden"));
  CERL_RETURN_IF_ERROR(r->ReadPod(&u8, "activation"));
  if (u8 > static_cast<uint8_t>(nn::Activation::kSigmoid)) {
    return Status::IoError("unknown activation code " + std::to_string(u8));
  }
  c->net.activation = static_cast<nn::Activation>(u8);
  CERL_RETURN_IF_ERROR(
      ReadBool(r, &c->net.cosine_normalized_rep, "cosine flag"));

  CERL_RETURN_IF_ERROR(r->ReadPod(&i32, "epochs"));
  if (i32 < 0) return Status::IoError("negative epochs");
  c->train.epochs = i32;
  CERL_RETURN_IF_ERROR(r->ReadPod(&i32, "batch_size"));
  if (i32 < 1) return Status::IoError("non-positive batch_size");
  c->train.batch_size = i32;
  CERL_RETURN_IF_ERROR(r->ReadPod(&c->train.learning_rate, "learning_rate"));
  CERL_RETURN_IF_ERROR(r->ReadPod(&i32, "patience"));
  c->train.patience = i32;
  CERL_RETURN_IF_ERROR(r->ReadPod(&c->train.alpha, "alpha"));
  CERL_RETURN_IF_ERROR(r->ReadPod(&c->train.lambda, "lambda"));
  CERL_RETURN_IF_ERROR(r->ReadPod(&u8, "ipm kind"));
  if (u8 > static_cast<uint8_t>(ot::IpmKind::kLinearMmd)) {
    return Status::IoError("unknown IPM code " + std::to_string(u8));
  }
  c->train.ipm = static_cast<ot::IpmKind>(u8);
  CERL_RETURN_IF_ERROR(
      r->ReadPod(&c->train.sinkhorn.reg_fraction, "reg_fraction"));
  CERL_RETURN_IF_ERROR(r->ReadPod(&i32, "max_iterations"));
  c->train.sinkhorn.max_iterations = i32;
  CERL_RETURN_IF_ERROR(r->ReadPod(&c->train.sinkhorn.tolerance, "tolerance"));
  CERL_RETURN_IF_ERROR(
      ReadBool(r, &c->train.sinkhorn.warm_start, "warm_start"));
  uint64_t seed = 0;
  CERL_RETURN_IF_ERROR(r->ReadPod(&seed, "seed"));
  c->train.seed = seed;
  CERL_RETURN_IF_ERROR(ReadBool(r, &c->train.verbose, "verbose"));

  CERL_RETURN_IF_ERROR(r->ReadPod(&c->beta, "beta"));
  CERL_RETURN_IF_ERROR(r->ReadPod(&c->delta, "delta"));
  CERL_RETURN_IF_ERROR(r->ReadPod(&i32, "memory_capacity"));
  if (i32 < 0) return Status::IoError("negative memory_capacity");
  c->memory_capacity = i32;
  CERL_RETURN_IF_ERROR(ReadBool(r, &c->use_transform, "use_transform"));
  CERL_RETURN_IF_ERROR(ReadBool(r, &c->use_herding, "use_herding"));
  CERL_RETURN_IF_ERROR(
      ReadBool(r, &c->init_from_previous, "init_from_previous"));
  CERL_RETURN_IF_ERROR(
      r->ReadPod(&c->continual_lr_scale, "continual_lr_scale"));
  CERL_RETURN_IF_ERROR(
      ReadIntVector(r, &c->transform_hidden, "transform_hidden"));
  return Status::Ok();
}

}  // namespace

// The stream-header codec (declared in stream_internal.h), shared by the
// snapshot and the WAL registration record.
namespace snapfmt {

// --- stream header: u32 name_len, name bytes, u32 input_dim, CerlConfig ----

void WriteStreamHeader(std::string* out, const std::string& name,
                       uint32_t input_dim, const core::CerlConfig& config) {
  WritePod(out, static_cast<uint32_t>(name.size()));
  out->append(name);
  WritePod(out, input_dim);
  WriteConfig(out, config);
}

Status ReadStreamHeader(BoundedReader* r, std::string* name,
                        uint32_t* input_dim, core::CerlConfig* config) {
  uint32_t name_len = 0;
  CERL_RETURN_IF_ERROR(r->ReadPod(&name_len, "stream name length"));
  if (name_len > kMaxNameLen) {
    return Status::IoError("implausible stream name length " +
                           std::to_string(name_len));
  }
  CERL_RETURN_IF_ERROR(r->Require(name_len, "stream name"));
  name->assign(name_len, '\0');
  if (name_len > 0) {
    CERL_RETURN_IF_ERROR(r->ReadRaw(name->data(), name_len, "stream name"));
  }
  CERL_RETURN_IF_ERROR(r->ReadPod(input_dim, "stream input dim"));
  if (*input_dim == 0 || *input_dim > kMaxInputDim) {
    return Status::IoError("implausible stream input dim " +
                           std::to_string(*input_dim));
  }
  return ReadConfig(r, config);
}

}  // namespace snapfmt

Status StreamEngine::SerializeSnapshotLocked(std::string* out,
                                             SnapshotInfo* info) {
  out->clear();
  // Size hint so the fence's dominant cost — appending cached trainer blobs
  // — is one copy each, not a geometric-growth realloc cascade. Spilled
  // blobs are fetched later and missing from the estimate; reserve() is a
  // hint, not a bound.
  size_t reserve_bytes = 64;
  for (const auto& s : streams_) {
    reserve_bytes += s->name.size() + s->last_good.size() + 256;
  }
  out->reserve(reserve_bytes);
  out->append(kMagic, sizeof(kMagic));
  WritePod(out, static_cast<uint32_t>(streams_.size()));
  // Byte ranges of the embedded CERLCKP1 blobs, excluded from the trailing
  // metadata checksum (see the format comment at the top of this file).
  std::vector<std::pair<size_t, size_t>> blob_spans;
  blob_spans.reserve(streams_.size());
  for (const auto& s : streams_) {
    snapfmt::WriteStreamHeader(out, s->name,
                               static_cast<uint32_t>(s->input_dim),
                               s->trainer.config());
    // At the snapshot fence nothing is in flight, so pushed minus queued is
    // the completed-domain count; restoring it keeps domain indices
    // continuous across the restart.
    const uint32_t completed =
        static_cast<uint32_t>(s->pushed - static_cast<int>(s->queue.size()));
    WritePod(out, completed);
    // Health block: a restored engine must keep honoring a quarantine
    // and must resume a failure streak where it left off — otherwise a
    // restart would hand a poisoned tenant a fresh error budget.
    WritePod(out, static_cast<uint8_t>(s->health));
    WritePod(out, static_cast<uint32_t>(s->consecutive_failures));
    WritePod(out, static_cast<uint32_t>(s->failed_domains));
    // Cost-model block: the learned per-stage rates. Persisting them
    // means a restored backlogged engine schedules with warm estimates from
    // the first dispatch instead of re-learning under load.
    s->cost_model.Serialize(out);
    // Trainer blob, cheapest source first: a spilled stream's state IS its
    // stored blob (embedding it keeps the snapshot self-contained — restore
    // never needs the page store); an unchanged resident stream re-embeds
    // its cached last-good capture; only dirty streams re-serialize.
    const std::string* blob = nullptr;
    std::string fetched;
    if (!s->resident) {
      if (store_ == nullptr) {
        return Status::Internal("stream '" + s->name +
                                "' is spilled but no store is open");
      }
      Result<std::string> got = store_->Get(s->id);
      if (!got.ok()) return got.status();
      fetched = std::move(got).value();
      blob = &fetched;
      if (info != nullptr) ++info->reused_blobs;
    } else if (s->trainer.stages_seen() > 0) {
      if (s->last_good_stage == s->trainer.stages_seen() &&
          !s->last_good.empty()) {
        blob = &s->last_good;
        if (info != nullptr) ++info->reused_blobs;
      } else {
        // Dirty (the cache is missing or older than the trainer): serialize
        // fresh and refresh the cache — at the fence this is a
        // domain-boundary state, i.e. exactly the stream's last-good state.
        std::string fresh;
        CERL_RETURN_IF_ERROR(s->trainer.SerializeCheckpoint(&fresh));
        s->last_good = std::move(fresh);
        s->last_good_stage = s->trainer.stages_seen();
        blob = &s->last_good;
        if (info != nullptr) ++info->dirty_streams;
      }
    }
    WritePod(out, static_cast<uint8_t>(blob != nullptr ? 1 : 0));
    if (blob != nullptr) {
      WritePod(out, static_cast<uint64_t>(blob->size()));
      blob_spans.emplace_back(out->size(), blob->size());
      out->append(*blob);
    }
  }
  // Metadata-only trailing checksum: hash everything except the blob spans
  // (which verify themselves).
  Fnv1a64Stream hasher;
  const std::string_view bytes(*out);
  size_t pos = 0;
  for (const auto& span : blob_spans) {
    hasher.Update(bytes.substr(pos, span.first - pos));
    pos = span.first + span.second;
  }
  hasher.Update(bytes.substr(pos));
  WritePod(out, hasher.digest());
  return Status::Ok();
}

Status StreamEngine::SaveSnapshot(const std::string& path,
                                  SnapshotInfo* info) {
  std::string payload;
  int fence_num_streams = 0;
  {
    std::unique_lock<std::mutex> lock(state_mutex_);
    if (paused_) {
      return Status::FailedPrecondition("snapshot already in progress");
    }
    paused_ = true;
    // Domain-boundary fence: dispatch is paused, so once every in-flight
    // pipeline completes, each trainer sits between domains, the queues are
    // frozen, and the TaskGroups are idle — the workers stay up throughout.
    // Pending spill tasks are waited out too: SerializeSnapshotLocked must
    // never serialize a trainer a spill task is concurrently serializing
    // (and no NEW spill can start while paused_ — spills are only scheduled
    // by completing pipelines).
    state_cv_.wait(lock, [this] {
      for (const auto& s : streams_) {
        if (s->in_flight != nullptr || s->spilling) return false;
      }
      return true;
    });
    fence_num_streams = static_cast<int>(streams_.size());
    if (info != nullptr) {
      *info = SnapshotInfo();
      info->num_streams = static_cast<int>(streams_.size());
      for (const auto& s : streams_) {
        info->queued_domains += static_cast<int>(s->queue.size());
        info->completed_domains +=
            s->pushed - static_cast<int>(s->queue.size());
      }
    }
    const auto serialize_start = std::chrono::steady_clock::now();
    Status serialized = SerializeSnapshotLocked(&payload, info);
    if (info != nullptr) {
      info->serialize_ms =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - serialize_start)
              .count();
    }
    if (!serialized.ok()) {
      paused_ = false;
      for (auto& s : streams_) MaybeDispatchLocked(s.get());
      // Notify under the lock (same destructor-vs-notify rule as the
      // pipeline-completion tasks in stream_engine.cc).
      state_cv_.notify_all();
      return serialized;
    }
  }
  // The engine state is captured; the (slow) disk write proceeds without the
  // lock, then dispatch resumes whether or not the write succeeded.
  // Transient IO failures (full disk being cleaned up, a flaky network
  // filesystem, the injected kIoWrite fault) are retried with bounded
  // exponential backoff — the payload is already immutable, so a retry can
  // never observe different engine state.
  Status written = WriteFileAtomic(path, payload);
  for (int retry = 1; !written.ok() && retry <= kSnapshotIoRetries; ++retry) {
    std::this_thread::sleep_for(std::chrono::milliseconds(
        BackoffMs(kSnapshotRetryBackoffMs, retry)));
    written = WriteFileAtomic(path, payload);
  }
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    if (written.ok() && wal_ != nullptr) {
      // The published snapshot subsumes every completed domain: shrink the
      // WAL to the records it does not cover — still-queued domains and
      // post-fence registrations. paused_ kept every post-fence push in its
      // queue, and this thread holds state_mutex_ (which serializes WAL
      // appends), so the rebuilt keep-set is complete. Compaction failure
      // is non-fatal: the old WAL remains, and replay dedups subsumed
      // records by domain index.
      Status compacted = CompactWalLocked(fence_num_streams);
      if (!compacted.ok()) {
        CERL_LOG(Warning) << "WAL compaction after snapshot failed (log "
                          << "keeps full history): " << compacted.ToString();
      }
    }
    paused_ = false;
    for (auto& s : streams_) MaybeDispatchLocked(s.get());
    state_cv_.notify_all();
  }
  return written;
}

Status StreamEngine::LoadSnapshot(const std::string& path) {
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    if (paused_ || !streams_.empty()) {
      return Status::FailedPrecondition(
          "LoadSnapshot requires a fresh engine (no streams registered)");
    }
  }
  Result<std::string> bytes = ReadFileToString(path);
  if (!bytes.ok()) return bytes.status();
  const std::string& raw = bytes.value();

  // The container checksums metadata only (blob spans excluded), so the
  // hash is verified after the parse has located the spans.
  if (raw.size() < sizeof(kMagic) + sizeof(uint64_t)) {
    return Status::IoError("engine snapshot: too short to carry a checksum");
  }
  const std::string_view payload =
      std::string_view(raw).substr(0, raw.size() - sizeof(uint64_t));
  uint64_t stored_hash = 0;
  std::memcpy(&stored_hash, raw.data() + payload.size(), sizeof(stored_hash));

  ViewStreambuf buf(payload);
  std::istream in(&buf);
  BoundedReader r(&in, payload.size());
  char magic[sizeof(kMagic)];
  CERL_RETURN_IF_ERROR(r.ReadRaw(magic, sizeof(magic), "magic"));
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::IoError(
        "bad engine snapshot magic (only CERLENG5 is readable)");
  }
  uint32_t num_streams = 0;
  CERL_RETURN_IF_ERROR(r.ReadPod(&num_streams, "stream count"));
  if (num_streams > kMaxStreams) {
    return Status::IoError("implausible stream count " +
                           std::to_string(num_streams));
  }

  // Stage the whole engine before publishing anything: StreamStates are
  // built (and trainers restored) into a local vector, so any failure below
  // leaves this engine with zero streams.
  std::vector<std::unique_ptr<StreamState>> staged;
  std::vector<std::pair<size_t, size_t>> blob_spans;
  staged.reserve(num_streams);
  for (uint32_t i = 0; i < num_streams; ++i) {
    std::string stream_name;
    uint32_t input_dim = 0;
    core::CerlConfig config;
    CERL_RETURN_IF_ERROR(
        snapfmt::ReadStreamHeader(&r, &stream_name, &input_dim, &config));
    uint32_t completed = 0;
    CERL_RETURN_IF_ERROR(r.ReadPod(&completed, "completed domains"));
    // Lands in StreamState::pushed (an int): cap so a corrupt counter cannot
    // go negative through the cast and poison later domain indices.
    if (completed > (1u << 30)) {
      return Status::IoError("implausible completed-domain count " +
                             std::to_string(completed));
    }
    uint8_t health = 0;
    uint32_t consecutive_failures = 0;
    uint32_t failed_domains = 0;
    CERL_RETURN_IF_ERROR(r.ReadPod(&health, "stream health"));
    if (health > static_cast<uint8_t>(StreamHealth::kQuarantined)) {
      return Status::IoError("unknown stream health code " +
                             std::to_string(health));
    }
    CERL_RETURN_IF_ERROR(
        r.ReadPod(&consecutive_failures, "consecutive failures"));
    CERL_RETURN_IF_ERROR(r.ReadPod(&failed_domains, "failed domains"));
    if (consecutive_failures > (1u << 30) || failed_domains > (1u << 30)) {
      return Status::IoError("implausible failure counter");
    }

    auto state = std::make_unique<StreamState>(
        std::move(stream_name), config, static_cast<int>(input_dim), &pool_);
    state->id = static_cast<int>(i);
    SetHealth(state.get(), static_cast<StreamHealth>(health));
    state->consecutive_failures = static_cast<int>(consecutive_failures);
    state->failed_domains = static_cast<int>(failed_domains);
    // Home workers are runtime scheduling state: reassigned round-robin for
    // THIS engine's worker count, exactly as AddStream would.
    state->home = static_cast<int>(i) % pool_.num_threads();
    CERL_RETURN_IF_ERROR(state->cost_model.Deserialize(&r));
    uint8_t has_trainer = 0;
    CERL_RETURN_IF_ERROR(r.ReadPod(&has_trainer, "trainer flag"));
    if (has_trainer > 1) {
      return Status::IoError("snapshot trainer flag is not 0/1");
    }
    if (has_trainer) {
      uint64_t blob_len = 0;
      CERL_RETURN_IF_ERROR(r.ReadPod(&blob_len, "trainer blob length"));
      CERL_RETURN_IF_ERROR(r.Require(blob_len, "trainer blob"));
      // The blob bytes are excluded from the container checksum — record
      // the span for the post-parse verification below.
      blob_spans.emplace_back(payload.size() - r.remaining(),
                              static_cast<size_t>(blob_len));
      std::string blob(static_cast<size_t>(blob_len), '\0');
      CERL_RETURN_IF_ERROR(r.ReadRaw(blob.data(), blob_len, "trainer blob"));
      CERL_RETURN_IF_ERROR(state->trainer.DeserializeCheckpoint(blob));
      // The fence guarantees the blob is a domain-boundary state, so it
      // doubles as the restored stream's last-good rollback target and
      // blob-reuse cache.
      state->last_good = std::move(blob);
      state->last_good_stage = state->trainer.stages_seen();
    }
    state->pushed = static_cast<int>(completed);
    staged.push_back(std::move(state));
  }
  if (r.remaining() != 0) {
    return Status::IoError("engine snapshot has " +
                           std::to_string(r.remaining()) + " trailing bytes");
  }
  // Post-parse metadata verification: hash everything except the blob
  // spans (each blob verified its own checksum in DeserializeCheckpoint
  // above). Runs before anything is committed, so a corrupt container still
  // leaves the engine with zero streams.
  Fnv1a64Stream hasher;
  size_t pos = 0;
  for (const auto& span : blob_spans) {
    hasher.Update(payload.substr(pos, span.first - pos));
    pos = span.first + span.second;
  }
  hasher.Update(payload.substr(pos));
  if (hasher.digest() != stored_hash) {
    return Status::IoError(
        "engine snapshot: checksum mismatch (corrupted file)");
  }

  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    if (paused_ || !streams_.empty()) {
      return Status::FailedPrecondition(
          "engine changed while LoadSnapshot was parsing");
    }
    streams_ = std::move(staged);
  }
  // Re-publish the serving plane: a restored trained stream is queryable
  // immediately (version restarts at 1 — publish sequence numbers are
  // engine-lifetime, not durable). Runs before Recover()'s WAL replay, so
  // queries never race the rebuilt trainers.
  for (auto& state : streams_) PublishSnapshot(state.get());
  return Status::Ok();
}

}  // namespace cerl::stream
