// CERL checkpointing: persists exactly the state the method itself keeps
// between stages — the current model h_{theta_d}(g_{w_d}) with its scalers,
// the representation memory M_d, the stage counter, and the trainer RNG
// stream. By construction no raw covariates of past domains are written (the
// accessibility criterion), so a checkpoint is as privacy-compatible as the
// in-memory state — and it is the ENTIRE durable state: a restored trainer
// continues bit-identically to the uninterrupted run.
//
// Format CERLCKP1 (frozen; golden fixtures under tests/testdata/):
//   magic "CERLCKP1",
//   u32 stage_count, u32 input_dim,
//   rng (u64 words[4], u8 has_cached_normal, f64 cached_normal),
//   x-scaler (u32 dim, mean[], u32 dim, std[]; dim must equal input_dim),
//   y-scaler (f64 mean, f64 std, u8 fitted),
//   parameter block (nn/serialize CERLPAR1 framing),
//   memory (u32 rows, u32 cols, reps[], u32 rows, y[], t[] as u8),
//   u64 FNV-1a checksum of all preceding bytes.
//
// Reads are bounds-checked (every length field is validated against the
// bytes actually present before any allocation) and staged: the trainer is
// mutated only after the whole payload parsed and validated, so corrupt or
// mismatched checkpoints return a typed Status and leave the trainer
// untouched.
//
// (The pre-PR5 development layout reused this magic without the RNG block
// or checksum; it was never a published format — such files are rejected by
// the checksum check, which is where the format history starts.)
#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <utility>

#include "core/cerl_trainer.h"
#include "nn/serialize.h"
#include "util/binary_io.h"

namespace cerl::core {
namespace {

constexpr char kMagic[8] = {'C', 'E', 'R', 'L', 'C', 'K', 'P', '1'};

// Decode-time cap on memory rows: generous (the bank is bounded by
// memory_capacity, typically hundreds) yet small enough that a corrupted
// count can neither overflow the byte math nor the int casts.
constexpr uint32_t kMaxMemoryRows = 1u << 27;

}  // namespace

Status CerlTrainer::SerializeCheckpoint(std::string* out) {
  if (net_ == nullptr) {
    return Status::FailedPrecondition(
        "nothing to checkpoint: no domain observed yet");
  }
  out->clear();
  out->append(kMagic, sizeof(kMagic));
  WritePod(out, static_cast<uint32_t>(stages_seen_));
  WritePod(out, static_cast<uint32_t>(input_dim_));

  // Trainer RNG: consumed by the w/o-herding memory subsampling; persisting
  // it is what makes "save -> load -> continue" bitwise-equal to the
  // uninterrupted run under every ablation, not just the default config.
  const Rng::State rng_state = rng_.SaveState();
  for (uint64_t word : rng_state.words) WritePod(out, word);
  WritePod(out, static_cast<uint8_t>(rng_state.has_cached_normal ? 1 : 0));
  WritePod(out, rng_state.cached_normal);

  causal::RepOutcomeNet& net = *net_;
  WriteF64Vector(out, net.x_scaler().mean());
  WriteF64Vector(out, net.x_scaler().std());
  WritePod(out, net.y_scaler().mean());
  WritePod(out, net.y_scaler().scale());
  WritePod(out, static_cast<uint8_t>(net.y_scaler().fitted() ? 1 : 0));

  {
    std::ostringstream params;
    CERL_RETURN_IF_ERROR(
        nn::SaveParametersToStream(params, net.Parameters()));
    out->append(params.str());
  }

  const uint32_t mem_rows = static_cast<uint32_t>(memory_.size());
  const uint32_t mem_cols =
      memory_.empty() ? 0 : static_cast<uint32_t>(memory_.rep_dim());
  WritePod(out, mem_rows);
  WritePod(out, mem_cols);
  if (!memory_.empty()) {
    out->append(reinterpret_cast<const char*>(memory_.reps().data()),
                memory_.reps().size() * sizeof(double));
    WriteF64Vector(out, memory_.y());
    for (int t : memory_.t()) WritePod(out, static_cast<uint8_t>(t));
  }
  AppendChecksum(out);
  return Status::Ok();
}

Status CerlTrainer::DeserializeCheckpoint(std::string_view bytes) {
  if (stages_seen_ != 0) {
    return Status::FailedPrecondition(
        "checkpoint restore requires a fresh trainer");
  }
  Result<std::string_view> verified = VerifyChecksum(bytes, "checkpoint");
  if (!verified.ok()) return verified.status();
  const std::string_view payload = verified.value();

  // Everything below parses into locals; the trainer is mutated only in the
  // commit block at the end (all-or-nothing restore).
  ViewStreambuf buf(payload);
  std::istream in(&buf);
  BoundedReader r(&in, payload.size());

  char magic[8];
  CERL_RETURN_IF_ERROR(r.ReadRaw(magic, sizeof(magic), "magic"));
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::IoError("bad checkpoint magic");
  }
  uint32_t stages = 0, input_dim = 0;
  CERL_RETURN_IF_ERROR(r.ReadPod(&stages, "stage count"));
  CERL_RETURN_IF_ERROR(r.ReadPod(&input_dim, "input dim"));
  // Counters land in ints; cap them so a corrupt value cannot go negative
  // through the cast (the checksum is integrity-only, not a trust boundary).
  if (stages == 0 || stages > (1u << 30)) {
    return Status::IoError("implausible checkpoint stage count " +
                           std::to_string(stages));
  }
  if (static_cast<int>(input_dim) != input_dim_) {
    return Status::InvalidArgument(
        "checkpoint input dim " + std::to_string(input_dim) +
        " does not match trainer input dim " + std::to_string(input_dim_));
  }

  Rng::State rng_state;
  for (uint64_t& word : rng_state.words) {
    CERL_RETURN_IF_ERROR(r.ReadPod(&word, "rng state"));
  }
  uint8_t rng_cached = 0;
  CERL_RETURN_IF_ERROR(r.ReadPod(&rng_cached, "rng cached flag"));
  if (rng_cached > 1) {
    return Status::IoError("checkpoint rng cached flag is not 0/1");
  }
  rng_state.has_cached_normal = rng_cached != 0;
  CERL_RETURN_IF_ERROR(r.ReadPod(&rng_state.cached_normal, "rng cached"));

  // Scaler dimensions must match the trainer's input dimension — a mismatch
  // means the file belongs to a different feature space and reading on would
  // standardize garbage.
  linalg::Vector x_mean, x_std;
  CERL_RETURN_IF_ERROR(
      ReadF64VectorExpected(&r, input_dim, &x_mean, "x-scaler mean"));
  CERL_RETURN_IF_ERROR(
      ReadF64VectorExpected(&r, input_dim, &x_std, "x-scaler std"));
  double y_mean = 0.0, y_std = 1.0;
  uint8_t y_fitted = 0;
  CERL_RETURN_IF_ERROR(r.ReadPod(&y_mean, "y-scaler mean"));
  CERL_RETURN_IF_ERROR(r.ReadPod(&y_std, "y-scaler std"));
  CERL_RETURN_IF_ERROR(r.ReadPod(&y_fitted, "y-scaler fitted flag"));
  if (y_fitted > 1) {
    return Status::IoError("checkpoint y-scaler flag is not 0/1");
  }

  // Fresh model with this trainer's architecture; the parameter block must
  // match it name-for-name and shape-for-shape (that is the architecture
  // compatibility check).
  Rng init_rng(config_.train.seed);
  auto net = std::make_unique<causal::RepOutcomeNet>(&init_rng, config_.net,
                                                     input_dim_);
  {
    const auto before = in.tellg();
    CERL_RETURN_IF_ERROR(nn::LoadParametersFromStream(in, net->Parameters()));
    const auto after = in.tellg();
    if (before < 0 || after < before) {
      return Status::IoError("parameter block position tracking failed");
    }
    CERL_RETURN_IF_ERROR(r.Consume(static_cast<uint64_t>(after - before),
                                   "parameter block"));
  }

  uint32_t mem_rows = 0, mem_cols = 0;
  CERL_RETURN_IF_ERROR(r.ReadPod(&mem_rows, "memory rows"));
  CERL_RETURN_IF_ERROR(r.ReadPod(&mem_cols, "memory cols"));
  linalg::Matrix mem_reps;
  linalg::Vector mem_y;
  std::vector<int> mem_t;
  if (mem_rows > 0) {
    if (mem_rows > kMaxMemoryRows) {
      return Status::IoError("implausible memory row count " +
                             std::to_string(mem_rows));
    }
    if (static_cast<int>(mem_cols) != net->rep_dim()) {
      return Status::IoError(
          "memory rep dim " + std::to_string(mem_cols) +
          " does not match model rep dim " + std::to_string(net->rep_dim()));
    }
    const uint64_t rep_bytes =
        static_cast<uint64_t>(mem_rows) * mem_cols * sizeof(double);
    CERL_RETURN_IF_ERROR(r.Require(rep_bytes, "memory representations"));
    mem_reps.Resize(static_cast<int>(mem_rows), static_cast<int>(mem_cols));
    CERL_RETURN_IF_ERROR(
        r.ReadRaw(mem_reps.data(), rep_bytes, "memory representations"));
    CERL_RETURN_IF_ERROR(
        ReadF64VectorExpected(&r, mem_rows, &mem_y, "memory outcomes"));
    CERL_RETURN_IF_ERROR(r.Require(mem_rows, "memory treatments"));
    mem_t.resize(mem_rows);
    for (uint32_t i = 0; i < mem_rows; ++i) {
      uint8_t b = 0;
      CERL_RETURN_IF_ERROR(r.ReadPod(&b, "memory treatments"));
      if (b > 1) {
        return Status::IoError("memory treatment is not 0/1");
      }
      mem_t[i] = b;
    }
  }
  if (r.remaining() != 0) {
    return Status::IoError("checkpoint has " + std::to_string(r.remaining()) +
                           " trailing bytes");
  }

  // Commit: every field parsed and validated.
  net->x_scaler().Restore(std::move(x_mean), std::move(x_std));
  if (y_fitted) net->y_scaler().Restore(y_mean, y_std);
  net_ = std::move(net);
  memory_.Clear();
  if (mem_rows > 0) memory_.Append(mem_reps, mem_y, mem_t);
  stages_seen_ = static_cast<int>(stages);
  rng_.RestoreState(rng_state);
  return Status::Ok();
}

Status CerlTrainer::SaveCheckpoint(const std::string& path) {
  std::string payload;
  CERL_RETURN_IF_ERROR(SerializeCheckpoint(&payload));
  return WriteFileAtomic(path, payload);
}

Status CerlTrainer::LoadCheckpoint(const std::string& path) {
  Result<std::string> bytes = ReadFileToString(path);
  if (!bytes.ok()) return bytes.status();
  return DeserializeCheckpoint(bytes.value());
}

}  // namespace cerl::core
