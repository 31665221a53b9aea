// Corruption robustness of the CERLCKP1 trainer checkpoint and the CERLENG5
// engine snapshot: programmatic truncation at EVERY byte offset and byte
// flips across header/dims/blob regions must all come back as clean Status
// errors — no crash, no OOM-sized allocation, and no partial mutation of the
// target trainer/engine. Structural corruptions (with the checksum
// recomputed so they reach the field validators) exercise the typed error
// paths behind the checksum. Runs under ASan in CI.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "core/cerl_trainer.h"
#include "data/synthetic.h"
#include "stream/stream_engine.h"
#include "util/binary_io.h"
#include "util/check.h"
#include "util/rng.h"

namespace cerl {
namespace {

using core::CerlConfig;
using core::CerlTrainer;
using data::DataSplit;

constexpr int kInputDim = 25;

CerlConfig TinyConfig(uint64_t seed = 7) {
  CerlConfig c;
  c.net.rep_hidden = {6};
  c.net.rep_dim = 4;
  c.net.head_hidden = {4};
  c.train.epochs = 4;
  c.train.batch_size = 32;
  c.train.seed = seed;
  c.memory_capacity = 24;
  return c;
}

std::vector<DataSplit> TinyStream(int domains, uint64_t seed = 8) {
  data::SyntheticConfig dc;
  dc.num_confounders = 10;
  dc.num_instruments = 4;
  dc.num_irrelevant = 5;
  dc.num_adjusters = 6;  // 25 features total == kInputDim
  dc.num_domains = domains;
  dc.units_per_domain = 90;
  dc.seed = seed;
  auto stream = data::GenerateSyntheticStream(dc);
  Rng rng(seed + 1);
  return data::SplitStream(stream.domains, &rng);
}

// A trained trainer's serialized checkpoint (built once per suite).
const std::string& ValidTrainerPayload() {
  static const std::string* payload = [] {
    auto splits = TinyStream(2);
    CerlTrainer trainer(TinyConfig(), kInputDim);
    trainer.ObserveDomain(splits[0]);
    trainer.ObserveDomain(splits[1]);
    auto* out = new std::string;
    Status s = trainer.SerializeCheckpoint(out);
    CERL_CHECK_MSG(s.ok(), s.ToString().c_str());
    return out;
  }();
  return *payload;
}

// A 2-stream engine snapshot with two trained domains per stream (built
// once per suite).
const std::string& ValidEnginePayload() {
  static const std::string* payload = [] {
    stream::StreamEngineOptions options;
    options.num_workers = 2;
    stream::StreamEngine engine(options);
    auto splits_a = TinyStream(2, 21);
    auto splits_b = TinyStream(2, 22);
    const int a = engine.AddStream("a", TinyConfig(31), kInputDim);
    const int b = engine.AddStream("b", TinyConfig(32), kInputDim);
    engine.PushDomain(a, splits_a[0]);
    engine.PushDomain(b, splits_b[0]);
    engine.Drain();
    engine.PushDomain(a, splits_a[1]);
    engine.PushDomain(b, splits_b[1]);
    engine.Drain();
    const std::string path = ::testing::TempDir() + "/corrupt_engine.snap";
    Status s = engine.SaveSnapshot(path);
    CERL_CHECK_MSG(s.ok(), s.ToString().c_str());
    auto bytes = ReadFileToString(path);
    CERL_CHECK(bytes.ok());
    return new std::string(bytes.value());
  }();
  return *payload;
}

// Every failed load must leave the target in its pristine state.
void ExpectTrainerUnmutated(CerlTrainer* trainer) {
  EXPECT_EQ(trainer->stages_seen(), 0);
  EXPECT_TRUE(trainer->memory().empty());
}

void ExpectTrainerRejects(const std::string& bytes) {
  CerlTrainer trainer(TinyConfig(), kInputDim);
  const Status s = trainer.DeserializeCheckpoint(bytes);
  ASSERT_FALSE(s.ok());
  EXPECT_FALSE(s.message().empty());
  ExpectTrainerUnmutated(&trainer);
  // The trainer survived: a subsequent valid load must succeed.
  EXPECT_TRUE(trainer.DeserializeCheckpoint(ValidTrainerPayload()).ok());
}

std::string Truncated(const std::string& bytes, size_t len) {
  return bytes.substr(0, len);
}

std::string Flipped(const std::string& bytes, size_t pos, uint8_t mask) {
  std::string out = bytes;
  out[pos] = static_cast<char>(out[pos] ^ mask);
  return out;
}

// Re-finalizes a corrupted payload so it passes the checksum and reaches the
// structural validators (the interesting error paths).
std::string Refinalized(std::string payload_without_checksum) {
  AppendChecksum(&payload_without_checksum);
  return payload_without_checksum;
}

TEST(CheckpointCorruptionTest, TrainerTruncationAtEveryOffset) {
  const std::string& valid = ValidTrainerPayload();
  // Every prefix must be rejected; stride keeps the suite fast on large
  // payloads while still hitting every field boundary on small ones.
  const size_t step = valid.size() > (1u << 16) ? 7 : 1;
  for (size_t len = 0; len < valid.size(); len += step) {
    CerlTrainer trainer(TinyConfig(), kInputDim);
    const Status s = trainer.DeserializeCheckpoint(Truncated(valid, len));
    ASSERT_FALSE(s.ok()) << "truncation at " << len << " was accepted";
    ExpectTrainerUnmutated(&trainer);
  }
}

TEST(CheckpointCorruptionTest, TrainerByteFlipAtEveryOffset) {
  const std::string& valid = ValidTrainerPayload();
  const size_t step = valid.size() > (1u << 16) ? 7 : 1;
  for (size_t pos = 0; pos < valid.size(); pos += step) {
    CerlTrainer trainer(TinyConfig(), kInputDim);
    const Status s =
        trainer.DeserializeCheckpoint(Flipped(valid, pos, 0x40));
    ASSERT_FALSE(s.ok()) << "byte flip at " << pos << " was accepted";
    ExpectTrainerUnmutated(&trainer);
  }
}

TEST(CheckpointCorruptionTest, TrainerStructuralCorruptionsBehindChecksum) {
  const std::string& valid = ValidTrainerPayload();
  std::string payload = valid.substr(0, valid.size() - 8);  // drop checksum

  // Bad magic.
  ExpectTrainerRejects(Refinalized("X" + payload.substr(1)));
  // Zero stages.
  {
    std::string p = payload;
    std::memset(p.data() + 8, 0, 4);
    ExpectTrainerRejects(Refinalized(p));
  }
  // Input-dim mismatch (the trainer was built for kInputDim).
  {
    std::string p = payload;
    const uint32_t wrong = kInputDim + 3;
    std::memcpy(p.data() + 12, &wrong, 4);
    ExpectTrainerRejects(Refinalized(p));
  }
  // Scaler-dim corruption: the x-scaler mean length field (right after the
  // 16-byte header + 41 bytes of RNG state) must equal input_dim.
  {
    std::string p = payload;
    const uint32_t huge = 0x40000000;  // would be a 8 GiB allocation
    std::memcpy(p.data() + 57, &huge, 4);
    ExpectTrainerRejects(Refinalized(p));
  }
  // Truncation with a VALID checksum over the shorter payload: must be
  // caught by bounds checking, not the checksum.
  for (size_t len : std::vector<size_t>{20, 60, 100, payload.size() - 9}) {
    ExpectTrainerRejects(Refinalized(payload.substr(0, len)));
  }
  // Trailing garbage with a valid checksum.
  ExpectTrainerRejects(Refinalized(payload + std::string(13, '\x5a')));
  // Sanity: the untouched payload still loads (offsets above are live).
  {
    CerlTrainer trainer(TinyConfig(), kInputDim);
    ASSERT_TRUE(trainer.DeserializeCheckpoint(valid).ok());
    EXPECT_EQ(trainer.stages_seen(), 2);
  }
}

// A failed LoadSnapshot leaves the engine with zero streams, so one engine
// (and its worker threads) is reused across all corruption cases.
void ExpectEngineRejects(stream::StreamEngine* engine,
                         const std::string& bytes) {
  const std::string path = ::testing::TempDir() + "/corrupt_case.snap";
  {
    std::ofstream out(path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  const Status s = engine->LoadSnapshot(path);
  ASSERT_FALSE(s.ok());
  EXPECT_FALSE(s.message().empty());
  EXPECT_EQ(engine->num_streams(), 0);  // all-or-nothing
}

TEST(CheckpointCorruptionTest, EngineTruncationAtSampledOffsets) {
  const std::string& valid = ValidEnginePayload();
  stream::StreamEngineOptions options;
  options.num_workers = 1;
  stream::StreamEngine engine(options);
  // The engine container embeds trainer blobs, so it is larger; sample
  // densely at the front (header/config region) and stride the rest.
  for (size_t len = 0; len < std::min<size_t>(valid.size(), 256); ++len) {
    ExpectEngineRejects(&engine, Truncated(valid, len));
  }
  const size_t step = std::max<size_t>(1, valid.size() / 512);
  for (size_t len = 256; len < valid.size(); len += step) {
    ExpectEngineRejects(&engine, Truncated(valid, len));
  }
}

TEST(CheckpointCorruptionTest, EngineByteFlipAtSampledOffsets) {
  const std::string& valid = ValidEnginePayload();
  stream::StreamEngineOptions options;
  options.num_workers = 1;
  stream::StreamEngine engine(options);
  for (size_t pos = 0; pos < std::min<size_t>(valid.size(), 256); ++pos) {
    ExpectEngineRejects(&engine, Flipped(valid, pos, 0x01));
  }
  const size_t step = std::max<size_t>(1, valid.size() / 512);
  for (size_t pos = 256; pos < valid.size(); pos += step) {
    ExpectEngineRejects(&engine, Flipped(valid, pos, 0x80));
  }
  // Flip in the trailing checksum itself.
  ExpectEngineRejects(&engine, Flipped(valid, valid.size() - 1, 0x10));
}

TEST(CheckpointCorruptionTest, EngineStructuralCorruptionsBehindChecksum) {
  const std::string& valid = ValidEnginePayload();
  std::string payload = valid.substr(0, valid.size() - 8);
  stream::StreamEngineOptions options;
  options.num_workers = 1;
  stream::StreamEngine engine(options);

  // Bad magic.
  ExpectEngineRejects(&engine, Refinalized("Y" + payload.substr(1)));
  // Absurd stream count (offset 8: the u32 right after the CERLENG5 magic).
  {
    std::string p = payload;
    uint32_t count = 0;
    std::memcpy(&count, p.data() + 8, 4);
    ASSERT_EQ(count, 2u);  // the offset really is the stream count
    const uint32_t huge = 0x7fffffff;
    std::memcpy(p.data() + 8, &huge, 4);
    ExpectEngineRejects(&engine, Refinalized(p));
  }
  // Absurd stream-name length (first stream's name_len at offset 12).
  {
    std::string p = payload;
    uint32_t name_len = 0;
    std::memcpy(&name_len, p.data() + 12, 4);
    ASSERT_EQ(name_len, 1u);  // stream "a"
    const uint32_t huge = 0x00ffffff;
    std::memcpy(p.data() + 12, &huge, 4);
    ExpectEngineRejects(&engine, Refinalized(p));
  }
  // Truncations with recomputed checksums: bounds checks must fire.
  for (size_t len : std::vector<size_t>{16, 30, 200, payload.size() / 2}) {
    ExpectEngineRejects(&engine, Refinalized(payload.substr(0, len)));
  }
  // Trailing garbage.
  ExpectEngineRejects(&engine, Refinalized(payload + std::string(5, '\x11')));
  // Sanity: the untouched container still loads.
  {
    const std::string path = ::testing::TempDir() + "/corrupt_sane.snap";
    std::ofstream out(path, std::ios::binary);
    out.write(valid.data(), static_cast<std::streamsize>(valid.size()));
    out.close();
    stream::StreamEngineOptions options;
    options.num_workers = 2;
    stream::StreamEngine engine(options);
    ASSERT_TRUE(engine.LoadSnapshot(path).ok());
    EXPECT_EQ(engine.num_streams(), 2);
  }
}

// Hostile seek offsets on the payload stream interface: seekoff used to
// compute eback() + off BEFORE the bounds check, so an offset from a corrupt
// length field overflowed the pointer arithmetic (UB, flagged by UBSan
// pre-fix). The range check must happen in the integer domain, every
// out-of-range seek must fail cleanly, and the stream must stay usable.
TEST(CheckpointCorruptionTest, ViewStreambufRejectsHostileSeekOffsets) {
  const std::string bytes = "0123456789";
  ViewStreambuf buf(bytes);
  std::istream in(&buf);
  const auto size = static_cast<std::streamoff>(bytes.size());

  // Sane seeks across all three anchors still work.
  in.seekg(3, std::ios::beg);
  EXPECT_EQ(in.get(), '3');
  in.seekg(2, std::ios::cur);
  EXPECT_EQ(in.get(), '6');
  in.seekg(-1, std::ios::end);
  EXPECT_EQ(in.get(), '9');
  in.seekg(0, std::ios::end);  // one past the last byte is a valid position
  EXPECT_FALSE(in.fail());

  const std::streamoff offsets[] = {
      std::numeric_limits<std::streamoff>::max(),
      std::numeric_limits<std::streamoff>::max() - 1,
      std::numeric_limits<std::streamoff>::min(),
      std::numeric_limits<std::streamoff>::min() + 1,
      size + 1,
      -size - 1,
      -1,
      1,
  };
  const std::ios::seekdir dirs[] = {std::ios::beg, std::ios::cur,
                                    std::ios::end};
  for (const auto dir : dirs) {
    for (const std::streamoff off : offsets) {
      in.clear();
      in.seekg(1, std::ios::beg);  // known-good current position
      ASSERT_FALSE(in.fail());
      const std::streamoff base =
          dir == std::ios::beg ? 0 : (dir == std::ios::cur ? 1 : size);
      // base is in [0, 10], so the in-range test below cannot itself
      // overflow: valid iff base + off lands in [0, size].
      const bool in_range = off >= -base && off <= size - base;
      in.seekg(off, dir);
      EXPECT_EQ(!in.fail(), in_range)
          << "dir=" << dir << " off=" << off;
      if (in_range) {
        EXPECT_EQ(static_cast<std::streamoff>(in.tellg()), base + off);
      }
    }
  }

  // seekpos takes the same integer-domain guard (it routes through seekoff).
  in.clear();
  in.seekg(std::streampos(std::numeric_limits<std::streamoff>::max()));
  EXPECT_TRUE(in.fail());
  in.clear();
  in.seekg(std::streampos(4));
  EXPECT_EQ(in.get(), '4');
}

}  // namespace
}  // namespace cerl
