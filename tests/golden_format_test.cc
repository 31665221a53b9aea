// Golden-format compatibility: small CERLCKP1 / CERLENG5 / WAL fixtures are
// committed under tests/testdata/ and every build must keep loading them
// bit-identically (PredictIte parity against committed hexfloat values).
// This freezes the on-disk formats — an accidental layout change breaks
// these tests, not production restores. CERLENG5 is the only engine format
// the reader accepts; the older container magics are typed load errors, and
// so is a WAL registration record in the older config layout.
//
// Regenerating (only when the format is INTENTIONALLY revised):
//   CERL_REGEN_GOLDEN=1 ./build/tests/golden_format_test
// rewrites the fixtures in the source tree; commit them with the change.
// Regeneration is reproducible: the fixtures are trained under the scalar
// kernel table and the snapshot's wall-clock cost-model rates are pinned
// (PinCostModelRates), so rerunning it on the committed tree leaves every
// file byte-identical. A diff after a regeneration therefore means the
// format or the scalar arithmetic changed.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/cerl_trainer.h"
#include "data/synthetic.h"
#include "linalg/simd.h"
#include "storage/wal.h"
#include "stream/stream_engine.h"
#include "util/binary_io.h"
#include "util/rng.h"

namespace cerl {
namespace {

// The committed hexfloats pin the SCALAR kernel arithmetic: they must load
// bit-identically on any machine, including ones without AVX2. Each test
// (and the regen path) forces the scalar table so the fixture values stay
// machine-independent; production numerics are covered by the parity suite
// in simd_kernel_test.cc instead. The ELU and tanh forwards are the kernel
// layer's own expm1 core, not libm, so the pinned values also no longer
// depend on which expm1/tanh variant the host libm selects at load time
// (glibc resolves expm1 per CPU through an IFUNC).
class ScalarKernelGuard {
 public:
  ScalarKernelGuard() { linalg::simd::ForceScalarForTesting(true); }
  ~ScalarKernelGuard() { linalg::simd::ForceScalarForTesting(false); }
};

using core::CerlConfig;
using core::CerlTrainer;
using data::DataSplit;
using linalg::Matrix;
using linalg::Vector;

constexpr int kGoldenDim = 25;
constexpr int kProbeRows = 12;

std::string TestDataDir() { return CERL_TESTDATA_DIR; }
std::string TrainerFixture() { return TestDataDir() + "/golden_trainer.ckpt"; }
std::string EngineFixture() { return TestDataDir() + "/golden_engine.snap"; }
std::string WalFixture() { return TestDataDir() + "/golden_engine.wal"; }
std::string ExpectedFile() { return TestDataDir() + "/golden_expected.txt"; }
std::string WalExpectedFile() {
  return TestDataDir() + "/golden_wal_expected.txt";
}

bool RegenRequested() {
  const char* env = std::getenv("CERL_REGEN_GOLDEN");
  return env != nullptr && env[0] == '1';
}

// Everything below is pinned: the fixtures were generated with exactly these
// configs/seeds, and loading requires the same architecture.
CerlConfig GoldenTrainerConfig() {
  CerlConfig c;
  c.net.rep_hidden = {6};
  c.net.rep_dim = 4;
  c.net.head_hidden = {4};
  c.train.epochs = 4;
  c.train.batch_size = 32;
  c.train.seed = 1213;
  c.memory_capacity = 24;
  return c;
}

CerlConfig GoldenStreamConfig(uint64_t seed) {
  CerlConfig c = GoldenTrainerConfig();
  c.train.seed = seed;
  return c;
}

std::vector<DataSplit> GoldenStreamData(int domains, uint64_t seed) {
  data::SyntheticConfig dc;
  dc.num_confounders = 10;
  dc.num_instruments = 4;
  dc.num_irrelevant = 5;
  dc.num_adjusters = 6;  // 25 features total == kGoldenDim
  dc.num_domains = domains;
  dc.units_per_domain = 90;
  dc.seed = seed;
  auto stream = data::GenerateSyntheticStream(dc);
  Rng rng(seed + 1);
  return data::SplitStream(stream.domains, &rng);
}

// Deterministic probe inputs (bit-reproducible: our own Rng, no std::
// distributions).
Matrix ProbeInputs() {
  Rng rng(424242);
  Matrix x(kProbeRows, kGoldenDim);
  for (int i = 0; i < kProbeRows; ++i) {
    for (int j = 0; j < kGoldenDim; ++j) x(i, j) = rng.Normal();
  }
  return x;
}

// The expected-values file: one "%a" hexfloat per line, sections separated
// by labels. Hexfloat round-trips doubles exactly, so parity is bitwise.
void WriteExpected(const std::string& path, const std::vector<Vector>& sections,
                   const std::vector<std::string>& labels) {
  std::string out;
  for (size_t s = 0; s < sections.size(); ++s) {
    out += "# " + labels[s] + "\n";
    for (double v : sections[s]) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%a\n", v);
      out += buf;
    }
  }
  Status written = WriteFileAtomic(path, out);
  ASSERT_TRUE(written.ok()) << written.ToString();
}

std::vector<Vector> ReadExpected(size_t num_sections,
                                 const std::string& path = ExpectedFile()) {
  std::vector<Vector> sections;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      sections.emplace_back();
      continue;
    }
    EXPECT_FALSE(sections.empty());
    sections.back().push_back(std::strtod(line.c_str(), nullptr));
  }
  EXPECT_EQ(sections.size(), num_sections);
  sections.resize(num_sections);
  return sections;
}

void ExpectExactly(const Vector& actual, const Vector& expected,
                   const std::string& tag) {
  ASSERT_EQ(actual.size(), expected.size()) << tag;
  for (size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i], expected[i]) << tag << " value " << i;
  }
}

// Builds the golden trainer state: 2 observed domains.
void RegenerateTrainerFixture(Vector* expected_ite) {
  auto splits = GoldenStreamData(2, 3001);
  CerlTrainer trainer(GoldenTrainerConfig(), kGoldenDim);
  trainer.ObserveDomain(splits[0]);
  trainer.ObserveDomain(splits[1]);
  ASSERT_TRUE(trainer.SaveCheckpoint(TrainerFixture()).ok());
  *expected_ite = trainer.PredictIte(ProbeInputs());
}

// The golden engine's two streams, each two domains long.
std::vector<DataSplit> GoldenEngineData(int stream) {
  return GoldenStreamData(2, 3002 + static_cast<uint64_t>(stream));
}

stream::StreamEngineOptions GoldenEngineOptions() {
  stream::StreamEngineOptions options;
  options.num_workers = 2;
  return options;
}

// On an engine restored from the fixture, pushes domain 1 of each stream and
// drains — the continuation the expected hexfloats pin.
void ContinueEngineFixture(stream::StreamEngine* engine) {
  for (int s = 0; s < 2; ++s) {
    ASSERT_TRUE(engine->PushDomain(s, GoldenEngineData(s)[1]).ok());
  }
  engine->Drain();
}

// The snapshot's per-stream cost-model block holds wall-clock stage rates,
// the one part of the fixture a rerun cannot reproduce. The regen path pins
// every rate to kPinnedRateMsPerUnit (observation counts kept) and re-seals
// the metadata checksum, so a second regeneration writes the same bytes.
// The rates only order scheduling; no result depends on them.
constexpr double kPinnedRateMsPerUnit = 0.01;

void PinCostModelRates(const std::string& path) {
  Result<std::string> bytes = ReadFileToString(path);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  std::string snap = bytes.value();
  snap.resize(snap.size() - sizeof(uint64_t));  // the old checksum
  uint32_t num_streams = 0;
  std::memcpy(&num_streams, snap.data() + 8, sizeof(num_streams));
  // Each stream's record ends {3 x (f64 rate, i64 count), u8 has_trainer,
  // u64 blob_len, CERLCKP1 blob}; the blob is excluded from the checksum.
  Fnv1a64Stream hasher;
  size_t pos = 0;
  for (uint32_t i = 0; i < num_streams; ++i) {
    const size_t blob = snap.find("CERLCKP1", pos + 12);
    ASSERT_NE(blob, std::string::npos) << "stream " << i << " has no blob";
    const size_t rates = blob - sizeof(uint64_t) - 1 - 3 * 16;
    for (int stage = 0; stage < 3; ++stage) {
      std::memcpy(snap.data() + rates + 16 * stage, &kPinnedRateMsPerUnit,
                  sizeof(double));
    }
    uint64_t blob_len = 0;
    std::memcpy(&blob_len, snap.data() + blob - sizeof(uint64_t),
                sizeof(blob_len));
    hasher.Update(std::string_view(snap).substr(pos, blob - pos));
    pos = blob + blob_len;
  }
  hasher.Update(std::string_view(snap).substr(pos));
  WritePod(&snap, hasher.digest());
  ASSERT_TRUE(WriteFileAtomic(path, snap).ok());
}

// Builds the golden engine state: 2 streams, each drained after domain 0,
// then snapshotted. Drained first, so the fixture does not depend on where
// the snapshot fence lands.
void RegenerateEngineFixture(Vector* expected_a, Vector* expected_b) {
  stream::StreamEngine engine(GoldenEngineOptions());
  const int a = engine.AddStream("golden-a", GoldenStreamConfig(41),
                                 kGoldenDim);
  const int b = engine.AddStream("golden-b", GoldenStreamConfig(42),
                                 kGoldenDim);
  ASSERT_TRUE(engine.PushDomain(a, GoldenEngineData(0)[0]).ok());
  ASSERT_TRUE(engine.PushDomain(b, GoldenEngineData(1)[0]).ok());
  engine.Drain();
  ASSERT_TRUE(engine.SaveSnapshot(EngineFixture()).ok());
  PinCostModelRates(EngineFixture());

  // Expected values come from REPLAYING the fixture, so verification does
  // not depend on this process's engine continuing.
  stream::StreamEngine replay(GoldenEngineOptions());
  ASSERT_TRUE(replay.LoadSnapshot(EngineFixture()).ok());
  ContinueEngineFixture(&replay);
  *expected_a = replay.trainer(0).PredictIte(ProbeInputs());
  *expected_b = replay.trainer(1).PredictIte(ProbeInputs());
}

// Builds the golden WAL: the registration of stream golden-a and its
// domain 0, exactly as a WAL-enabled engine logs them on arrival.
void RegenerateWalFixture(Vector* expected) {
  std::remove(WalFixture().c_str());
  stream::StreamEngineOptions options = GoldenEngineOptions();
  options.wal_path = WalFixture();
  stream::StreamEngine engine(options);
  ASSERT_TRUE(engine.OpenStorage().ok());
  const int a = engine.AddStream("golden-a", GoldenStreamConfig(41),
                                 kGoldenDim);
  ASSERT_TRUE(engine.PushDomain(a, GoldenEngineData(0)[0]).ok());
  engine.Drain();
  *expected = engine.trainer(a).PredictIte(ProbeInputs());
}

// A scratch copy of the WAL fixture: Recover appends to the log it opens,
// and the committed fixture must stay untouched.
std::string WalFixtureCopy(const std::string& name) {
  Result<std::string> bytes = ReadFileToString(WalFixture());
  EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
  const std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  EXPECT_TRUE(WriteFileAtomic(path, bytes.ok() ? bytes.value() : "").ok());
  return path;
}

TEST(GoldenFormatTest, RegenerateIfRequested) {
  if (!RegenRequested()) return;
  ScalarKernelGuard scalar_guard;
  Vector trainer_ite, engine_a, engine_b, wal_a;
  RegenerateTrainerFixture(&trainer_ite);
  RegenerateEngineFixture(&engine_a, &engine_b);
  RegenerateWalFixture(&wal_a);
  WriteExpected(WalExpectedFile(), {wal_a},
                {"WAL-recovered stream golden-a PredictIte"});
  WriteExpected(ExpectedFile(), {trainer_ite, engine_a, engine_b},
                {"trainer PredictIte", "engine stream golden-a PredictIte",
                 "engine stream golden-b PredictIte"});
}

TEST(GoldenFormatTest, TrainerFixtureLoadsBitIdentically) {
  ScalarKernelGuard scalar_guard;
  const std::vector<Vector> expected = ReadExpected(3);
  CerlTrainer trainer(GoldenTrainerConfig(), kGoldenDim);
  Status s = trainer.LoadCheckpoint(TrainerFixture());
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(trainer.stages_seen(), 2);
  ExpectExactly(trainer.PredictIte(ProbeInputs()), expected[0],
                "golden trainer");
}

TEST(GoldenFormatTest, EngineFixtureLoadsAndReplaysBitIdentically) {
  ScalarKernelGuard scalar_guard;
  const std::vector<Vector> expected = ReadExpected(3);
  stream::StreamEngine engine(GoldenEngineOptions());
  Status s = engine.LoadSnapshot(EngineFixture());
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_EQ(engine.num_streams(), 2);
  EXPECT_EQ(engine.name(0), "golden-a");
  EXPECT_EQ(engine.name(1), "golden-b");
  EXPECT_EQ(engine.trainer(0).stages_seen(), 1);
  EXPECT_EQ(engine.trainer(1).stages_seen(), 1);
  // Continuing is part of the frozen semantics: domain 1 of each stream
  // trains on the restored state deterministically, at domain index 1.
  ContinueEngineFixture(&engine);
  for (int stream = 0; stream < 2; ++stream) {
    ASSERT_EQ(engine.results(stream).size(), 1u);
    EXPECT_EQ(engine.results(stream)[0].domain_index, 1);
  }
  EXPECT_EQ(engine.trainer(0).stages_seen(), 2);
  EXPECT_EQ(engine.trainer(1).stages_seen(), 2);
  ExpectExactly(engine.trainer(0).PredictIte(ProbeInputs()), expected[1],
                "golden engine stream a");
  ExpectExactly(engine.trainer(1).PredictIte(ProbeInputs()), expected[2],
                "golden engine stream b");
}

// The WAL fixture (one registration record, one domain record) replays
// through Recover into a trained stream golden-a, bit for bit.
TEST(GoldenFormatTest, WalFixtureRecoversBitIdentically) {
  ScalarKernelGuard scalar_guard;
  const std::vector<Vector> expected = ReadExpected(1, WalExpectedFile());
  stream::StreamEngineOptions options = GoldenEngineOptions();
  options.wal_path = WalFixtureCopy("golden_recover.wal");
  stream::StreamEngine engine(options);
  Status s = engine.Recover("");
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_EQ(engine.num_streams(), 1);
  EXPECT_EQ(engine.name(0), "golden-a");
  engine.Drain();
  ASSERT_EQ(engine.results(0).size(), 1u);
  EXPECT_EQ(engine.results(0)[0].domain_index, 0);
  EXPECT_EQ(engine.trainer(0).config().train.seed, 41u);
  ExpectExactly(engine.trainer(0).PredictIte(ProbeInputs()), expected[0],
                "WAL-recovered stream");
  std::remove(options.wal_path.c_str());
}

// A registration record in the CERLENG4-era layout — its config block
// carried three more fields after warm_start and verbose — must be a typed
// IO error on replay, never parsed into a wrong config.
TEST(GoldenFormatTest, LegacyWalRegistrationRecordIsIoError) {
  const std::string copy = WalFixtureCopy("golden_legacy_src.wal");
  Result<std::unique_ptr<storage::Wal>> fixture = storage::Wal::Open(copy, {});
  ASSERT_TRUE(fixture.ok()) << fixture.status().ToString();
  const std::vector<storage::Wal::Record> records =
      fixture.value()->recovered();
  ASSERT_EQ(records.size(), 2u);
  fixture.value().reset();
  std::remove(copy.c_str());

  // Registration payload: u32 id, u32 name_len, "golden-a", u32 input_dim
  // (20 bytes), then the config; its warm_start flag ends at byte 100, and
  // the u64 seed and u8 verbose follow.
  std::string legacy = records[0].payload;
  uint64_t seed = 0;
  ASSERT_GT(legacy.size(), 109u);
  std::memcpy(&seed, legacy.data() + 100, sizeof(seed));
  ASSERT_EQ(seed, 41u);  // the offsets above really frame the seed
  ASSERT_EQ(legacy[108], 0);  // verbose
  // The old layout: u8 1 + i64 4096 before the seed, u8 0 after verbose.
  legacy.insert(109, 1, '\0');
  std::string sinkhorn_fields(9, '\0');
  sinkhorn_fields[0] = 1;
  const int64_t min_parallel_elements = 4096;
  std::memcpy(&sinkhorn_fields[1], &min_parallel_elements, 8);
  legacy.insert(100, sinkhorn_fields);

  // The old registration record type, and the same payload under today's
  // type: both must fail the replay with zero streams registered.
  for (const uint32_t type : {1u, records[0].type}) {
    const std::string path = ::testing::TempDir() + "/golden_legacy.wal";
    std::remove(path.c_str());
    {
      Result<std::unique_ptr<storage::Wal>> wal = storage::Wal::Open(path, {});
      ASSERT_TRUE(wal.ok()) << wal.status().ToString();
      ASSERT_TRUE(wal.value()->Append(type, legacy).ok());
      ASSERT_TRUE(
          wal.value()->Append(records[1].type, records[1].payload).ok());
    }
    stream::StreamEngineOptions options = GoldenEngineOptions();
    options.wal_path = path;
    stream::StreamEngine engine(options);
    Status s = engine.Recover("");
    EXPECT_EQ(s.code(), StatusCode::kIoError) << type << ": " << s.ToString();
    EXPECT_EQ(engine.num_streams(), 0) << type;
    std::remove(path.c_str());
  }
}

// Older containers are no longer readable: the CERLENG5 fixture with a
// legacy magic is a typed IO error and leaves the engine with zero streams.
TEST(GoldenFormatTest, LegacyEngineMagicsAreIoErrors) {
  Result<std::string> bytes = ReadFileToString(EngineFixture());
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  ASSERT_EQ(bytes.value().substr(0, 8), "CERLENG5");
  for (const char* magic : {"CERLENG1", "CERLENG2", "CERLENG3", "CERLENG4"}) {
    std::string legacy = bytes.value();
    legacy.replace(0, 8, magic);
    const std::string path = ::testing::TempDir() + "/legacy_" + magic;
    ASSERT_TRUE(WriteFileAtomic(path, legacy).ok());
    stream::StreamEngineOptions options;
    options.num_workers = 2;
    stream::StreamEngine engine(options);
    Status s = engine.LoadSnapshot(path);
    EXPECT_EQ(s.code(), StatusCode::kIoError) << magic << ": " << s.ToString();
    EXPECT_EQ(engine.num_streams(), 0) << magic;
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace cerl
