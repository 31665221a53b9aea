// Golden-format compatibility: small CERLCKP1 / CERLENG4 fixtures are
// committed under tests/testdata/ and every build must keep loading them
// bit-identically (PredictIte parity against committed hexfloat values).
// This freezes the on-disk formats — an accidental layout change breaks
// these tests, not production restores. CERLENG4 is the only engine format
// the reader accepts; the older container magics are typed load errors.
//
// Regenerating (only when the format is INTENTIONALLY revised):
//   CERL_REGEN_GOLDEN=1 ./build/tests/golden_format_test
// rewrites the fixtures in the source tree; commit them with the change.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "core/cerl_trainer.h"
#include "data/synthetic.h"
#include "linalg/simd.h"
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
std::string ExpectedFile() { return TestDataDir() + "/golden_expected.txt"; }

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
void WriteExpected(const std::vector<Vector>& sections,
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
  Status written = WriteFileAtomic(ExpectedFile(), out);
  ASSERT_TRUE(written.ok()) << written.ToString();
}

std::vector<Vector> ReadExpected(size_t num_sections) {
  std::vector<Vector> sections;
  std::ifstream in(ExpectedFile());
  EXPECT_TRUE(in.good()) << "missing fixture " << ExpectedFile();
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

// Builds the golden engine state: 2 streams; each has one trained domain
// and one journaled domain (pushed back-to-back, so domain 0 is in flight
// and domain 1 is still queued when the snapshot fence lands).
void RegenerateEngineFixture(Vector* expected_a, Vector* expected_b) {
  stream::StreamEngineOptions options;
  options.num_workers = 2;
  stream::StreamEngine engine(options);
  auto splits_a = GoldenStreamData(2, 3002);
  auto splits_b = GoldenStreamData(2, 3003);
  const int a = engine.AddStream("golden-a", GoldenStreamConfig(41),
                                 kGoldenDim);
  const int b = engine.AddStream("golden-b", GoldenStreamConfig(42),
                                 kGoldenDim);
  engine.PushDomain(a, splits_a[0]);
  engine.PushDomain(a, splits_a[1]);
  engine.PushDomain(b, splits_b[0]);
  engine.PushDomain(b, splits_b[1]);
  stream::StreamEngine::SnapshotInfo info;
  ASSERT_TRUE(engine.SaveSnapshot(EngineFixture(), &info).ok());
  // The fixture must exercise the journal codec.
  ASSERT_GT(info.journaled_domains, 0) << "regen raced: rerun";

  // Expected values come from REPLAYING the fixture, so verification does
  // not depend on this process's engine continuing.
  stream::StreamEngine replay(options);
  ASSERT_TRUE(replay.LoadSnapshot(EngineFixture()).ok());
  replay.Drain();
  *expected_a = replay.trainer(0).PredictIte(ProbeInputs());
  *expected_b = replay.trainer(1).PredictIte(ProbeInputs());
}

TEST(GoldenFormatTest, RegenerateIfRequested) {
  if (!RegenRequested()) return;
  ScalarKernelGuard scalar_guard;
  Vector trainer_ite, engine_a, engine_b;
  RegenerateTrainerFixture(&trainer_ite);
  RegenerateEngineFixture(&engine_a, &engine_b);
  WriteExpected({trainer_ite, engine_a, engine_b},
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
  stream::StreamEngineOptions options;
  options.num_workers = 2;
  stream::StreamEngine engine(options);
  Status s = engine.LoadSnapshot(EngineFixture());
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_EQ(engine.num_streams(), 2);
  EXPECT_EQ(engine.name(0), "golden-a");
  EXPECT_EQ(engine.name(1), "golden-b");
  // Journal replay is part of the frozen semantics: draining trains the
  // journaled domain of each stream, deterministically.
  engine.Drain();
  EXPECT_EQ(engine.trainer(0).stages_seen(), 2);
  EXPECT_EQ(engine.trainer(1).stages_seen(), 2);
  ExpectExactly(engine.trainer(0).PredictIte(ProbeInputs()), expected[1],
                "golden engine stream a");
  ExpectExactly(engine.trainer(1).PredictIte(ProbeInputs()), expected[2],
                "golden engine stream b");
}

// Pre-CERLENG4 containers are no longer readable: the CERLENG4 fixture with
// a legacy magic is a typed IO error and leaves the engine with zero streams.
TEST(GoldenFormatTest, LegacyEngineMagicsAreIoErrors) {
  Result<std::string> bytes = ReadFileToString(EngineFixture());
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  ASSERT_EQ(bytes.value().substr(0, 8), "CERLENG4");
  for (const char* magic : {"CERLENG1", "CERLENG2", "CERLENG3"}) {
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
