// Tests for the util layer: Status/Result, RNG determinism and moments,
// scalar distributions, alias sampling, CSV, flags.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <utility>

#include "util/binary_io.h"
#include "util/csv.h"
#include "util/distributions.h"
#include "util/flags.h"
#include "util/histogram.h"
#include "util/keyed_pool.h"
#include "util/rng.h"
#include "util/status.h"

namespace cerl {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad dims");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.ToString().find("bad dims"), std::string::npos);
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  auto inner = []() { return Status::NotFound("x"); };
  auto outer = [&]() -> Status {
    CERL_RETURN_IF_ERROR(inner());
    return Status::Ok();
  };
  EXPECT_EQ(outer().code(), StatusCode::kNotFound);
}

TEST(StatusTest, AdmissionControlCodes) {
  Status exhausted = Status::ResourceExhausted("queue full");
  EXPECT_FALSE(exhausted.ok());
  EXPECT_EQ(exhausted.code(), StatusCode::kResourceExhausted);
  EXPECT_STREQ(StatusCodeName(exhausted.code()), "RESOURCE_EXHAUSTED");
  EXPECT_EQ(exhausted.ToString(), "RESOURCE_EXHAUSTED: queue full");

  Status unavailable = Status::Unavailable("quarantined");
  EXPECT_FALSE(unavailable.ok());
  EXPECT_EQ(unavailable.code(), StatusCode::kUnavailable);
  EXPECT_STREQ(StatusCodeName(unavailable.code()), "UNAVAILABLE");
  EXPECT_EQ(unavailable.ToString(), "UNAVAILABLE: quarantined");
}

TEST(StatusTest, StatusErrorCarriesTheStatusThroughThrow) {
  try {
    throw StatusError(Status::NumericalError("nan loss"));
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status().code(), StatusCode::kNumericalError);
    EXPECT_EQ(e.status().message(), "nan loss");
    EXPECT_STREQ(e.what(), "NUMERICAL_ERROR: nan loss");
    return;
  }
  FAIL() << "StatusError was not caught";
}

TEST(ResultTest, HoldsValueOrStatus) {
  Result<int> ok(42);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);
  Result<int> err(Status::Internal("boom"));
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kInternal);
}

TEST(ResultTest, MoveSemanticsTransferTheValueWithoutCopying) {
  // move_only payload: compiles only if Result forwards moves end to end.
  Result<std::unique_ptr<int>> holder(std::make_unique<int>(7));
  ASSERT_TRUE(holder.ok());
  std::unique_ptr<int> taken = std::move(holder).value();
  ASSERT_NE(taken, nullptr);
  EXPECT_EQ(*taken, 7);

  // Moving the Result itself carries the live value along...
  Result<std::unique_ptr<int>> source(std::make_unique<int>(9));
  Result<std::unique_ptr<int>> target(std::move(source));
  ASSERT_TRUE(target.ok());
  EXPECT_EQ(*target.value(), 9);

  // ...and an error Result moves its Status intact.
  Result<std::unique_ptr<int>> bad(Status::Unavailable("shed"));
  Result<std::unique_ptr<int>> moved_bad(std::move(bad));
  ASSERT_FALSE(moved_bad.ok());
  EXPECT_EQ(moved_bad.status().code(), StatusCode::kUnavailable);

  // Mutable access through value()& supports in-place rebinding.
  Result<std::string> text(std::string("abc"));
  text.value() += "def";
  EXPECT_EQ(text.value(), "abcdef");
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.NextU64() == b.NextU64());
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.Uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 20000, 0.5, 0.02);
}

TEST(RngTest, UniformIntUnbiasedCoverage) {
  Rng rng(11);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 50000; ++i) ++counts[rng.UniformInt(10)];
  for (int c : counts) EXPECT_NEAR(c, 5000, 350);
}

TEST(RngTest, NormalMoments) {
  Rng rng(5);
  double sum = 0.0, sumsq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal();
    sum += x;
    sumsq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sumsq / n, 1.0, 0.03);
}

TEST(RngTest, SaveRestoreStateContinuesBitIdentically) {
  Rng a(991);
  for (int i = 0; i < 57; ++i) a.NextU64();
  a.Normal();  // leaves a cached polar variate half the time
  const Rng::State state = a.SaveState();
  Rng b(123);  // unrelated seed; state restore must fully overwrite
  b.RestoreState(state);
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(a.NextU64(), b.NextU64()) << "draw " << i;
  }
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(a.Normal(), b.Normal()) << "normal " << i;
  }
}

TEST(BinaryIoTest, Fnv1a64KnownVectors) {
  // Reference values of the standard 64-bit FNV-1a parameters.
  EXPECT_EQ(Fnv1a64(""), 0xCBF29CE484222325ull);
  EXPECT_EQ(Fnv1a64("a"), 0xAF63DC4C8601EC8Cull);
  EXPECT_EQ(Fnv1a64("foobar"), 0x85944171F73967E8ull);
}

TEST(BinaryIoTest, ChecksumRoundTripAndTamperDetection) {
  std::string payload = "some checkpoint bytes";
  const std::string original = payload;
  AppendChecksum(&payload);
  EXPECT_EQ(payload.size(), original.size() + 8);
  Result<std::string_view> ok = VerifyChecksum(payload, "test");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), original);
  // Any flipped bit — payload or checksum — must be detected.
  for (size_t pos = 0; pos < payload.size(); ++pos) {
    std::string tampered = payload;
    tampered[pos] ^= 0x04;
    EXPECT_FALSE(VerifyChecksum(tampered, "test").ok()) << "pos " << pos;
  }
  EXPECT_FALSE(VerifyChecksum("short", "test").ok());
}

TEST(BinaryIoTest, WriteFileAtomicPublishesAllOrNothing) {
  const std::string path = ::testing::TempDir() + "/atomic_util.bin";
  {
    std::ofstream prev(path, std::ios::binary);
    prev << "old contents";
  }
  ASSERT_TRUE(WriteFileAtomic(path, "new contents").ok());
  Result<std::string> readback = ReadFileToString(path);
  ASSERT_TRUE(readback.ok());
  EXPECT_EQ(readback.value(), "new contents");
  std::ifstream tmp(path + ".tmp", std::ios::binary);
  EXPECT_FALSE(tmp.good());  // temp removed after publish
  // Unwritable destination directory fails cleanly.
  EXPECT_FALSE(WriteFileAtomic("/nonexistent-dir/x.bin", "data").ok());
}

TEST(BinaryIoTest, Fnv1a64StreamMatchesAnySegmentation) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const uint64_t whole = Fnv1a64(data);
  // One-shot, byte-at-a-time, uneven chunks, and with empty updates mixed
  // in: every segmentation of the same bytes yields the same digest.
  {
    Fnv1a64Stream s;
    s.Update(data);
    EXPECT_EQ(s.digest(), whole);
  }
  {
    Fnv1a64Stream s;
    for (char c : data) s.Update(std::string_view(&c, 1));
    EXPECT_EQ(s.digest(), whole);
  }
  {
    Fnv1a64Stream s;
    s.Update(std::string_view(data).substr(0, 7));
    s.Update(std::string_view());  // empty update is a no-op
    s.Update(std::string_view(data).substr(7, 20));
    s.Update(std::string_view(data).substr(27));
    EXPECT_EQ(s.digest(), whole);
  }
  // A fresh stream's digest is the FNV offset basis (hash of "").
  EXPECT_EQ(Fnv1a64Stream().digest(), Fnv1a64(""));
}

TEST(BinaryIoTest, WriteF64VectorEmptyVectorIsJustTheCount) {
  // Regression: v.data() is null for an empty vector, and passing null to
  // string::append is UB even with length 0. The writer must emit the u32
  // zero count and nothing else.
  std::string out = "prefix";
  WriteF64Vector(&out, {});
  ASSERT_EQ(out.size(), 6 + 4);
  uint32_t count = 0xff;
  std::memcpy(&count, out.data() + 6, 4);
  EXPECT_EQ(count, 0u);

  // And the empty vector round-trips through the bounded reader.
  std::istringstream in(out.substr(6));
  BoundedReader r(&in, 4);
  std::vector<double> v = {1.0, 2.0};  // must be cleared by the read
  ASSERT_TRUE(ReadF64VectorExpected(&r, 0, &v, "empty").ok());
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(BinaryIoTest, ConcurrentAtomicWritesToOnePathStayComplete) {
  // Regression for the shared ".tmp" suffix: concurrent writers used to
  // clobber each other's temp file and could publish a torn payload. Each
  // writer repeatedly publishes its own full-size pattern; every read must
  // observe one COMPLETE pattern, never a mix or a prefix.
  const std::string path = ::testing::TempDir() + "/atomic_race.bin";
  constexpr int kWriters = 4;
  constexpr int kRounds = 25;
  constexpr size_t kSize = 64 * 1024;
  std::atomic<bool> failed{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      const std::string contents(kSize, static_cast<char>('A' + w));
      for (int r = 0; r < kRounds && !failed.load(); ++r) {
        if (!WriteFileAtomic(path, contents).ok()) failed.store(true);
      }
    });
  }
  for (int r = 0; r < kWriters * kRounds; ++r) {
    Result<std::string> read = ReadFileToString(path);
    if (!read.ok()) continue;  // not yet published the first time
    const std::string& bytes = read.value();
    ASSERT_EQ(bytes.size(), kSize) << "torn file published";
    ASSERT_NE(bytes.find_first_of("ABCD"), std::string::npos);
    ASSERT_EQ(bytes.find_first_not_of(bytes[0]), std::string::npos)
        << "mixed-writer file published";
  }
  for (auto& t : writers) t.join();
  EXPECT_FALSE(failed.load());
  Result<std::string> final_read = ReadFileToString(path);
  ASSERT_TRUE(final_read.ok());
  EXPECT_EQ(final_read.value().size(), kSize);
}

TEST(HistogramTest, RecordExtremeInputsStaysFinite) {
  // Regression: +inf and >= ~9.2e12 ms passed the NaN/negative guard and
  // overflowed the int64 nanosecond cast (UB, caught by UBSan pre-fix).
  ConcurrentLatencyHistogram h;
  h.Record(std::numeric_limits<double>::infinity());
  h.Record(9e15);
  h.Record(std::numeric_limits<double>::max());
  h.Record(std::numeric_limits<double>::quiet_NaN());
  h.Record(-std::numeric_limits<double>::infinity());
  h.Record(-5.0);
  h.Record(1.5);  // one sane sample
  EXPECT_EQ(h.count(), 7);
  const LatencyHistogram snap = h.Snapshot();
  EXPECT_EQ(snap.count(), 7);
  // The clamp keeps the folded totals finite and ordered.
  EXPECT_TRUE(std::isfinite(snap.total_ms()));
  EXPECT_TRUE(std::isfinite(snap.max_ms()));
  EXPECT_GE(snap.max_ms(), 1.5);
  EXPECT_TRUE(std::isfinite(snap.Percentile(0.5)));
  EXPECT_TRUE(std::isfinite(snap.Percentile(1.0)));

  // The plain histogram takes the same hostile inputs (it stores doubles,
  // so the clamp lives in the concurrent variant's ns cast only).
  LatencyHistogram plain;
  plain.Record(std::numeric_limits<double>::quiet_NaN());
  plain.Record(-1.0);
  plain.Record(2.0);
  EXPECT_EQ(plain.count(), 3);
  EXPECT_GE(plain.max_ms(), 2.0);
}

TEST(BinaryIoTest, BoundedReaderStopsAtBudget) {
  const std::string bytes = "abcdefgh";
  std::istringstream in(bytes);
  BoundedReader r(&in, bytes.size());
  char buf[4];
  EXPECT_TRUE(r.ReadRaw(buf, 4, "head").ok());
  EXPECT_EQ(r.remaining(), 4u);
  // A length field larger than the remaining payload fails BEFORE reading.
  EXPECT_FALSE(r.Require(5, "huge field").ok());
  EXPECT_FALSE(r.ReadRaw(buf, 5, "huge field").ok());
  EXPECT_EQ(r.remaining(), 4u);  // budget unchanged by the failed read
  EXPECT_TRUE(r.ReadRaw(buf, 4, "tail").ok());
  EXPECT_EQ(r.remaining(), 0u);
  uint8_t b = 0;
  EXPECT_FALSE(r.ReadPod(&b, "past end").ok());
}

TEST(RngTest, PermutationIsAPermutation) {
  Rng rng(9);
  auto p = rng.Permutation(100);
  std::vector<int> sorted = p;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 100; ++i) EXPECT_EQ(sorted[i], i);
}

TEST(DistributionsTest, GammaMomentsMatch) {
  Rng rng(21);
  const double shape = 3.0, scale = 2.0;
  double sum = 0.0, sumsq = 0.0;
  const int n = 40000;
  for (int i = 0; i < n; ++i) {
    const double x = SampleGamma(&rng, shape, scale);
    ASSERT_GT(x, 0.0);
    sum += x;
    sumsq += x * x;
  }
  const double mean = sum / n;
  const double var = sumsq / n - mean * mean;
  EXPECT_NEAR(mean, shape * scale, 0.1);        // E = k*theta = 6
  EXPECT_NEAR(var, shape * scale * scale, 0.5);  // V = k*theta^2 = 12
}

TEST(DistributionsTest, GammaSmallShape) {
  Rng rng(22);
  double sum = 0.0;
  const int n = 40000;
  for (int i = 0; i < n; ++i) sum += SampleGamma(&rng, 0.3, 1.0);
  EXPECT_NEAR(sum / n, 0.3, 0.02);
}

TEST(DistributionsTest, BetaInUnitIntervalWithRightMean) {
  Rng rng(23);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = SampleBeta(&rng, 2.0, 3.0);
    ASSERT_GT(x, 0.0);
    ASSERT_LT(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum / n, 0.4, 0.01);
}

TEST(DistributionsTest, DirichletSumsToOne) {
  Rng rng(24);
  auto v = SampleDirichletSym(&rng, 0.5, 10);
  EXPECT_NEAR(std::accumulate(v.begin(), v.end(), 0.0), 1.0, 1e-12);
  for (double x : v) EXPECT_GE(x, 0.0);
}

TEST(DistributionsTest, DirichletConcentrationControlsPeakedness) {
  Rng rng(25);
  double max_small = 0.0, max_large = 0.0;
  for (int i = 0; i < 200; ++i) {
    auto a = SampleDirichletSym(&rng, 0.05, 20);
    auto b = SampleDirichletSym(&rng, 5.0, 20);
    max_small += *std::max_element(a.begin(), a.end());
    max_large += *std::max_element(b.begin(), b.end());
  }
  EXPECT_GT(max_small / 200, max_large / 200 + 0.2);
}

TEST(DistributionsTest, BernoulliFrequency) {
  Rng rng(26);
  int ones = 0;
  for (int i = 0; i < 20000; ++i) ones += SampleBernoulli(&rng, 0.3);
  EXPECT_NEAR(ones / 20000.0, 0.3, 0.02);
}

TEST(DistributionsTest, CategoricalMatchesWeights) {
  Rng rng(27);
  std::vector<double> w = {1.0, 2.0, 7.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 30000; ++i) ++counts[SampleCategorical(&rng, w)];
  EXPECT_NEAR(counts[0] / 30000.0, 0.1, 0.01);
  EXPECT_NEAR(counts[1] / 30000.0, 0.2, 0.015);
  EXPECT_NEAR(counts[2] / 30000.0, 0.7, 0.015);
}

TEST(DistributionsTest, AliasTableMatchesWeights) {
  Rng rng(28);
  std::vector<double> w = {0.5, 0.0, 3.5, 1.0};
  AliasTable table(w);
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 50000; ++i) ++counts[table.Sample(&rng)];
  EXPECT_NEAR(counts[0] / 50000.0, 0.1, 0.01);
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(counts[2] / 50000.0, 0.7, 0.01);
  EXPECT_NEAR(counts[3] / 50000.0, 0.2, 0.01);
}

TEST(DistributionsTest, PoissonMean) {
  Rng rng(29);
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) sum += SamplePoisson(&rng, 12.0);
  EXPECT_NEAR(sum / 20000, 12.0, 0.15);
  sum = 0.0;
  for (int i = 0; i < 20000; ++i) sum += SamplePoisson(&rng, 60.0);
  EXPECT_NEAR(sum / 20000, 60.0, 0.5);
}

TEST(DistributionsTest, SampleWithoutReplacementDistinct) {
  Rng rng(30);
  auto idx = SampleWithoutReplacement(&rng, 50, 20);
  EXPECT_EQ(idx.size(), 20u);
  std::sort(idx.begin(), idx.end());
  EXPECT_EQ(std::unique(idx.begin(), idx.end()), idx.end());
  for (int i : idx) EXPECT_TRUE(i >= 0 && i < 50);
}

TEST(KeyedLruPoolTest, ReturnsSameInstancePerKey) {
  KeyedLruPool<int> pool(4);
  int* a = pool.Acquire(7, [] { return std::make_unique<int>(70); });
  int* b = pool.Acquire(9, [] { return std::make_unique<int>(90); });
  EXPECT_NE(a, b);
  EXPECT_EQ(*a, 70);
  // A hit returns the identical object without invoking the factory.
  int* a_again = pool.Acquire(7, []() -> std::unique_ptr<int> {
    ADD_FAILURE() << "factory must not run on a hit";
    return nullptr;
  });
  EXPECT_EQ(a_again, a);
  EXPECT_EQ(pool.hits(), 1);
  EXPECT_EQ(pool.misses(), 2);
}

TEST(KeyedLruPoolTest, EvictsLeastRecentlyUsedByRecycling) {
  KeyedLruPool<int> pool(2);
  auto make = [](int v) {
    return [v] { return std::make_unique<int>(v); };
  };
  pool.Acquire(1, make(1));
  int* two = pool.Acquire(2, make(2));
  pool.Acquire(1, make(1));           // touch 1 => 2 becomes LRU
  int* three = pool.Acquire(3, []() -> std::unique_ptr<int> {
    ADD_FAILURE() << "eviction must recycle, not rebuild";
    return nullptr;
  });
  EXPECT_TRUE(pool.contains(1));
  EXPECT_FALSE(pool.contains(2));
  EXPECT_TRUE(pool.contains(3));
  EXPECT_EQ(pool.evictions(), 1);
  EXPECT_EQ(pool.size(), 2);
  // Key 3 took over key 2's instance (arena reuse): same object, stale
  // state — callers reset/validate acquired objects themselves.
  EXPECT_EQ(three, two);
  EXPECT_EQ(*three, 2);
}

TEST(KeyedLruPoolTest, PointerStableAcrossOtherAcquires) {
  KeyedLruPool<int> pool(3);
  int* a = pool.Acquire(1, [] { return std::make_unique<int>(1); });
  pool.Acquire(2, [] { return std::make_unique<int>(2); });
  pool.Acquire(3, [] { return std::make_unique<int>(3); });
  // 1 is the LRU but not yet evicted; its pointer must still be valid.
  int* a_again = pool.Acquire(1, [] { return std::make_unique<int>(-1); });
  EXPECT_EQ(a_again, a);
  EXPECT_EQ(*a, 1);
}

TEST(CsvTest, WritesHeaderAndRowsWithEscaping) {
  CsvWriter csv({"name", "value"});
  csv.AddRow({"plain", CsvWriter::Cell(1.5)});
  csv.AddRow({"with,comma", "with\"quote"});
  const std::string path = ::testing::TempDir() + "/csv_test.csv";
  ASSERT_TRUE(csv.WriteFile(path).ok());
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "name,value");
  std::getline(in, line);
  EXPECT_EQ(line, "plain,1.5000");
  std::getline(in, line);
  EXPECT_EQ(line, "\"with,comma\",\"with\"\"quote\"");
}

TEST(CsvTest, WriteToBadPathFails) {
  CsvWriter csv({"a"});
  EXPECT_FALSE(csv.WriteFile("/nonexistent-dir/x.csv").ok());
}

TEST(FlagsTest, ParsesAllForms) {
  const char* argv[] = {"prog", "--alpha=0.5", "--name", "news",
                        "--verbose", "--count=7"};
  Flags flags(6, const_cast<char**>(argv));
  EXPECT_DOUBLE_EQ(flags.GetDouble("alpha", 0.0), 0.5);
  EXPECT_EQ(flags.GetString("name", ""), "news");
  EXPECT_TRUE(flags.GetBool("verbose", false));
  EXPECT_EQ(flags.GetInt("count", 0), 7);
  EXPECT_EQ(flags.GetInt("missing", -1), -1);
  EXPECT_FALSE(flags.Has("missing"));
}

}  // namespace
}  // namespace cerl
