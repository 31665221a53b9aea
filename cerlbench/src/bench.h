// Shared pieces of the end-to-end benchmark: run options, the metric
// report, seeded domain generation, sample statistics, process counters and
// the span recorder used by traced runs.
//
// The benchmark drives only public entry points of the libraries
// (stream::StreamEngine plus, in traced runs, the layer functions the
// probes call). It never links google-benchmark.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/cerl_trainer.h"
#include "data/dataset.h"
#include "stream/stream_engine.h"
#include "util/rng.h"

namespace cerl::bench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline Clock::time_point AddMs(Clock::time_point t, double ms) {
  return t + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double, std::milli>(ms));
}

/// Correctness checks a self-test can deliberately perturb: the expected
/// value the check compares against is altered, so the check must trip.
enum class Perturb {
  kNone,
  kQuery,        ///< QueryEffect answers vs trainer PredictIte
  kFingerprint,  ///< snapshot fingerprints after Recover vs before the drop
  kAccounting,   ///< accepted domains vs trained + dropped
  kPehe,         ///< pehe_new / pehe_old finite
};

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory inside the checkout (snapshots, WAL, page store,
  /// trace output).
  std::string out_dir = ".";
  /// Tiny sizes for the self-test: every phase runs, in well under a
  /// second of work per workload.
  bool tiny = false;
  Perturb perturb = Perturb::kNone;
  int nproc = 1;
};

/// Collects metrics (value, unit, sample count) and check outcomes.
class Report {
 public:
  struct Metric {
    double value = 0.0;
    std::string unit;
    int64_t samples = 0;
  };

  void Set(const std::string& name, double value, const std::string& unit,
           int64_t samples = 1);
  /// Records a correctness check; a failed one fails the run.
  void Check(bool ok, const std::string& what);
  void Context(const std::string& key, const std::string& value);

  const std::map<std::string, Metric>& metrics() const { return metrics_; }
  const std::vector<std::string>& failures() const { return failures_; }
  const std::vector<std::pair<std::string, std::string>>& context() const {
    return context_;
  }

  int64_t attempted = 0;  ///< pushes + queries issued
  int64_t failed = 0;     ///< rejected pushes + dropped domains + rejected queries

 private:
  std::map<std::string, Metric> metrics_;
  std::vector<std::string> failures_;
  std::vector<std::pair<std::string, std::string>> context_;
};

// --- Sample statistics -------------------------------------------------

/// Exact percentile (linear interpolation between order statistics) of an
/// unsorted sample; 0 for an empty sample.
double Percentile(std::vector<double> values, double q);
double Median(const std::vector<double>& values);

// --- Domain generation -------------------------------------------------

/// Domains cycle through this many covariate shifts (0.3 apart).
constexpr int kDistinctShifts = 8;
/// Units of each held-out PEHE evaluation set.
constexpr int kEvalUnits = 1000;

/// Units of one synthetic observational domain with a heterogeneous
/// treatment effect and confounded assignment. The covariate mean moves
/// with domain_index % kDistinctShifts, so consecutive domains of a tenant
/// drift. Ground-truth mu0/mu1 make PEHE computable. Requires features >= 4.
data::CausalDataset MakeUnits(Rng* rng, int units, int features,
                              int domain_index);
/// MakeUnits split 60/20/20 into train/valid/test.
data::DataSplit MakeDomain(Rng* rng, int units, int features,
                           int domain_index);
/// One held-out set of kEvalUnits per shift, from the same generator: PEHE
/// on domain d's distribution is evaluated on sets[d % kDistinctShifts].
/// Larger than any domain's test split, so PEHE varies less across seeds.
std::vector<data::CausalDataset> MakeEvalSets(uint64_t seed, int features);

/// Tenant trainer config: the library defaults except the net shape, the
/// epoch budget (patience = epochs, so early stopping never shortens a
/// domain) and the memory capacity.
core::CerlConfig TenantConfig(const std::vector<int>& rep_hidden, int rep_dim,
                              const std::vector<int>& head_hidden, int epochs,
                              int batch_size, int memory_capacity,
                              uint64_t seed);

/// Zipf-sized unit count of tenant rank `t` in [min_units, max_units].
int ZipfUnits(int t, int min_units, int max_units, double exponent);

// --- Process counters --------------------------------------------------

double PeakRssMb();      ///< VmHWM of this process, MiB
int ThreadCount();       ///< Threads of this process
struct CpuSample {
  double cpu_s = 0.0;    ///< user + system
  int64_t cswitches = 0; ///< voluntary + involuntary
};
CpuSample SampleCpu();
double ThreadCpuSeconds();  ///< CPU time of the calling thread
/// Cumulative CPU ticks of the whole machine from /proc/stat: all states,
/// and those stolen by the hypervisor (time a virtual CPU wanted to run but
/// the host ran something else).
struct HostTicks {
  int64_t total = 0;
  int64_t steal = 0;
};
HostTicks SampleHostTicks();

// --- Span recording (traced runs) --------------------------------------

/// Records spans from the benchmark's own code around calls into the
/// libraries. Disarmed (the default) a ScopedSpan costs one load. Armed,
/// spans land in per-thread buffers and are written as Chrome trace-event
/// JSON when the run ends.
class Tracer {
 public:
  struct Span {
    const char* name = nullptr;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int32_t id = 0;
    int32_t parent = -1;
    int32_t tid = 0;
    char kind = 0;       ///< 'd' domain, 'q' query, 0 none
    int32_t stream = -1;
    int32_t index = -1;  ///< domain index or query sequence number
  };

  static void Arm(bool on);
  static bool armed();

  /// Every span recorded so far, across threads.
  static std::vector<Span> Collect();

  /// Self time of each span: its duration minus the time its children
  /// cover (children of one span run on its thread, nested, so they do not
  /// overlap each other).
  static std::vector<double> SelfMs(const std::vector<Span>& spans);

  /// Writes the spans as Chrome trace-event JSON ("X" events, self time in
  /// args). Returns false on an IO error.
  static bool WriteChromeJson(const std::vector<Span>& spans,
                              const std::string& path);
};

class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, char kind = 0, int stream = -1,
                      int index = -1);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool on_ = false;
  Tracer::Span span_;
  int32_t saved_parent_ = -1;
};

/// Summed duration (ms) and count of the spans named `name`.
struct SpanTotals {
  double total_ms = 0.0;
  int64_t count = 0;
};
SpanTotals TotalsFor(const std::vector<Tracer::Span>& spans, const char* name);

// --- Workloads ---------------------------------------------------------

void RunCatchup(const RunOptions& options, Report* report);
void RunSkewedOpen(const RunOptions& options, Report* report);
void RunServeDurable(const RunOptions& options, Report* report);

}  // namespace cerl::bench
