#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>

#include "bench.h"

namespace cerl::bench {

// --- Report ------------------------------------------------------------

void Report::Set(const std::string& name, double value,
                 const std::string& unit, int64_t samples) {
  metrics_[name] = Metric{value, unit, samples};
}

void Report::Check(bool ok, const std::string& what) {
  if (!ok) failures_.push_back(what);
}

void Report::Context(const std::string& key, const std::string& value) {
  context_.emplace_back(key, value);
}

// --- Sample statistics -------------------------------------------------

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(const std::vector<double>& values) {
  return Percentile(values, 0.5);
}

// --- Domain generation -------------------------------------------------

data::CausalDataset MakeUnits(Rng* rng, int units, int features,
                              int domain_index) {
  const double shift = 0.3 * (domain_index % kDistinctShifts);
  data::CausalDataset d;
  d.x.Resize(units, features);
  for (int64_t i = 0; i < d.x.size(); ++i) d.x.data()[i] = rng->Normal();
  d.t.resize(units);
  d.y.resize(units);
  d.mu0.resize(units);
  d.mu1.resize(units);
  for (int i = 0; i < units; ++i) {
    d.x(i, 0) += shift;
    const double x0 = d.x(i, 0), x1 = d.x(i, 1), x2 = d.x(i, 2),
                 x3 = d.x(i, 3);
    // Confounded assignment: x0 and x1 drive both treatment and outcome.
    const double propensity = 1.0 / (1.0 + std::exp(-(0.8 * x0 - 0.5 * x1)));
    d.t[i] = rng->Uniform() < propensity ? 1 : 0;
    d.mu0[i] = std::sin(x0) + 0.5 * x1 + 0.25 * x3 * x3;
    d.mu1[i] = d.mu0[i] + 1.0 + 0.8 * std::tanh(x2) + 0.3 * x0;
    d.y[i] = (d.t[i] ? d.mu1[i] : d.mu0[i]) + 0.2 * rng->Normal();
  }
  return d;
}

data::DataSplit MakeDomain(Rng* rng, int units, int features,
                           int domain_index) {
  return data::SplitDataset(MakeUnits(rng, units, features, domain_index),
                            rng);
}

std::vector<data::CausalDataset> MakeEvalSets(uint64_t seed, int features) {
  Rng rng(seed ^ 0xE7A1u);
  std::vector<data::CausalDataset> sets;
  for (int k = 0; k < kDistinctShifts; ++k) {
    sets.push_back(MakeUnits(&rng, kEvalUnits, features, k));
  }
  return sets;
}

core::CerlConfig TenantConfig(const std::vector<int>& rep_hidden, int rep_dim,
                              const std::vector<int>& head_hidden, int epochs,
                              int batch_size, int memory_capacity,
                              uint64_t seed) {
  core::CerlConfig c;
  c.net.rep_hidden = rep_hidden;
  c.net.rep_dim = rep_dim;
  c.net.head_hidden = head_hidden;
  c.train.epochs = epochs;
  c.train.patience = epochs;
  c.train.batch_size = batch_size;
  c.train.seed = seed;
  c.memory_capacity = memory_capacity;
  return c;
}

int ZipfUnits(int t, int min_units, int max_units, double exponent) {
  const double raw = static_cast<double>(max_units) /
                     std::pow(static_cast<double>(t + 1), exponent);
  return std::clamp(static_cast<int>(raw), min_units, max_units);
}

// --- Process counters --------------------------------------------------

namespace {

// Value of a "Key:   N ..." line of /proc/self/status, or -1.
int64_t ProcStatusField(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(key) + ":";
  while (std::getline(in, line)) {
    if (line.compare(0, prefix.size(), prefix) == 0) {
      std::istringstream fields(line.substr(prefix.size()));
      int64_t value = -1;
      fields >> value;
      return value;
    }
  }
  return -1;
}

}  // namespace

double PeakRssMb() {
  return static_cast<double>(ProcStatusField("VmHWM")) / 1024.0;
}

int ThreadCount() { return static_cast<int>(ProcStatusField("Threads")); }

CpuSample SampleCpu() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  CpuSample s;
  s.cpu_s = usage.ru_utime.tv_sec + usage.ru_utime.tv_usec * 1e-6 +
            usage.ru_stime.tv_sec + usage.ru_stime.tv_usec * 1e-6;
  s.cswitches = usage.ru_nvcsw + usage.ru_nivcsw;
  return s;
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return ts.tv_sec + ts.tv_nsec * 1e-9;
}

HostTicks SampleHostTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  HostTicks ticks;
  in >> cpu;
  // user nice system idle iowait irq softirq steal ...
  for (int field = 0; field < 8 && in; ++field) {
    int64_t value = 0;
    in >> value;
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

// --- Tracer ------------------------------------------------------------

namespace {

std::atomic<bool> g_armed{false};
std::atomic<int32_t> g_next_span{0};
std::atomic<int32_t> g_next_tid{0};
const Clock::time_point g_epoch = Clock::now();

struct ThreadSpans {
  std::mutex mutex;  // guards spans against Collect from another thread
  std::vector<Tracer::Span> spans;
  int32_t tid = 0;
  int32_t open = -1;  // innermost open span on this thread
};

std::mutex g_registry_mutex;
std::vector<std::shared_ptr<ThreadSpans>>& Registry() {
  static auto* registry = new std::vector<std::shared_ptr<ThreadSpans>>();
  return *registry;
}

ThreadSpans& Local() {
  thread_local std::shared_ptr<ThreadSpans> local = [] {
    auto spans = std::make_shared<ThreadSpans>();
    spans->tid = g_next_tid.fetch_add(1);
    std::lock_guard<std::mutex> lock(g_registry_mutex);
    Registry().push_back(spans);
    return spans;
  }();
  return *local;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              g_epoch)
      .count();
}

}  // namespace

void Tracer::Arm(bool on) { g_armed.store(on, std::memory_order_relaxed); }
bool Tracer::armed() { return g_armed.load(std::memory_order_relaxed); }

std::vector<Tracer::Span> Tracer::Collect() {
  std::vector<Span> all;
  std::lock_guard<std::mutex> lock(g_registry_mutex);
  for (const auto& t : Registry()) {
    std::lock_guard<std::mutex> spans_lock(t->mutex);
    all.insert(all.end(), t->spans.begin(), t->spans.end());
  }
  std::sort(all.begin(), all.end(),
            [](const Span& a, const Span& b) { return a.id < b.id; });
  return all;
}

std::vector<double> Tracer::SelfMs(const std::vector<Span>& spans) {
  // Spans are sorted by id; ids are dense from the first recorded span.
  std::vector<double> self(spans.size());
  std::map<int32_t, size_t> index;
  for (size_t i = 0; i < spans.size(); ++i) {
    index[spans[i].id] = i;
    self[i] = (spans[i].end_ns - spans[i].start_ns) * 1e-6;
  }
  for (const Span& s : spans) {
    auto parent = index.find(s.parent);
    if (parent != index.end()) {
      self[parent->second] -= (s.end_ns - s.start_ns) * 1e-6;
    }
  }
  return self;
}

bool Tracer::WriteChromeJson(const std::vector<Span>& spans,
                             const std::string& path) {
  const std::vector<double> self = SelfMs(spans);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,"
                 "\"self_us\":%.3f",
                 i == 0 ? "" : ",\n", s.name, s.tid, s.start_ns * 1e-3,
                 (s.end_ns - s.start_ns) * 1e-3, s.id, s.parent,
                 self[i] * 1e3);
    if (s.kind != 0) {
      std::fprintf(f, ",\"req\":\"%c%d/%d\"", s.kind, s.stream, s.index);
    }
    std::fprintf(f, "}}");
  }
  std::fprintf(f, "\n]}\n");
  const bool ok = std::ferror(f) == 0;
  return std::fclose(f) == 0 && ok;
}

ScopedSpan::ScopedSpan(const char* name, char kind, int stream, int index) {
  if (!Tracer::armed()) return;
  on_ = true;
  ThreadSpans& local = Local();
  span_.name = name;
  span_.id = g_next_span.fetch_add(1, std::memory_order_relaxed);
  span_.parent = local.open;
  span_.tid = local.tid;
  span_.kind = kind;
  span_.stream = stream;
  span_.index = index;
  saved_parent_ = local.open;
  local.open = span_.id;
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (!on_) return;
  span_.end_ns = NowNs();
  ThreadSpans& local = Local();
  local.open = saved_parent_;
  std::lock_guard<std::mutex> lock(local.mutex);
  local.spans.push_back(span_);
}

SpanTotals TotalsFor(const std::vector<Tracer::Span>& spans, const char* name) {
  SpanTotals totals;
  const std::string wanted(name);
  for (const Tracer::Span& span : spans) {
    if (wanted != span.name) continue;
    totals.total_ms += (span.end_ns - span.start_ns) * 1e-6;
    ++totals.count;
  }
  return totals;
}

}  // namespace cerl::bench
