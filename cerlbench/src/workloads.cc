// The three workloads. Each one generates all of its domain data from the
// seed before any timed window, drives the engine through its public API,
// runs the correctness checks, and fills the end-to-end metrics (and, in a
// traced run, the layer counters the probes turn into per-layer metrics).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <thread>

#include "engine_ops.h"

namespace cerl::bench {

namespace {

// --- catchup: closed-loop batch catch-up of large domains --------------
constexpr int kCatchupDomains = 6;  // per tenant per round
constexpr int kCatchupUnits = 1000;
constexpr int kCatchupFeatures = 8;
constexpr int kCatchupEpochs = 8;

// --- skewed_open: open-loop Poisson bursts over Zipf-sized tiny tenants.
// Absolute offered rates (domains/s), fixed once from the capacity of the
// commit that defined the benchmark on a 4-vCPU host and never
// recalibrated; the top rungs are above that capacity.
constexpr double kSkewRungs[] = {450.0, 900.0, 1350.0, 1650.0, 2000.0, 2700.0};
constexpr double kSkewLimitMs = 250.0;  // freshness p99 limit
constexpr int kSkewTenants = 240;
constexpr int kSkewBurst = 6;
constexpr int kSkewMinUnits = 16;
constexpr int kSkewMaxUnits = 320;
constexpr int kSkewFeatures = 6;
constexpr int kSkewEpochs = 3;
// Distinct domains generated per tenant; later arrivals reuse them in turn.
constexpr int kSkewDistinct = 24;
// Domains of each closed-loop capacity drain (about a second of work).
constexpr int kSkewCapacityDomains = 2400;

// --- serve_durable: reads beside writes with spill + WAL ---------------
constexpr int kServeTenants = 32;
constexpr int kServeResident = 8;
constexpr int kServeMinUnits = 64;
constexpr int kServeMaxUnits = 400;
constexpr int kServeFeatures = 6;
constexpr int kServeEpochs = 4;
constexpr double kServePushDps = 100.0;
constexpr double kServeQueryQps = 2000.0;
constexpr double kServeSnapshotEveryMs = 1000.0;
constexpr double kServeLimitMs = 250.0;
constexpr int kServePostSnapshotDomains = 8;

constexpr int kVerifyRows = 256;  // QueryEffect rows checked per tenant
constexpr int kSetupRepeats = 9;
constexpr int kRecoverRepeats = 9;
constexpr int kCapacityRepeats = 3;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// End-to-end samples of one run.
struct EndToEnd {
  std::vector<double> setup_s;
  std::vector<double> ingest_dps;
  /// Process CPU time per completed domain over the same spans as
  /// ingest_dps (less the open-loop reader's own thread): the ingest cost,
  /// which CPU time stolen by the host does not inflate.
  std::vector<double> cpu_ms_per_domain;
  std::vector<double> recover_s;
  std::vector<double> freshness_ms;
  /// QueryEffect call latencies split into windows; percentiles are the
  /// median over windows of each window's percentile, so a rare
  /// multi-millisecond host stall moves one window, not the run's result.
  /// serve_durable: the open-loop reader beside writes in 1 s windows;
  /// elsewhere the verification queries on the drained engine, one window
  /// per round or rung.
  std::vector<std::vector<double>> query_us_windows;
  /// serve_durable only: the reader's queries timed from their due times.
  std::vector<std::vector<double>> query_due_us_windows;
  double sustained_dps = 0.0;
  double pehe_new = 0.0;
  double pehe_old = 0.0;
};

void EmitEndToEnd(const EndToEnd& e, Report* report) {
  report->Set("setup_s", Median(e.setup_s), "s", e.setup_s.size());
  report->Set("ingest_dps", Median(e.ingest_dps), "domains/s",
              e.ingest_dps.size());
  report->Set("cpu_ms_per_domain", Median(e.cpu_ms_per_domain), "ms",
              e.cpu_ms_per_domain.size());
  report->Set("sustained_dps", e.sustained_dps, "domains/s");
  report->Set("freshness_p50_ms", Percentile(e.freshness_ms, 0.5), "ms",
              e.freshness_ms.size());
  report->Set("freshness_p99_ms", Percentile(e.freshness_ms, 0.99), "ms",
              e.freshness_ms.size());
  auto windowed = [&](const std::vector<std::vector<double>>& windows,
                      const std::string& prefix) {
    std::vector<double> p50, p99;
    size_t queries = 0;
    for (const std::vector<double>& window : windows) {
      if (window.empty()) continue;
      p50.push_back(Percentile(window, 0.5));
      p99.push_back(Percentile(window, 0.99));
      queries += window.size();
    }
    report->Set(prefix + "_p50_us", Median(p50), "us", queries);
    report->Set(prefix + "_p99_us", Median(p99), "us", queries);
  };
  windowed(e.query_us_windows, "query");
  if (!e.query_due_us_windows.empty()) {
    windowed(e.query_due_us_windows, "query_due");
  }
  report->Set("recover_s", Median(e.recover_s), "s", e.recover_s.size());
  report->Set("rss_peak_mb", PeakRssMb(), "MiB");
  report->Set("pehe_new", e.pehe_new, "sqrt-PEHE");
  report->Set("pehe_old", e.pehe_old, "sqrt-PEHE");
  report->Set("fail_ratio",
              report->attempted == 0
                  ? 0.0
                  : static_cast<double>(report->failed) / report->attempted,
              "ratio", report->attempted);
}

/// Runs Drain() on a helper thread while this thread keeps polling
/// published snapshots, so completion times stay observed during the drain.
void DrainWhilePolling(Engine* e, Coverage* coverage) {
  std::atomic<bool> drained{false};
  std::thread drainer([&] {
    ScopedSpan span("Drain");
    e->engine->Drain();
    drained.store(true);
  });
  while (!drained.load()) {
    coverage->Poll(*e);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  drainer.join();
  coverage->Poll(*e);
  coverage->FinishMisses();
}

/// Mean sqrt-PEHE over tenants with a trained model, on held-out samples
/// of the newest pushed domain's distribution (adaptability) and of domain
/// 0's (forgetting). Perturb::kPehe poisons the result so the finiteness
/// check must trip.
void EvaluatePehe(Engine* e, const std::vector<int>& pushed,
                  const std::vector<data::CausalDataset>& eval_sets,
                  const RunOptions& options, Report* report, double* pehe_new,
                  double* pehe_old) {
  double sum_new = 0.0, sum_old = 0.0;
  int n = 0;
  for (size_t t = 0; t < pushed.size(); ++t) {
    if (pushed[t] == 0) continue;
    const int id = e->ids[t];
    if (!e->engine->EnsureResident(id).ok()) continue;
    core::CerlTrainer& trainer = e->engine->trainer(id);
    if (trainer.stages_seen() == 0) continue;
    sum_new += trainer.Evaluate(eval_sets[(pushed[t] - 1) % eval_sets.size()])
                   .pehe;
    sum_old += trainer.Evaluate(eval_sets[0]).pehe;
    ++n;
  }
  *pehe_new = n == 0 ? kInf : sum_new / n;
  *pehe_old = n == 0 ? kInf : sum_old / n;
  if (options.perturb == Perturb::kPehe) *pehe_new = std::nan("");
  report->Check(std::isfinite(*pehe_new) && std::isfinite(*pehe_old),
                "pehe_new / pehe_old are not finite");
}

/// Runs VerifyQueries on each tenant's newest pushed domain's test rows
/// (tenants with nothing pushed have no model and are skipped by it).
void VerifyTrainedQueries(Engine* e, const std::vector<Tenant>& tenants,
                          const std::vector<int>& pushed,
                          const RunOptions& options, Report* report,
                          std::vector<double>* latency_us) {
  std::vector<const linalg::Matrix*> rows;
  for (size_t t = 0; t < tenants.size(); ++t) {
    const std::vector<data::DataSplit>& domains = tenants[t].domains;
    rows.push_back(
        &domains[(std::max(pushed[t], 1) - 1) % domains.size()].test.x);
  }
  VerifyQueries(e, rows, options.tiny ? 8 : kVerifyRows, options, report,
                latency_us);
}

/// Snapshot, drop, and Recover `repeats` times from the same snapshot
/// (workloads without a page store or WAL).
void SnapshotDropRecover(Engine* e, const stream::StreamEngineOptions& options,
                         const std::string& snapshot_path, int repeats,
                         const RunOptions& run, Report* report,
                         LayerStats* stats, std::vector<double>* recover_s) {
  TimedSnapshot(e, snapshot_path, report, stats);
  const Fingerprints want = CaptureFingerprints(*e, report);
  e->engine.reset();
  for (int r = 0; r < repeats; ++r) {
    const RecoverTimes times =
        RecoverAndVerify(options, snapshot_path, want, run, report);
    recover_s->push_back(times.total_ms / 1e3);
    if (stats != nullptr) {
      stats->recover_call_ms.push_back(times.call_ms);
      stats->replay_drain_ms.push_back(times.drain_ms);
    }
  }
  RemoveFile(snapshot_path);
}

/// Highest rate meeting the freshness limit: interpolates linearly between
/// the last passing rung and the first failing one on their p99s (a
/// failing rung with backlog growth counts with its measured p99). If no
/// rung passes, the lowest rung's rate scaled by limit / p99.
struct Rung {
  double rate = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  bool growth = false;
  int64_t misses = 0;
  double achieved_dps = 0.0;
  bool passed(double limit_ms) const {
    return p99_ms <= limit_ms && !growth && misses == 0;
  }
};

double SustainedDps(const std::vector<Rung>& rungs, double limit_ms) {
  int last_pass = -1;
  while (last_pass + 1 < static_cast<int>(rungs.size()) &&
         rungs[last_pass + 1].passed(limit_ms)) {
    ++last_pass;
  }
  if (last_pass < 0) {
    const double p99 = std::max(rungs[0].p99_ms, 1e-9);
    return rungs[0].achieved_dps * std::min(1.0, limit_ms / p99);
  }
  if (last_pass + 1 == static_cast<int>(rungs.size())) {
    return rungs[last_pass].achieved_dps;
  }
  const Rung& lo = rungs[last_pass];
  const Rung& hi = rungs[last_pass + 1];
  const double hi_p99 = std::isfinite(hi.p99_ms) ? hi.p99_ms : 1e12;
  const double frac = std::clamp(
      (limit_ms - lo.p99_ms) / std::max(hi_p99 - lo.p99_ms, 1e-9), 0.0, 1.0);
  return lo.achieved_dps + (hi.rate - lo.achieved_dps) * frac;
}

/// Backlog grew over the window: the mean outstanding count of the last
/// quarter exceeds that of the second quarter by more than the domains the
/// offered rate brings in one freshness limit. Short stalls raise the
/// backlog by far less; a rate above capacity raises it linearly.
bool BacklogGrew(const std::vector<std::pair<double, int64_t>>& samples,
                 double rate, double limit_ms) {
  double q2 = 0.0, q4 = 0.0;
  int n2 = 0, n4 = 0;
  for (const auto& [frac, backlog] : samples) {
    if (frac >= 0.25 && frac < 0.5) {
      q2 += backlog;
      ++n2;
    } else if (frac >= 0.75) {
      q4 += backlog;
      ++n4;
    }
  }
  if (n2 == 0 || n4 == 0) return false;
  return q4 / n4 > q2 / n2 + rate * limit_ms / 1e3;
}

void WaitUntilPolling(Engine* e, Coverage* coverage, Clock::time_point due) {
  while (Clock::now() < due) {
    coverage->Poll(*e);
    std::this_thread::sleep_until(
        std::min(due, Clock::now() + std::chrono::microseconds(500)));
  }
}

void EmitTraceOverhead(const LayerStats& stats, Report* report) {
  const double untraced = Median(stats.untraced_headline);
  const double traced = Median(stats.traced_headline);
  report->Set("bench.trace_overhead",
              untraced > 0.0 ? (traced - untraced) / untraced : 0.0, "ratio",
              stats.traced_headline.size());
}

}  // namespace

// ------------------------------------------------------------------------

void RunCatchup(const RunOptions& o, Report* report) {
  const int tenants = o.tiny ? 2 : o.nproc;
  const int domains = o.tiny ? 2 : kCatchupDomains;
  const int units = o.tiny ? 150 : kCatchupUnits;
  const int epochs = o.tiny ? 2 : kCatchupEpochs;

  Rng root(o.seed);
  std::vector<Tenant> ts(tenants);
  for (int t = 0; t < tenants; ++t) {
    Rng rng = root.Split();
    ts[t].config = TenantConfig({32}, 16, {32}, epochs, 128, 500,
                                o.seed * 1000 + t);
    for (int d = 0; d < domains; ++d) {
      ts[t].domains.push_back(
          MakeDomain(&rng, units, kCatchupFeatures, d));
    }
  }

  const std::vector<data::CausalDataset> eval_sets =
      MakeEvalSets(o.seed, kCatchupFeatures);
  const stream::StreamEngineOptions options;  // shipped defaults
  const std::string snapshot_path = o.out_dir + "/catchup.snap";
  const std::vector<int> pushed(tenants, domains);
  EndToEnd e2e;
  LayerStats layer;
  double first_new = 0.0, first_old = 0.0;
  const int min_rounds = o.tiny ? 1 : (o.trace ? 4 : 3);
  const Clock::time_point run_start = Clock::now();
  for (int round = 0;
       round < min_rounds ||
       (!o.tiny && MsBetween(run_start, Clock::now()) < o.seconds * 1e3);
       ++round) {
    // A traced run alternates untraced and traced rounds; the untraced
    // ones are the baseline of bench.trace_overhead.
    const bool traced = o.trace && round % 2 == 1;
    Tracer::Arm(traced);
    double setup_ms = 0.0;
    Engine e = SetUpEngine(options, ts, kCatchupFeatures, &setup_ms);
    Coverage coverage(tenants);
    std::vector<int> accepted(tenants, 0);
    const CpuSample cpu0 = SampleCpu();
    auto sampler = traced ? std::make_unique<Sampler>(&e, &layer) : nullptr;
    const Clock::time_point t0 = Clock::now();
    for (int d = 0; d < domains; ++d) {
      for (int t = 0; t < tenants; ++t) {
        if (TimedPush(&e, t, d, ts[t].domains[d], report,
                      traced ? &layer.push_us : nullptr)) {
          coverage.Pushed(t, t0);
          ++accepted[t];
        }
      }
    }
    DrainWhilePolling(&e, &coverage);
    sampler.reset();
    const double wall_ms = MsBetween(t0, coverage.last_publish());
    const double per_domain_ms = wall_ms / std::max<int64_t>(1, coverage.covered());
    if (traced) {
      const CpuSample cpu1 = SampleCpu();
      layer.cpu_s += cpu1.cpu_s - cpu0.cpu_s;
      layer.cswitches += cpu1.cswitches - cpu0.cswitches;
      layer.wall_s += wall_ms / 1e3;
      layer.domains += coverage.covered();
      layer.traced_headline.push_back(per_domain_ms);
      CollectEngineStats(e, &layer);
    } else {
      layer.untraced_headline.push_back(per_domain_ms);
      e2e.setup_s.push_back(setup_ms / 1e3);
      e2e.ingest_dps.push_back(coverage.covered() / (wall_ms / 1e3));
      e2e.cpu_ms_per_domain.push_back((SampleCpu().cpu_s - cpu0.cpu_s) * 1e3 /
                                      coverage.covered());
      e2e.freshness_ms.insert(e2e.freshness_ms.end(),
                              coverage.freshness_ms().begin(),
                              coverage.freshness_ms().end());
    }
    CheckAccounting(e, accepted, o, report);
    std::vector<double> query_us;
    VerifyTrainedQueries(&e, ts, pushed, o, report, &query_us);
    if (!traced) e2e.query_us_windows.push_back(query_us);
    double pehe_new = 0.0, pehe_old = 0.0;
    EvaluatePehe(&e, pushed, eval_sets, o, report, &pehe_new, &pehe_old);
    if (round == 0) {
      first_new = pehe_new;
      first_old = pehe_old;
    } else {
      report->Check(pehe_new == first_new && pehe_old == first_old,
                    "pehe differs between rounds at the same seed");
    }
    std::vector<double> traced_recover_s;
    SnapshotDropRecover(&e, options, snapshot_path, 1, o, report,
                        traced ? &layer : nullptr,
                        traced ? &traced_recover_s : &e2e.recover_s);
  }
  Tracer::Arm(false);
  e2e.sustained_dps = Median(e2e.ingest_dps);  // a closed loop always drains
  e2e.pehe_new = first_new;
  e2e.pehe_old = first_old;
  EmitEndToEnd(e2e, report);
  report->Context("catchup", std::to_string(tenants) + " tenants x " +
                                 std::to_string(domains) + " domains of " +
                                 std::to_string(units) + " units, " +
                                 std::to_string(epochs) + " epochs");
  if (o.trace) {
    EmitTraceOverhead(layer, report);
    ProbeInput probe;
    probe.features = kCatchupFeatures;
    probe.ingest_dps = e2e.sustained_dps;
    probe.configs.push_back(ts[0].config);
    probe.sequences.emplace_back();
    for (int d = 0; d < std::min(domains, 3); ++d) {
      probe.sequences.back().push_back(&ts[0].domains[d]);
    }
    EmitLayerMetrics(probe, layer, o, report);
  }
}

// ------------------------------------------------------------------------

void RunSkewedOpen(const RunOptions& o, Report* report) {
  const int tenants = o.tiny ? 12 : kSkewTenants;
  std::vector<double> rates(std::begin(kSkewRungs), std::end(kSkewRungs));
  if (o.tiny) rates = {200.0, 2000.0};
  const int epochs = o.tiny ? 1 : kSkewEpochs;
  const double window_ms = o.tiny ? 300.0 : o.seconds * 1e3 / 6.0;

  // Arrival schedules: Poisson bursts per rung, each burst to a uniformly
  // chosen tenant; a tenant's domains are indexed in arrival order.
  struct Arrival {
    double at_ms;
    int tenant;
    int domain;
  };
  std::vector<std::vector<Arrival>> schedules(rates.size());
  std::vector<int> needed(tenants, 0);
  uint64_t schedule_hash = 1469598103934665603ull;
  for (size_t r = 0; r < rates.size(); ++r) {
    Rng rng(o.seed * 0x9E3779B97F4A7C15ull + r + 1);
    std::vector<int> next(tenants, 0);
    const double mean_gap_ms = kSkewBurst * 1e3 / rates[r];
    for (double at = 0.0;;) {
      at += -mean_gap_ms * std::log(1.0 - rng.Uniform());
      if (at >= window_ms) break;
      const int t = static_cast<int>(rng.UniformInt(tenants));
      for (int b = 0; b < kSkewBurst; ++b) {
        schedules[r].push_back({at, t, next[t]++});
        schedule_hash = (schedule_hash ^ static_cast<uint64_t>(at * 1e6)) *
                        1099511628211ull;
        schedule_hash = (schedule_hash ^ t) * 1099511628211ull;
      }
    }
    for (int t = 0; t < tenants; ++t) needed[t] = std::max(needed[t], next[t]);
  }
  Rng root(o.seed);
  std::vector<Tenant> ts(tenants);
  for (int t = 0; t < tenants; ++t) {
    Rng rng = root.Split();
    const int units = ZipfUnits(t, kSkewMinUnits, kSkewMaxUnits, 1.1);
    ts[t].config = TenantConfig({8}, 4, {4}, epochs, 32, 60, o.seed * 1000 + t);
    ts[t].config.train.alpha = 0.2;
    for (int d = 0; d < std::min(std::max(needed[t], 1), kSkewDistinct);
         ++d) {
      ts[t].domains.push_back(
          MakeDomain(&rng, units, kSkewFeatures, d));
    }
  }
  auto domain_of = [&](int t, int d) -> const data::DataSplit& {
    return ts[t].domains[d % ts[t].domains.size()];
  };

  const std::vector<data::CausalDataset> eval_sets =
      MakeEvalSets(o.seed, kSkewFeatures);
  const stream::StreamEngineOptions options;  // shipped defaults
  EndToEnd e2e;
  LayerStats layer;
  // Capacity: the top rung's first arrivals pushed at once and drained,
  // repeated on fresh engines.
  {
    const std::vector<Arrival>& top = schedules.back();
    const size_t batch = std::min<size_t>(
        top.size(), o.tiny ? 60 : kSkewCapacityDomains);
    for (int rep = 0; rep < (o.tiny ? 1 : kCapacityRepeats); ++rep) {
      double setup_ms = 0.0;
      Engine e = SetUpEngine(options, ts, kSkewFeatures, &setup_ms);
      e2e.setup_s.push_back(setup_ms / 1e3);
      Coverage coverage(tenants);
      std::vector<int> accepted(tenants, 0);
      const CpuSample cpu0 = SampleCpu();
      const Clock::time_point t0 = Clock::now();
      for (size_t i = 0; i < batch; ++i) {
        const Arrival& a = top[i];
        if (TimedPush(&e, a.tenant, a.domain, domain_of(a.tenant, a.domain),
                      report, nullptr)) {
          coverage.Pushed(a.tenant, t0);
          ++accepted[a.tenant];
        }
      }
      DrainWhilePolling(&e, &coverage);
      CheckAccounting(e, accepted, o, report);
      e2e.ingest_dps.push_back(coverage.covered() /
                               (MsBetween(t0, coverage.last_publish()) / 1e3));
      e2e.cpu_ms_per_domain.push_back((SampleCpu().cpu_s - cpu0.cpu_s) * 1e3 /
                                      coverage.covered());
    }
  }
  std::vector<Rung> ladder;
  // A traced run first repeats the lowest rung untraced (the baseline of
  // bench.trace_overhead), then climbs the ladder traced.
  const int passes = o.trace ? 2 : 1;
  for (int pass = 0; pass < passes; ++pass) {
    const bool traced = o.trace && pass == 1;
    Tracer::Arm(traced);
    for (size_t r = 0; r < rates.size(); ++r) {
      double setup_ms = 0.0;
      Engine e = SetUpEngine(options, ts, kSkewFeatures, &setup_ms);
      Coverage coverage(tenants);
      std::vector<int> accepted(tenants, 0);
      std::vector<std::pair<double, int64_t>> backlog;
      const CpuSample cpu0 = SampleCpu();
      auto sampler = traced ? std::make_unique<Sampler>(&e, &layer) : nullptr;
      const Clock::time_point t0 = AddMs(Clock::now(), 2.0);
      for (const Arrival& a : schedules[r]) {
        const Clock::time_point due = AddMs(t0, a.at_ms);
        WaitUntilPolling(&e, &coverage, due);
        if (traced) layer.gen_late_ms.push_back(MsBetween(due, Clock::now()));
        if (TimedPush(&e, a.tenant, a.domain, domain_of(a.tenant, a.domain),
                      report, traced ? &layer.push_us : nullptr)) {
          coverage.Pushed(a.tenant, due);
          ++accepted[a.tenant];
        }
        backlog.emplace_back(a.at_ms / window_ms, coverage.outstanding());
      }
      DrainWhilePolling(&e, &coverage);
      sampler.reset();
      Rung rung;
      rung.rate = rates[r];
      rung.p50_ms = Percentile(coverage.freshness_ms(), 0.5);
      rung.p99_ms = Percentile(coverage.freshness_ms(), 0.99);
      rung.growth = BacklogGrew(backlog, rates[r], kSkewLimitMs);
      for (double f : coverage.freshness_ms()) rung.misses += !std::isfinite(f);
      const double wall_s = MsBetween(t0, coverage.last_publish()) / 1e3;
      rung.achieved_dps = coverage.covered() / std::max(wall_s, 1e-9);
      if (traced) {
        const CpuSample cpu1 = SampleCpu();
        layer.cpu_s += cpu1.cpu_s - cpu0.cpu_s;
        layer.cswitches += cpu1.cswitches - cpu0.cswitches;
        layer.wall_s += wall_s;
        layer.domains += coverage.covered();
        if (r == 0) layer.traced_headline.push_back(rung.p50_ms);
        CollectEngineStats(e, &layer);
      } else if (o.trace) {
        layer.untraced_headline.push_back(rung.p50_ms);
      }
      if (!traced) {
        e2e.setup_s.push_back(setup_ms / 1e3);
        if (r == 0) {
          e2e.freshness_ms = coverage.freshness_ms();
        }
      }
      CheckAccounting(e, accepted, o, report);
      std::vector<double> query_us;
      VerifyTrainedQueries(&e, ts, accepted, o, report, &query_us);
      if (!traced) e2e.query_us_windows.push_back(query_us);
      if (r == 0) {
        double pehe_new = 0.0, pehe_old = 0.0;
        EvaluatePehe(&e, accepted, eval_sets, o, report, &pehe_new, &pehe_old);
        if (pass == 0) {
          e2e.pehe_new = pehe_new;
          e2e.pehe_old = pehe_old;
        }
        std::vector<double> traced_recover_s;
        SnapshotDropRecover(&e, options, o.out_dir + "/skewed_open.snap",
                            o.tiny ? 1 : kRecoverRepeats, o, report,
                            traced ? &layer : nullptr,
                            traced ? &traced_recover_s : &e2e.recover_s);
      }
      if (!o.trace || traced) ladder.push_back(rung);
      report->Context("rung_" + std::to_string(static_cast<int>(rates[r])),
                      "p50 " + std::to_string(rung.p50_ms) + " ms, p99 " +
                          std::to_string(rung.p99_ms) + " ms, achieved " +
                          std::to_string(rung.achieved_dps) + " dps, growth " +
                          (rung.growth ? "yes" : "no") +
                          (traced ? " (traced)" : ""));
      // Rungs above the first failing one would fail too; the untraced
      // baseline pass of a traced run needs only the lowest rung.
      if (!rung.passed(kSkewLimitMs) || (o.trace && !traced)) break;
    }
  }
  Tracer::Arm(false);
  e2e.sustained_dps = SustainedDps(ladder, kSkewLimitMs);
  EmitEndToEnd(e2e, report);
  char hash[32];
  std::snprintf(hash, sizeof(hash), "%016llx",
                static_cast<unsigned long long>(schedule_hash));
  report->Context("schedule_fingerprint", hash);
  report->Context("freshness_limit_ms", std::to_string(kSkewLimitMs));
  if (o.trace) {
    EmitTraceOverhead(layer, report);
    ProbeInput probe;
    probe.features = kSkewFeatures;
    probe.ingest_dps =
        *std::max_element(e2e.ingest_dps.begin(), e2e.ingest_dps.end());
    // Replay three tenants across the size skew, three domains each.
    for (int t : {0, tenants / 8, tenants - 1}) {
      probe.configs.push_back(ts[t].config);
      probe.sequences.emplace_back();
      for (int d = 0; d < std::min<int>(3, ts[t].domains.size()); ++d) {
        probe.sequences.back().push_back(&ts[t].domains[d]);
      }
    }
    EmitLayerMetrics(probe, layer, o, report);
  }
}

// ------------------------------------------------------------------------

void RunServeDurable(const RunOptions& o, Report* report) {
  const int tenants = o.tiny ? 6 : kServeTenants;
  const int resident = o.tiny ? 2 : kServeResident;
  const int epochs = o.tiny ? 1 : kServeEpochs;
  const double window_ms = o.tiny ? 400.0 : o.seconds * 1e3 * 0.75;
  const int post_domains = o.tiny ? 2 : kServePostSnapshotDomains;

  // Schedules: Poisson pushes to uniformly chosen tenants with a snapshot
  // every kServeSnapshotEveryMs (tenant -1), and Poisson single-row queries
  // to Zipf-chosen tenants.
  struct Event {
    double at_ms;
    int tenant;  // -1 = SaveSnapshot
    int domain;
  };
  Rng sched(o.seed * 0x9E3779B97F4A7C15ull + 77);
  std::vector<Event> pushes;
  std::vector<int> next(tenants, 1);  // domain 0 is the warm-up domain
  {
    double at = 0.0, next_snapshot = kServeSnapshotEveryMs;
    for (;;) {
      at += -1e3 / kServePushDps * std::log(1.0 - sched.Uniform());
      while (next_snapshot < std::min(at, window_ms)) {
        pushes.push_back({next_snapshot, -1, 0});
        next_snapshot += kServeSnapshotEveryMs;
      }
      if (at >= window_ms) break;
      const int t = static_cast<int>(sched.UniformInt(tenants));
      pushes.push_back({at, t, next[t]++});
    }
  }
  struct Query {
    double at_ms;
    int tenant;
    int row;
  };
  std::vector<double> zipf_cdf(tenants);
  double zipf_total = 0.0;
  for (int t = 0; t < tenants; ++t) {
    zipf_total += 1.0 / std::pow(t + 1.0, 1.1);
    zipf_cdf[t] = zipf_total;
  }
  std::vector<Query> queries;
  for (double at = 0.0;;) {
    at += -1e3 / kServeQueryQps * std::log(1.0 - sched.Uniform());
    if (at >= window_ms) break;
    const double u = sched.Uniform() * zipf_total;
    const int t = static_cast<int>(
        std::lower_bound(zipf_cdf.begin(), zipf_cdf.end(), u) -
        zipf_cdf.begin());
    queries.push_back({at, std::min(t, tenants - 1),
                       static_cast<int>(sched.UniformInt(1 << 20))});
  }
  Rng root(o.seed);
  std::vector<Tenant> ts(tenants);
  for (int t = 0; t < tenants; ++t) {
    Rng rng = root.Split();
    const int units = ZipfUnits(t, kServeMinUnits, kServeMaxUnits, 0.7);
    ts[t].config =
        TenantConfig({16}, 8, {16}, epochs, 64, 100, o.seed * 1000 + t);
    for (int d = 0; d < next[t] + (t == 0 ? post_domains : 0); ++d) {
      ts[t].domains.push_back(
          MakeDomain(&rng, units, kServeFeatures, d));
    }
  }

  const std::vector<data::CausalDataset> eval_sets =
      MakeEvalSets(o.seed, kServeFeatures);
  stream::StreamEngineOptions options;
  options.max_resident_streams = resident;
  const std::string prefix = o.out_dir + "/serve_durable";
  options.wal_fsync = false;
  EndToEnd e2e;
  LayerStats layer;
  Tracer::Arm(false);
  // Set-up is repeated on fresh files and the median reported; the last
  // engine runs the workload.
  Engine e;
  for (int rep = 0; rep < (o.tiny ? 1 : kSetupRepeats); ++rep) {
    e.engine.reset();
    RemoveFile(options.storage_path);
    RemoveFile(options.wal_path);
    options.storage_path = prefix + std::to_string(rep) + ".store";
    options.wal_path = prefix + std::to_string(rep) + ".wal";
    RemoveFile(options.storage_path);
    RemoveFile(options.wal_path);
    double setup_ms = 0.0;
    e = SetUpEngine(options, ts, kServeFeatures, &setup_ms);
    e2e.setup_s.push_back(setup_ms / 1e3);
  }
  // Warm-up, untimed: every tenant trains its first domain, so every query
  // has a published model and cold tenants are spilled before the window.
  std::vector<int> accepted(tenants, 0);
  for (int t = 0; t < tenants; ++t) {
    accepted[t] += TimedPush(&e, t, 0, ts[t].domains[0], report, nullptr);
  }
  e.engine->Drain();

  // The traced run measures its untraced baseline first: the first half of
  // the window's pushes untraced, the second half traced.
  const size_t traced_from = o.trace ? pushes.size() / 2 : pushes.size();
  Coverage coverage(tenants);
  for (int t = 0; t < tenants; ++t) coverage.SetBase(t, 1);
  std::vector<double> query_us(queries.size(), kInf);
  std::vector<double> query_due_us(queries.size(), kInf);
  std::vector<double> query_late_ms(queries.size(), 0.0);
  int64_t query_rejects = 0;
  double reader_cpu_s = 0.0;
  const CpuSample cpu0 = SampleCpu();
  std::unique_ptr<Sampler> sampler;
  const Clock::time_point t0 = AddMs(Clock::now(), 5.0);
  std::thread reader([&] {
    // The reader spins to each due time: timer wake-ups on a virtual
    // machine can land milliseconds late, which would swamp the query path
    // being measured. Lateness that remains (preemption) is reported.
    const double thread_cpu0 = ThreadCpuSeconds();
    for (size_t i = 0; i < queries.size(); ++i) {
      const Query& q = queries[i];
      const Clock::time_point due = AddMs(t0, q.at_ms);
      while (Clock::now() < due) {
      }
      const Clock::time_point start = Clock::now();
      query_late_ms[i] = MsBetween(due, start);
      const linalg::Matrix& x = ts[q.tenant].domains[0].test.x;
      double ite = 0.0;
      ScopedSpan span("QueryEffect", 'q', q.tenant, static_cast<int>(i));
      const Status status = e.engine->QueryEffect(
          e.ctx, e.ids[q.tenant], x.row(q.row % x.rows()), x.cols(), &ite);
      const Clock::time_point end = Clock::now();
      if (status.ok()) {
        query_us[i] = MsBetween(start, end) * 1e3;
        query_due_us[i] = MsBetween(due, end) * 1e3;
      } else {
        ++query_rejects;
      }
    }
    reader_cpu_s = ThreadCpuSeconds() - thread_cpu0;
  });
  std::vector<double> untraced_fresh_end;
  size_t traced_fresh_begin = 0;
  for (size_t i = 0; i < pushes.size(); ++i) {
    if (i == traced_from) {
      Tracer::Arm(true);
      sampler = std::make_unique<Sampler>(&e, &layer);
      traced_fresh_begin = coverage.freshness_ms().size();
      layer.untraced_headline.push_back(Median(coverage.freshness_ms()));
    }
    const bool traced = i >= traced_from;
    const Event& ev = pushes[i];
    const Clock::time_point due = AddMs(t0, ev.at_ms);
    WaitUntilPolling(&e, &coverage, due);
    if (traced) layer.gen_late_ms.push_back(MsBetween(due, Clock::now()));
    if (ev.tenant < 0) {
      TimedSnapshot(&e, prefix + ".snap", report, traced ? &layer : nullptr);
      continue;
    }
    if (TimedPush(&e, ev.tenant, ev.domain, ts[ev.tenant].domains[ev.domain],
                  report, traced ? &layer.push_us : nullptr)) {
      coverage.Pushed(ev.tenant, due);
      ++accepted[ev.tenant];
    }
  }
  reader.join();
  DrainWhilePolling(&e, &coverage);
  sampler.reset();
  Tracer::Arm(false);
  const double wall_s = MsBetween(t0, coverage.last_publish()) / 1e3;
  if (o.trace) {
    const CpuSample cpu1 = SampleCpu();
    layer.cpu_s += cpu1.cpu_s - cpu0.cpu_s;
    layer.cswitches += cpu1.cswitches - cpu0.cswitches;
    layer.wall_s += wall_s;
    layer.domains += coverage.covered();
    const std::vector<double> traced_fresh(
        coverage.freshness_ms().begin() + traced_fresh_begin,
        coverage.freshness_ms().end());
    layer.traced_headline.push_back(Median(traced_fresh));
    for (double late : query_late_ms) layer.gen_late_ms.push_back(late);
  }
  report->attempted += queries.size();
  report->failed += query_rejects;
  e2e.freshness_ms = coverage.freshness_ms();
  for (size_t i = 0; i < queries.size(); ++i) {
    const size_t window = static_cast<size_t>(queries[i].at_ms / 1e3);
    if (e2e.query_us_windows.size() <= window) {
      e2e.query_us_windows.resize(window + 1);
      e2e.query_due_us_windows.resize(window + 1);
    }
    e2e.query_us_windows[window].push_back(query_us[i]);
    e2e.query_due_us_windows[window].push_back(query_due_us[i]);
  }
  e2e.ingest_dps.push_back(coverage.covered() / std::max(wall_s, 1e-9));
  e2e.cpu_ms_per_domain.push_back(
      (SampleCpu().cpu_s - cpu0.cpu_s - reader_cpu_s) * 1e3 /
      coverage.covered());
  {
    Rung rung;
    rung.rate = kServePushDps;
    rung.p99_ms = Percentile(coverage.freshness_ms(), 0.99);
    rung.achieved_dps = e2e.ingest_dps.back();
    for (double f : coverage.freshness_ms()) rung.misses += !std::isfinite(f);
    e2e.sustained_dps = SustainedDps({rung}, kServeLimitMs);
  }

  CheckAccounting(e, accepted, o, report);
  if (o.trace) CollectEngineStats(e, &layer);
  std::vector<int> pushed(tenants);
  for (int t = 0; t < tenants; ++t) pushed[t] = next[t];
  std::vector<double> verify_us;
  VerifyTrainedQueries(&e, ts, pushed, o, report, &verify_us);

  // Recovery: a last snapshot, then post-snapshot domains of the largest
  // tenant that only the WAL holds (a serial replay chain), then drop the
  // engine and Recover into fresh ones.
  const std::string snapshot_path = prefix + ".snap";
  TimedSnapshot(&e, snapshot_path, report, o.trace ? &layer : nullptr);
  for (int k = 0; k < post_domains; ++k) {
    const int d = next[0]++;
    accepted[0] += TimedPush(&e, 0, d, ts[0].domains[d], report, nullptr);
  }
  e.engine->Drain();
  CheckAccounting(e, accepted, o, report);
  for (int t = 0; t < tenants; ++t) pushed[t] = next[t];
  EvaluatePehe(&e, pushed, eval_sets, o, report, &e2e.pehe_new,
               &e2e.pehe_old);
  const Fingerprints want = CaptureFingerprints(e, report);
  e.engine.reset();
  Tracer::Arm(o.trace);
  for (int r = 0; r < (o.tiny ? 1 : kRecoverRepeats); ++r) {
    stream::StreamEngineOptions recover_options = options;
    recover_options.storage_path =
        prefix + "-recover" + std::to_string(r) + ".store";
    const RecoverTimes times = RecoverAndVerify(recover_options, snapshot_path,
                                                want, o, report);
    e2e.recover_s.push_back(times.total_ms / 1e3);
    layer.recover_call_ms.push_back(times.call_ms);
    layer.replay_drain_ms.push_back(times.drain_ms);
    RemoveFile(recover_options.storage_path);
  }
  Tracer::Arm(false);
  RemoveFile(snapshot_path);
  RemoveFile(options.storage_path);
  RemoveFile(options.wal_path);
  EmitEndToEnd(e2e, report);
  report->Context("freshness_limit_ms", std::to_string(kServeLimitMs));
  if (o.trace) {
    EmitTraceOverhead(layer, report);
    ProbeInput probe;
    probe.features = kServeFeatures;
    probe.ingest_dps = e2e.ingest_dps.back();
    for (int t : {0, tenants - 1}) {
      probe.configs.push_back(ts[t].config);
      probe.sequences.emplace_back();
      for (int d = 0; d < std::min<int>(3, ts[t].domains.size()); ++d) {
        probe.sequences.back().push_back(&ts[t].domains[d]);
      }
    }
    EmitLayerMetrics(probe, layer, o, report);
  }
}

}  // namespace cerl::bench
