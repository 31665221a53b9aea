// Per-layer metrics of a traced run: the counters gathered while the
// workload ran, plus probes timed in a serial replay — a sample of the
// workload's domains pushed through each layer's public entry points at
// the workload's shapes, one call at a time.
#include <algorithm>
#include <cmath>
#include <string>

#include "causal/herding.h"
#include "engine_ops.h"
#include "linalg/gemm.h"
#include "ot/sinkhorn.h"
#include "serve/batch_predictor.h"
#include "serve/effect_snapshot.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/tenant_store.h"
#include "storage/wal.h"

namespace cerl::bench {

namespace {

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

linalg::Matrix RandomMatrix(Rng* rng, int rows, int cols) {
  linalg::Matrix m(rows, cols);
  for (int64_t i = 0; i < m.size(); ++i) m.data()[i] = rng->Normal();
  return m;
}

template <typename Fn>
double TimeMs(Fn&& fn) {
  const Clock::time_point start = Clock::now();
  fn();
  return MsBetween(start, Clock::now());
}

/// Serial replay of every sequence: the single-threaded baseline of the
/// workload's job, one stage entry point at a time. Returns the replayed
/// domain count; each sequence's final trainer lands in *trainers.
int SerialReplay(const ProbeInput& probe, Report* report,
                 std::vector<std::unique_ptr<core::CerlTrainer>>* trainers) {
  int domains = 0;
  for (size_t s = 0; s < probe.sequences.size(); ++s) {
    auto trainer = std::make_unique<core::CerlTrainer>(probe.configs[s],
                                                       probe.features);
    for (const data::DataSplit* split : probe.sequences[s]) {
      {
        ScopedSpan span("core.validate", 'd', s, domains);
        const Status status =
            core::CerlTrainer::ValidateDomain(*split, probe.features);
        report->Check(status.ok(), "replay: ValidateDomain rejected a domain");
      }
      std::unique_ptr<core::CerlTrainer::StageContext> ctx;
      {
        ScopedSpan span("core.begin", 'd', s, domains);
        ctx = trainer->BeginStage(*split);
      }
      {
        ScopedSpan span("core.train", 'd', s, domains);
        trainer->TrainStage(ctx.get());
      }
      {
        ScopedSpan span("core.migrate", 'd', s, domains);
        trainer->MigrateStage(ctx.get());
      }
      {
        ScopedSpan span("core.capture", 'd', s, domains);
        std::string blob;
        report->Check(trainer->SerializeCheckpoint(&blob).ok() &&
                          trainer->CheckNumericalHealth().ok(),
                      "replay: last-good capture failed");
      }
      {
        ScopedSpan span("serve.build_snapshot", 'd', s, domains);
        serve::BuildEffectSnapshot(*trainer, trainer->stages_seen());
      }
      ++domains;
    }
    trainers->push_back(std::move(trainer));
  }
  return domains;
}

/// The same sequences through a default 1-stream engine each; returns the
/// summed wall ms. The engine is bit-identical to the serial replay, which
/// the published fingerprints must show.
double OneStreamEngineMs(
    const ProbeInput& probe,
    const std::vector<std::unique_ptr<core::CerlTrainer>>& trainers,
    Report* report) {
  double total_ms = 0.0;
  for (size_t s = 0; s < probe.sequences.size(); ++s) {
    stream::StreamEngine engine;
    const int id = engine.AddStream("replay", probe.configs[s], probe.features);
    const Clock::time_point start = Clock::now();
    for (const data::DataSplit* split : probe.sequences[s]) {
      report->Check(engine.PushDomain(id, *split).ok(),
                    "1-stream engine rejected a push");
    }
    engine.Drain();
    total_ms += MsBetween(start, Clock::now());
    const auto published = engine.effect_snapshot(id);
    const auto serial = serve::BuildEffectSnapshot(*trainers[s], 1);
    report->Check(published != nullptr && serial != nullptr &&
                      published->fingerprint == serial->fingerprint,
                  "1-stream engine model differs from the serial replay");
  }
  return total_ms;
}

void GemmProbe(const core::CerlConfig& config, int features, Rng* rng,
               Report* report) {
  // Forward shapes of one mini-batch through g_w and one head.
  std::vector<int> dims = {features};
  dims.insert(dims.end(), config.net.rep_hidden.begin(),
              config.net.rep_hidden.end());
  dims.push_back(config.net.rep_dim);
  std::vector<std::pair<int, int>> shapes;
  for (size_t i = 0; i + 1 < dims.size(); ++i) {
    shapes.emplace_back(dims[i], dims[i + 1]);
  }
  int prev = config.net.rep_dim;
  for (int h : config.net.head_hidden) {
    shapes.emplace_back(prev, h);
    prev = h;
  }
  shapes.emplace_back(prev, 1);
  const int m = config.train.batch_size;
  double flops = 0.0, ms = 0.0;
  for (const auto& [k, n] : shapes) {
    const linalg::Matrix a = RandomMatrix(rng, m, k);
    const linalg::Matrix b = RandomMatrix(rng, k, n);
    linalg::Matrix c(m, n);
    const int reps = std::max(20, static_cast<int>(2e7 / (2.0 * m * k * n)));
    ms += TimeMs([&] {
      ScopedSpan span("linalg::Gemm");
      for (int r = 0; r < reps; ++r) {
        linalg::Gemm(linalg::Trans::kNo, linalg::Trans::kNo, 1.0, a, b, 0.0,
                     &c);
      }
    });
    flops += 2.0 * m * k * n * reps;
  }
  report->Set("linalg.gemm_gflops", flops / (ms * 1e6), "GFLOP/s");
}

void SinkhornProbe(const core::CerlConfig& config, Rng* rng, Report* report) {
  const int n1 = config.train.batch_size / 2;
  const int n2 = config.train.batch_size - n1;
  const int d = config.net.rep_dim;
  linalg::Matrix a = RandomMatrix(rng, n1, d), b = RandomMatrix(rng, n2, d);
  linalg::Matrix cost(n1, n2);
  ot::SinkhornWorkspace workspace;
  constexpr int kSolves = 60;
  double ms = 0.0;
  int64_t iterations = 0;
  for (int s = 0; s < kSolves; ++s) {
    // Representations drift slightly between steps, as under SGD, so the
    // warm start is exercised the way training exercises it.
    for (int64_t i = 0; i < a.size(); ++i) a.data()[i] += 0.01 * rng->Normal();
    for (int i = 0; i < n1; ++i) {
      for (int j = 0; j < n2; ++j) {
        double sq = 0.0;
        for (int k = 0; k < d; ++k) {
          const double diff = a(i, k) - b(j, k);
          sq += diff * diff;
        }
        cost(i, j) = sq;
      }
    }
    Result<ot::SinkhornSolveInfo> info{ot::SinkhornSolveInfo{}};
    ms += TimeMs([&] {
      ScopedSpan span("ot::SolveSinkhorn");
      info = ot::SolveSinkhorn(cost, config.train.sinkhorn, &workspace);
    });
    report->Check(info.ok(), "probe: SolveSinkhorn failed");
    if (info.ok()) iterations += info.value().iterations;
  }
  report->Set("ot.sinkhorn_us", ms * 1e3 / kSolves, "us", kSolves);
  report->Set("ot.sinkhorn_iters", static_cast<double>(iterations) / kSolves,
              "count", kSolves);
}

void HerdingProbe(const core::CerlConfig& config, int units, Rng* rng,
                  Report* report) {
  const linalg::Matrix rows =
      RandomMatrix(rng, units + config.memory_capacity, config.net.rep_dim);
  std::vector<double> ms;
  for (int r = 0; r < 5; ++r) {
    ms.push_back(TimeMs([&] {
      ScopedSpan span("causal::HerdingSelect");
      causal::HerdingSelect(rows, std::min(config.memory_capacity,
                                           rows.rows()));
    }));
  }
  report->Set("causal.herding_ms", Median(ms), "ms", ms.size());
}

void PredictProbe(core::CerlTrainer* trainer, const data::DataSplit& split,
                  Report* report) {
  const auto snap = serve::BuildEffectSnapshot(*trainer, 1);
  serve::BatchPredictor predictor;
  const linalg::Matrix& x = split.test.x;
  constexpr int kCalls = 4000;
  double sink = 0.0;
  const double ms = TimeMs([&] {
    ScopedSpan span("serve::PredictIteRow");
    for (int i = 0; i < kCalls; ++i) {
      sink += predictor.PredictIteRow(*snap, x.row(i % x.rows()));
    }
  });
  report->Check(std::isfinite(sink), "probe: PredictIteRow not finite");
  report->Set("serve.predict_us", ms * 1e3 / kCalls, "us", kCalls);
}

void StorageProbes(core::CerlTrainer* trainer, const data::DataSplit& split,
                   int features, const RunOptions& options, Report* report) {
  // WAL: appends of a payload the size of an encoded domain (every split
  // row's covariates, treatment, outcome and ground truth).
  const std::string wal_path = options.out_dir + "/probe.wal";
  RemoveFile(wal_path);
  {
    auto wal = storage::Wal::Open(wal_path, storage::Wal::Options{});
    report->Check(wal.ok(), "probe: Wal::Open failed");
    if (wal.ok()) {
      const int rows = split.train.num_units() + split.valid.num_units() +
                       split.test.num_units();
      const std::string payload(
          static_cast<size_t>(rows) * (features + 4) * sizeof(double), 'w');
      constexpr int kAppends = 200;
      const double ms = TimeMs([&] {
        for (int i = 0; i < kAppends; ++i) {
          ScopedSpan span("storage::Wal::Append");
          report->Check(wal.value()->Append(2, payload).ok(),
                        "probe: Wal::Append failed");
        }
      });
      report->Set("storage.wal_append_us", ms * 1e3 / kAppends, "us",
                  kAppends);
      report->Set("storage.wal_bytes_per_domain",
                  Ratio(wal.value()->size_bytes(),
                        wal.value()->appended_records()),
                  "bytes");
    }
  }
  RemoveFile(wal_path);

  // Tenant store: Put/Get of a real trainer blob through the page cache.
  const std::string store_path = options.out_dir + "/probe.store";
  RemoveFile(store_path);
  {
    std::string blob;
    report->Check(trainer->SerializeCheckpoint(&blob).ok(),
                  "probe: SerializeCheckpoint failed");
    auto disk = storage::DiskManager::Open(store_path);
    report->Check(disk.ok(), "probe: DiskManager::Open failed");
    if (disk.ok()) {
      storage::BufferPool pool(disk.value().get(),
                               stream::StreamEngineOptions{}.buffer_pool_frames);
      storage::TenantStore store(&pool);
      constexpr int kOps = 50;
      double put_ms = 0.0, get_ms = 0.0;
      for (int i = 0; i < kOps; ++i) {
        put_ms += TimeMs([&] {
          ScopedSpan span("storage::TenantStore::Put");
          report->Check(store.Put(1, blob).ok(), "probe: store Put failed");
        });
        get_ms += TimeMs([&] {
          ScopedSpan span("storage::TenantStore::Get");
          auto got = store.Get(1);
          report->Check(got.ok() && got.value() == blob,
                        "probe: store Get returned a different blob");
        });
      }
      report->Set("storage.store_put_us", put_ms * 1e3 / kOps, "us", kOps);
      report->Set("storage.store_get_us", get_ms * 1e3 / kOps, "us", kOps);
    }
  }
  RemoveFile(store_path);
}

}  // namespace

void EmitLayerMetrics(const ProbeInput& probe, const LayerStats& s,
                      const RunOptions& o, Report* r) {
  // Counters of the traced workload run.
  r->Set("util.threads_peak", s.threads_peak, "count");
  r->Set("util.cpu_util", Ratio(s.cpu_s, s.wall_s * o.nproc), "ratio");
  r->Set("util.cswitch_per_domain",
         Ratio(static_cast<double>(s.cswitches), s.domains), "count",
         s.domains);
  r->Set("train.step_us", Ratio(s.train_wall_s * 1e6, s.train_steps), "us",
         s.train_steps);
  r->Set("train.samples_per_s", Ratio(s.train_samples, s.train_wall_s), "1/s");
  r->Set("train.epochs_per_domain", Ratio(s.train_epochs, s.trained), "count",
         s.trained);
  r->Set("stream.push_us_p99", Percentile(s.push_us, 0.99), "us",
         s.push_us.size());
  r->Set("stream.backlog_max", s.backlog_max, "count");
  r->Set("stream.engine_p99_ms", Median(s.engine_p99_ms), "ms",
         s.engine_p99_ms.size());
  r->Set("stream.cost_model_err", s.cost_model_err, "ratio");
  r->Set("stream.steals", s.steals, "count");
  r->Set("stream.retries", s.retries, "count");
  r->Set("stream.snapshot_ms", Median(s.snapshot_ms), "ms",
         s.snapshot_ms.size());
  r->Set("stream.snapshot_serialize_ms", Median(s.snapshot_serialize_ms), "ms",
         s.snapshot_serialize_ms.size());
  r->Set("stream.snapshot_dirty_ratio", Median(s.snapshot_dirty_ratio),
         "ratio", s.snapshot_dirty_ratio.size());
  r->Set("stream.recover_call_ms", Median(s.recover_call_ms), "ms",
         s.recover_call_ms.size());
  r->Set("stream.replay_drain_ms", Median(s.replay_drain_ms), "ms",
         s.replay_drain_ms.size());
  r->Set("serve.query_rejected", s.query_rejected, "count");
  r->Set("storage.spills", s.spills, "count");
  r->Set("storage.fault_backs", s.fault_backs, "count");
  r->Set("storage.pool_hit_ratio",
         Ratio(s.pool_hits, static_cast<double>(s.pool_hits + s.pool_misses)),
         "ratio");
  r->Set("bench.gen_late_ms_p99", Percentile(s.gen_late_ms, 0.99), "ms",
         s.gen_late_ms.size());

  // Serial replay and the 1-stream engine over the same domains.
  Tracer::Arm(true);
  std::vector<std::unique_ptr<core::CerlTrainer>> trainers;
  const int domains = SerialReplay(probe, r, &trainers);
  const std::vector<Tracer::Span> spans = Tracer::Collect();
  double replay_ms = 0.0;
  for (const char* stage : {"core.validate", "core.begin", "core.train",
                            "core.migrate", "core.capture",
                            "serve.build_snapshot"}) {
    const SpanTotals totals = TotalsFor(spans, stage);
    replay_ms += totals.total_ms;
    const std::string name = std::string(stage) + "_ms";
    r->Set(name, totals.total_ms / domains, "ms", totals.count);
  }
  const double engine_ms = OneStreamEngineMs(probe, trainers, r);
  const double serial_dps = domains / (replay_ms / 1e3);
  r->Set("core.serial_dps", serial_dps, "domains/s", domains);
  r->Set("stream.speedup", probe.ingest_dps / serial_dps, "ratio");
  r->Set("stream.overhead_ms", (engine_ms - replay_ms) / domains, "ms",
         domains);
  r->Set("bench.replay_coverage", replay_ms / engine_ms, "ratio", domains);

  // Single-call layer probes at the workload's shapes.
  Rng rng(o.seed ^ 0x5eed);
  const core::CerlConfig& config = probe.configs[0];
  const data::DataSplit& split = *probe.sequences[0].front();
  GemmProbe(config, probe.features, &rng, r);
  SinkhornProbe(config, &rng, r);
  HerdingProbe(config, split.train.num_units(), &rng, r);
  PredictProbe(trainers[0].get(), split, r);
  StorageProbes(trainers[0].get(), split, probe.features, o, r);
}

}  // namespace cerl::bench
