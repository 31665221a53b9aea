// google-benchmark microbenchmarks for the substrates backing the
// reproduction: GEMM, a full autodiff training step, Sinkhorn OT, herding
// selection, one collapsed-Gibbs LDA sweep, MVN sampling, and correlation-
// matrix generation. Run in Release mode for meaningful numbers.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "autodiff/composite.h"
#include "autodiff/ops.h"
#include "causal/herding.h"
#include "corrgen/hub_correlation.h"
#include "linalg/gemm.h"
#include "linalg/ops.h"
#include "linalg/simd.h"
#include "nn/mlp.h"
#include "nn/optim.h"
#include "ot/ipm.h"
#include "ot/sinkhorn.h"
#include "serve/effect_snapshot.h"
#include "stats/mvn.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/tenant_store.h"
#include "stream/stream_engine.h"
#include "topics/lda_generative.h"
#include "topics/lda_gibbs.h"
#include "train/train_loop.h"
#include "util/check.h"
#include "util/rng.h"

namespace cerl {
namespace {

linalg::Matrix RandomMatrix(Rng* rng, int rows, int cols) {
  linalg::Matrix m(rows, cols);
  for (int64_t i = 0; i < m.size(); ++i) m.data()[i] = rng->Normal();
  return m;
}

void BM_Gemm(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(1);
  linalg::Matrix a = RandomMatrix(&rng, n, n);
  linalg::Matrix b = RandomMatrix(&rng, n, n);
  linalg::Matrix c(n, n);
  for (auto _ : state) {
    linalg::Gemm(linalg::Trans::kNo, linalg::Trans::kNo, 1.0, a, b, 0.0, &c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256);

void BM_AutodiffTrainingStep(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  Rng rng(2);
  nn::MlpConfig config;
  config.dims = {100, 48, 16, 1};
  nn::Mlp mlp(&rng, config);
  nn::Adam opt(mlp.Parameters(), 1e-3);
  linalg::Matrix x = RandomMatrix(&rng, batch, 100);
  linalg::Matrix y = RandomMatrix(&rng, batch, 1);
  autodiff::Tape tape;
  for (auto _ : state) {
    tape.Reset();
    autodiff::Var out = mlp.Forward(&tape, tape.ConstantView(&x));
    autodiff::Var loss = autodiff::MseLoss(out, tape.ConstantView(&y));
    opt.ZeroGrad();
    tape.Backward(loss);
    opt.Step();
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_AutodiffTrainingStep)->Arg(64)->Arg(256);

// Proves the tape-arena reuse sub-win in isolation: the same MLP training
// step recorded on a fresh Tape each iteration (allocating every node)
// versus on one persistent Tape via Reset() (steady state allocates
// nothing; see Tape::arena_allocations).
void TapeStep(nn::Mlp* mlp, nn::Adam* opt, autodiff::Tape* tape,
              const linalg::Matrix& x, const linalg::Matrix& y) {
  autodiff::Var out = mlp->Forward(tape, tape->ConstantView(&x));
  autodiff::Var loss = autodiff::MseLoss(out, tape->ConstantView(&y));
  opt->ZeroGrad();
  tape->Backward(loss);
  opt->Step();
}

void BM_TapeReuse(benchmark::State& state) {
  const bool reuse = state.range(0) != 0;
  Rng rng(2);
  nn::MlpConfig config;
  config.dims = {100, 48, 16, 1};
  nn::Mlp mlp(&rng, config);
  nn::Adam opt(mlp.Parameters(), 1e-3);
  linalg::Matrix x = RandomMatrix(&rng, 128, 100);
  linalg::Matrix y = RandomMatrix(&rng, 128, 1);
  autodiff::Tape persistent;
  for (auto _ : state) {
    if (reuse) {
      persistent.Reset();
      TapeStep(&mlp, &opt, &persistent, x, y);
    } else {
      autodiff::Tape fresh;
      TapeStep(&mlp, &opt, &fresh, x, y);
    }
  }
  state.SetLabel(reuse ? "reset_reuse" : "fresh_tape");
  state.SetItemsProcessed(state.iterations() * 128);
}
BENCHMARK(BM_TapeReuse)->Arg(0)->Arg(1);

void BM_TrainLoopEpoch(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(10);
  nn::MlpConfig config;
  config.dims = {100, 48, 16, 1};
  nn::Mlp mlp(&rng, config);
  linalg::Matrix x = RandomMatrix(&rng, n, 100);
  linalg::Matrix y = RandomMatrix(&rng, n, 1);
  train::LoopOptions options;
  options.epochs = 1;
  options.batch_size = 128;
  options.patience = 2;
  for (auto _ : state) {
    train::TrainLoop loop(options, mlp.Parameters());
    train::TrainStats stats = loop.Run(
        n, {&x, &y},
        [&](autodiff::Tape* tape, train::IndexSpan,
            const std::vector<linalg::Matrix>& gathered) {
          autodiff::Var xb = tape->ConstantView(&gathered[0]);
          autodiff::Var yb = tape->ConstantView(&gathered[1]);
          return autodiff::MseLoss(mlp.Forward(tape, xb), yb);
        },
        [] { return 1.0; });
    benchmark::DoNotOptimize(stats);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_TrainLoopEpoch)->Arg(1000)->Arg(4000);

// BM_TrainLoopEpoch's MLP with the loss over a content-dependent row subset
// of each batch (the rows whose fixed random label is 1, like CFR's
// treated/control split), so the graph's shapes change from step to step.
// Paired in CI against BM_TrainLoopEpoch/1000 in the same run, so a per-step
// cost of shape churn shows up as a ratio shift whatever the host speed.
void BM_TrainLoopEpochVaryingSplit(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(10);
  nn::MlpConfig config;
  config.dims = {100, 48, 16, 1};
  nn::Mlp mlp(&rng, config);
  linalg::Matrix x = RandomMatrix(&rng, n, 100);
  linalg::Matrix y = RandomMatrix(&rng, n, 1);
  std::vector<int> label(n);
  for (int& l : label) l = rng.Uniform() < 0.5 ? 1 : 0;
  train::LoopOptions options;
  options.epochs = 1;
  options.batch_size = 128;
  options.patience = 2;
  std::vector<int> rows;
  for (auto _ : state) {
    train::TrainLoop loop(options, mlp.Parameters());
    train::TrainStats stats = loop.Run(
        n, {&x, &y},
        [&](autodiff::Tape* tape, train::IndexSpan batch,
            const std::vector<linalg::Matrix>& gathered) {
          rows.clear();
          for (int i = 0; i < batch.size(); ++i) {
            if (label[batch[i]] == 1) rows.push_back(i);
          }
          autodiff::Var xb = autodiff::GatherRows(
              tape->ConstantView(&gathered[0]), rows);
          autodiff::Var yb = autodiff::GatherRows(
              tape->ConstantView(&gathered[1]), rows);
          return autodiff::MseLoss(mlp.Forward(tape, xb), yb);
        },
        [] { return 1.0; });
    benchmark::DoNotOptimize(stats);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_TrainLoopEpochVaryingSplit)->Arg(1000);

void BM_GatherRows(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int cols = 100;
  Rng rng(11);
  linalg::Matrix x = RandomMatrix(&rng, n, cols);
  std::vector<int> idx = rng.Permutation(n);
  idx.resize(n / 2);
  linalg::Matrix out;
  for (auto _ : state) {
    x.GatherRowsInto(idx.data(), static_cast<int>(idx.size()), &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(idx.size()) * cols *
                          static_cast<int64_t>(sizeof(double)));
}
BENCHMARK(BM_GatherRows)->Arg(1000)->Arg(20000);

void BM_MatVec(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(12);
  linalg::Matrix a = RandomMatrix(&rng, n, n);
  linalg::Vector x(n, 0.5);
  for (auto _ : state) {
    linalg::Vector y = linalg::MatVec(a, x);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * n * n);
}
BENCHMARK(BM_MatVec)->Arg(256)->Arg(1024);

// The dispatched batch exponential — the dominant op of every cold Gibbs
// kernel build. The label records which kernel table ran (scalar / avx2).
void BM_VecExp(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(14);
  std::vector<double> in(n), out(n);
  for (double& x : in) x = rng.Uniform(-20.0, 0.0);
  for (auto _ : state) {
    linalg::VecExp(in.data(), out.data(), n);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetLabel(linalg::simd::Kernels().name);
}
BENCHMARK(BM_VecExp)->Arg(256)->Arg(4096)->Arg(65536);

// One dispatched activation forward over a 128 x 32 N(0, 1) batch, the
// hidden-layer shape of CERL's MLPs — what the tape and the serving path run
// per layer. relu is plain compare-select; elu and tanh run the expm1 core.
// bench-smoke gates the elu/relu and tanh/relu ratios within one run.
void BM_EwForward(benchmark::State& state, linalg::simd::EwFwd op) {
  Rng rng(15);
  linalg::Matrix x = RandomMatrix(&rng, 128, 32);
  linalg::Matrix y(128, 32);
  const auto& ks = linalg::simd::Kernels();
  for (auto _ : state) {
    ks.ew_forward(static_cast<int>(op), x.data(), y.data(), x.size());
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * x.size());
  state.SetLabel(ks.name);
}
BENCHMARK_CAPTURE(BM_EwForward, relu, linalg::simd::EwFwd::kRelu);
BENCHMARK_CAPTURE(BM_EwForward, elu, linalg::simd::EwFwd::kElu);
BENCHMARK_CAPTURE(BM_EwForward, tanh, linalg::simd::EwFwd::kTanh);

// The ELU backward pass over the same 128 x 32 batch: ga += g * (x > 0 ? 1 :
// y + 1), a shared plain loop (linalg/simd_plain.inc) that the compiler
// vectorizes for the AVX2 table. bench-smoke gates it against the
// hand-written BM_EwForward/elu in the same run, so a compiler or flag
// change that stops vectorizing the shared loops fails CI.
void BM_EwBackward(benchmark::State& state, linalg::simd::EwGrad op) {
  Rng rng(16);
  linalg::Matrix x = RandomMatrix(&rng, 128, 32);
  linalg::Matrix g = RandomMatrix(&rng, 128, 32);
  linalg::Matrix y(128, 32);
  linalg::Matrix ga(128, 32);
  const auto& ks = linalg::simd::Kernels();
  ks.ew_forward(static_cast<int>(linalg::simd::EwFwd::kElu), x.data(),
                y.data(), x.size());
  for (auto _ : state) {
    ks.ew_backward(static_cast<int>(op), g.data(), x.data(), y.data(),
                   ga.data(), x.size());
    benchmark::DoNotOptimize(ga.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * x.size());
  state.SetLabel(ks.name);
}
BENCHMARK_CAPTURE(BM_EwBackward, elu, linalg::simd::EwGrad::kElu);

// Forward plus backward of one dense 128 x 32 ELU layer on a tape, the
// shape of a CERL hidden layer: `chain` records MatMul -> AddRowBroadcast
// -> Elu (three nodes, each with its own value and gradient buffer),
// `fused` records the one LinearAct node whose forward is a single Gemm
// with the bias/ELU epilogue. Both give the same bits; bench-smoke gates
// fused against chain in the same run.
void BM_DenseLayerStep(benchmark::State& state, bool fused) {
  Rng rng(17);
  autodiff::Parameter x(RandomMatrix(&rng, 128, 32));
  autodiff::Parameter w(RandomMatrix(&rng, 32, 32));
  autodiff::Parameter b(RandomMatrix(&rng, 1, 32));
  autodiff::Tape tape;
  for (auto _ : state) {
    tape.Reset();
    x.ZeroGrad();
    w.ZeroGrad();
    b.ZeroGrad();
    autodiff::Var xv = tape.Param(&x);
    autodiff::Var wv = tape.Param(&w);
    autodiff::Var bv = tape.Param(&b);
    autodiff::Var y =
        fused ? autodiff::LinearAct(xv, wv, bv, linalg::simd::EwFwd::kElu)
              : autodiff::Elu(
                    autodiff::AddRowBroadcast(autodiff::MatMul(xv, wv), bv));
    tape.Backward(autodiff::Sum(y));
    benchmark::DoNotOptimize(w.grad.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 128);
  state.SetLabel(linalg::simd::Kernels().name);
}
BENCHMARK_CAPTURE(BM_DenseLayerStep, chain, false);
BENCHMARK_CAPTURE(BM_DenseLayerStep, fused, true);

// Cold-start Sinkhorn solves. Arg(1): the workspace solver (arena buffers,
// SIMD kernels, vectorized exp; warm start disabled so every solve runs
// the full iteration). Arg(0): the allocate-per-call reference solver.
void BM_Sinkhorn(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const bool workspace = state.range(1) != 0;
  Rng rng(3);
  linalg::Matrix a = RandomMatrix(&rng, n, 16);
  linalg::Matrix b = RandomMatrix(&rng, n, 16);
  linalg::Matrix cost = linalg::PairwiseSquaredDistances(a, b);
  ot::SinkhornConfig config;
  config.warm_start = false;
  ot::SinkhornWorkspace ws;
  for (auto _ : state) {
    if (workspace) {
      auto info = ot::SolveSinkhorn(cost, config, &ws);
      benchmark::DoNotOptimize(info);
    } else {
      auto result = ot::SolveSinkhorn(cost, config);
      benchmark::DoNotOptimize(result);
    }
  }
  state.SetLabel(workspace ? "workspace_cold" : "reference");
}
BENCHMARK(BM_Sinkhorn)
    ->Args({32, 0})
    ->Args({32, 1})
    ->Args({64, 0})
    ->Args({64, 1})
    ->Args({128, 0})
    ->Args({128, 1});

// Warm-started steady state: the cost drifts slightly each iteration (as
// representations do between SGD steps) and the duals carry over.
void BM_SinkhornWarm(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(3);
  linalg::Matrix a = RandomMatrix(&rng, n, 16);
  linalg::Matrix b = RandomMatrix(&rng, n, 16);
  ot::SinkhornConfig config;
  ot::SinkhornWorkspace ws;
  for (auto _ : state) {
    state.PauseTiming();
    for (int64_t i = 0; i < a.size(); ++i) {
      a.data()[i] += rng.Normal(0.0, 1e-3);
    }
    linalg::Matrix cost = linalg::PairwiseSquaredDistances(a, b);
    state.ResumeTiming();
    auto info = ot::SolveSinkhorn(cost, config, &ws);
    benchmark::DoNotOptimize(info);
  }
}
BENCHMARK(BM_SinkhornWarm)->Arg(32)->Arg(64)->Arg(128);

void BM_HerdingSelect(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(4);
  linalg::Matrix reps = RandomMatrix(&rng, n, 32);
  for (auto _ : state) {
    auto idx = causal::HerdingSelect(reps, n / 10);
    benchmark::DoNotOptimize(idx);
  }
}
BENCHMARK(BM_HerdingSelect)->Arg(500)->Arg(2000);

void BM_LdaGibbsSweep(benchmark::State& state) {
  Rng rng(5);
  topics::GenerativeLdaConfig gen_config;
  gen_config.num_docs = 200;
  gen_config.vocab_size = 300;
  gen_config.num_topics = 20;
  gen_config.doc_length_mean = 60.0;
  auto corpus = topics::GenerateLdaCorpus(gen_config, &rng);
  topics::LdaGibbsConfig config;
  config.num_topics = 20;
  config.iterations = 1;  // One sweep per iteration.
  for (auto _ : state) {
    Rng train_rng(6);
    auto model = topics::TrainLdaGibbs(corpus.corpus, config, &train_rng);
    benchmark::DoNotOptimize(model.doc_topic().data());
  }
  state.SetItemsProcessed(state.iterations() * corpus.corpus.num_tokens());
}
BENCHMARK(BM_LdaGibbsSweep);

void BM_MvnSample(benchmark::State& state) {
  const int dim = static_cast<int>(state.range(0));
  Rng rng(7);
  std::vector<corrgen::HubBlockSpec> specs(1);
  specs[0].size = dim;
  auto corr = corrgen::GenerateCorrelationMatrix(specs, 0.3, 20, &rng);
  auto mvn = stats::MultivariateNormal::Create(linalg::Vector(dim, 0.0),
                                               corr.value());
  for (auto _ : state) {
    auto x = mvn.value().Sample(&rng);
    benchmark::DoNotOptimize(x);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MvnSample)->Arg(100);

void BM_CorrelationMatrixGeneration(benchmark::State& state) {
  Rng rng(8);
  std::vector<corrgen::HubBlockSpec> specs(4);
  const int sizes[] = {35, 10, 20, 35};
  for (int i = 0; i < 4; ++i) specs[i].size = sizes[i];
  for (auto _ : state) {
    auto corr = corrgen::GenerateCorrelationMatrix(specs, 0.5, 50, &rng);
    benchmark::DoNotOptimize(corr);
  }
}
BENCHMARK(BM_CorrelationMatrixGeneration);

// One full balancing-penalty training step as the CFR/CERL loss builders
// run it: persistent tape + Sinkhorn workspace, forward, backward, and a
// small SGD drift of the representations between steps (which is what the
// warm-started duals exploit). `fused` records ot::WassersteinPenalty's one
// node (cost, plan and dC in the workspace's scratch); `chain` builds the
// same penalty from the public ops, PairwiseSquaredDistancesVar ->
// ConstantView(plan) -> Mul -> Sum, with two n1 x n2 tape nodes. Both give
// the same bits; bench-smoke gates fused against chain in the same run.
void BM_WassersteinPenaltyStep(benchmark::State& state, bool fused) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(13);
  autodiff::Parameter reps(RandomMatrix(&rng, n, 16), "reps");
  linalg::Matrix fixed = RandomMatrix(&rng, n, 16);
  ot::SinkhornConfig config;
  autodiff::Tape tape;
  ot::SinkhornWorkspace ws;
  for (auto _ : state) {
    tape.Reset();
    autodiff::Var a = tape.Param(&reps);
    autodiff::Var b = tape.ConstantView(&fixed);
    autodiff::Var pen;
    if (fused) {
      pen = ot::WassersteinPenalty(a, b, config, ws.lease());
    } else {
      autodiff::Var cost = ot::PairwiseSquaredDistancesVar(a, b);
      auto solved = ot::SolveSinkhorn(cost.value(), config, &ws);
      benchmark::DoNotOptimize(solved);
      pen = autodiff::Sum(
          autodiff::Mul(tape.ConstantView(&ws.plan()), cost));
    }
    reps.ZeroGrad();
    tape.Backward(pen);
    for (int64_t i = 0; i < reps.value.size(); ++i) {
      reps.value.data()[i] -= 1e-3 * reps.grad.data()[i];
    }
  }
}
BENCHMARK_CAPTURE(BM_WassersteinPenaltyStep, chain, false)->Arg(64)->Arg(128);
BENCHMARK_CAPTURE(BM_WassersteinPenaltyStep, fused, true)->Arg(64)->Arg(128);

// Shared CERL-workload substrate for the engine/checkpoint benches: a toy
// shifted domain and a small fast config.
data::DataSplit BenchSplit(Rng* rng, int units, int features, double shift) {
  data::CausalDataset dataset;
  dataset.x = RandomMatrix(rng, units, features);
  dataset.t.resize(units);
  dataset.y.resize(units);
  dataset.mu0.assign(units, 0.0);
  dataset.mu1.assign(units, 1.0);
  for (int i = 0; i < units; ++i) {
    dataset.x(i, 0) += shift;
    dataset.t[i] = rng->Uniform() < 0.5 ? 1 : 0;
    dataset.y[i] = std::sin(dataset.x(i, 0)) + dataset.t[i] +
                   0.1 * rng->Normal();
  }
  return data::SplitDataset(dataset, rng);
}

core::CerlConfig BenchCerlConfig(uint64_t seed) {
  core::CerlConfig config;
  config.net.rep_hidden = {16};
  config.net.rep_dim = 8;
  config.net.head_hidden = {8};
  config.train.epochs = 6;
  config.train.batch_size = 64;
  config.train.patience = 6;
  config.train.alpha = 0.2;
  config.train.seed = seed;
  config.memory_capacity = 200;
  return config;
}

// The toy stream of BM_StreamEngineIngest: kIngestDomains domains, shifted
// between arrivals, and the config each stream trains them with.
constexpr int kIngestDomains = 2;
constexpr int kIngestFeatures = 8;

std::vector<data::DataSplit> IngestBenchDomains(int stream) {
  Rng rng(40 + stream);
  std::vector<data::DataSplit> domains;
  for (int d = 0; d < kIngestDomains; ++d) {
    domains.push_back(BenchSplit(&rng, 240, kIngestFeatures, 0.8 * d));
  }
  return domains;
}

core::CerlConfig IngestBenchConfig(int stream) {
  core::CerlConfig config = BenchCerlConfig(50 + stream);
  config.memory_capacity = 80;
  return config;
}

// End-to-end domain ingest through the stream engine: `streams` independent
// CERL tenants, each fed two shifted domains. items/s is aggregate domains
// ingested per second — compare Arg(4)/Arg(8) against 4x/8x the Arg(1)
// rate for the multiplexing win (the engine is bit-identical to serial
// per-stream, so only scheduling differs). On a single hardware thread the
// rates match; the concurrency gain needs multicore.
void BM_StreamEngineIngest(benchmark::State& state) {
  const int streams = static_cast<int>(state.range(0));
  std::vector<std::vector<data::DataSplit>> domains(streams);
  for (int s = 0; s < streams; ++s) domains[s] = IngestBenchDomains(s);

  const stream::StreamEngineOptions options;
  for (auto _ : state) {
    stream::StreamEngine engine(options);
    for (int s = 0; s < streams; ++s) {
      const int id =
          engine.AddStream("bench", IngestBenchConfig(s), kIngestFeatures);
      for (const data::DataSplit& split : domains[s]) {
        CERL_CHECK(engine.PushDomain(id, split).ok());
      }
    }
    engine.Drain();
  }
  state.SetItemsProcessed(state.iterations() * streams * kIngestDomains);
  state.SetLabel(std::to_string(streams) + "_streams");
}

// The fixed work the engine's finish task adds to every successful domain:
// the finiteness sweep (CheckNumericalHealth), the last-good capture
// (SerializeCheckpoint) and the effect-snapshot build (BuildEffectSnapshot).
// One iteration does all three once per domain of the BM_StreamEngineIngest
// streams, each at that domain's boundary state (reproduced serially — the
// engine is bit-identical to ObserveDomain). The CI pair gate holds
// BM_DomainBoundaryWork/1 under 0.10x of BM_StreamEngineIngest/1, the
// whole ingest of the same stream.
void BM_DomainBoundaryWork(benchmark::State& state) {
  const int streams = static_cast<int>(state.range(0));
  std::vector<std::unique_ptr<core::CerlTrainer>> boundaries;
  std::string blob;
  for (int s = 0; s < streams; ++s) {
    const std::vector<data::DataSplit> domains = IngestBenchDomains(s);
    for (int d = 0; d < kIngestDomains; ++d) {
      auto trainer = std::make_unique<core::CerlTrainer>(IngestBenchConfig(s),
                                                         kIngestFeatures);
      if (d > 0) CERL_CHECK(trainer->DeserializeCheckpoint(blob).ok());
      trainer->ObserveDomain(domains[d]);
      CERL_CHECK(trainer->SerializeCheckpoint(&blob).ok());
      boundaries.push_back(std::move(trainer));
    }
  }
  uint64_t version = 0;
  for (auto _ : state) {
    for (const auto& trainer : boundaries) {
      CERL_CHECK(trainer->CheckNumericalHealth().ok());
      CERL_CHECK(trainer->SerializeCheckpoint(&blob).ok());
      benchmark::DoNotOptimize(blob.data());
      auto snap = serve::BuildEffectSnapshot(*trainer, ++version);
      benchmark::DoNotOptimize(snap.get());
    }
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(boundaries.size()));
}
BENCHMARK(BM_DomainBoundaryWork)->Arg(1)->Unit(benchmark::kMicrosecond);

// Checkpoint substrate: in-memory serialize/deserialize of a trained
// trainer (the per-stream cost inside an engine snapshot) and a full
// engine SaveSnapshot including the crash-safe file publish. The save runs
// against a live engine at a domain boundary, so real_time here is the
// serving-path latency a rolling restart pays per snapshot.
void BM_CheckpointSerialize(benchmark::State& state) {
  const int kFeatures = 8;
  Rng rng(71);
  core::CerlTrainer trainer(BenchCerlConfig(61), kFeatures);
  trainer.ObserveDomain(BenchSplit(&rng, 400, kFeatures, 0.0));
  trainer.ObserveDomain(BenchSplit(&rng, 400, kFeatures, 0.8));
  std::string payload;
  for (auto _ : state) {
    Status s = trainer.SerializeCheckpoint(&payload);
    CERL_CHECK(s.ok());
    benchmark::DoNotOptimize(payload.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(payload.size()));
}
BENCHMARK(BM_CheckpointSerialize);

void BM_CheckpointDeserialize(benchmark::State& state) {
  const int kFeatures = 8;
  Rng rng(72);
  core::CerlTrainer trainer(BenchCerlConfig(62), kFeatures);
  trainer.ObserveDomain(BenchSplit(&rng, 400, kFeatures, 0.0));
  trainer.ObserveDomain(BenchSplit(&rng, 400, kFeatures, 0.8));
  std::string payload;
  CERL_CHECK(trainer.SerializeCheckpoint(&payload).ok());
  for (auto _ : state) {
    core::CerlTrainer restored(BenchCerlConfig(62), kFeatures);
    Status s = restored.DeserializeCheckpoint(payload);
    CERL_CHECK(s.ok());
    benchmark::DoNotOptimize(restored.stages_seen());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(payload.size()));
}
BENCHMARK(BM_CheckpointDeserialize);

void BM_EngineSnapshotSave(benchmark::State& state) {
  const int kStreams = 4;
  const int kFeatures = 8;
  stream::StreamEngineOptions options;
  options.num_workers = 2;
  stream::StreamEngine engine(options);
  for (int s = 0; s < kStreams; ++s) {
    Rng rng(90 + s);
    const int id =
        engine.AddStream("bench", BenchCerlConfig(80 + s), kFeatures);
    engine.PushDomain(id, BenchSplit(&rng, 300, kFeatures, 0.0));
  }
  engine.Drain();
  const std::string path = "/tmp/cerl_bench.snap";
  for (auto _ : state) {
    Status s = engine.SaveSnapshot(path);
    CERL_CHECK(s.ok());
  }
  state.SetItemsProcessed(state.iterations() * kStreams);
}
BENCHMARK(BM_EngineSnapshotSave);

// The snapshot-fence O(dirty) claim, measured: a 64-tenant engine where 4
// tenants train new domains between snapshots. serialize_ms is the gated
// counter. Dirty arm: SaveSnapshot's serialization window (disk write
// excluded) — retrained tenants refresh their last-good capture on their
// own worker at domain completion, so the fence appends 64 cached blobs
// without touching any trainer. Full arm: the bench serializes all 64
// trainers itself, the cost a fence without the blob cache would pay. The
// CI pair gate holds the dirty arm under 0.20x of the full arm's
// serialize_ms (the >=5x acceptance target), same-run and
// machine-independent. Training between saves runs outside the timer.
void EngineSnapshotFenceBody(benchmark::State& state, bool full_rewrite) {
  const int kStreams = 64;
  const int kDirty = 4;
  const int kFeatures = 8;
  core::CerlConfig config = BenchCerlConfig(0);
  // A realistically sized model + memory bank: the trainer blob is then the
  // bulk of the snapshot, which is what separates the arms (the full
  // rewrite re-serializes and FNV-checksums every tenant's blob; the reuse
  // arm appends each cached blob with one memcpy).
  config.net.rep_hidden = {48, 48};
  config.net.rep_dim = 16;
  config.net.head_hidden = {24};
  config.train.epochs = 2;
  config.memory_capacity = 200;
  stream::StreamEngineOptions options;
  options.num_workers = 4;
  stream::StreamEngine engine(options);
  std::vector<Rng> rngs;
  for (int s = 0; s < kStreams; ++s) {
    rngs.emplace_back(700 + s);
    config.train.seed = 800 + s;
    const int id = engine.AddStream("tenant", config, kFeatures);
    engine.PushDomain(id, BenchSplit(&rngs[s], 100, kFeatures, 0.0));
  }
  engine.Drain();
  const std::string path = "/tmp/cerl_bench_fence.snap";
  std::string payload;
  std::string blob;
  double total_serialize_ms = 0.0;
  for (auto _ : state) {
    state.PauseTiming();
    for (int d = 0; d < kDirty; ++d) {
      CERL_CHECK(engine.PushDomain(d, BenchSplit(&rngs[d], 100, kFeatures,
                                                 0.4)).ok());
    }
    engine.Drain();
    state.ResumeTiming();
    if (full_rewrite) {
      const auto start = std::chrono::steady_clock::now();
      payload.clear();
      for (int s = 0; s < kStreams; ++s) {
        CERL_CHECK(engine.trainer(s).SerializeCheckpoint(&blob).ok());
        payload.append(blob);
      }
      benchmark::DoNotOptimize(payload.data());
      benchmark::ClobberMemory();
      total_serialize_ms += std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - start)
                                .count();
    } else {
      stream::StreamEngine::SnapshotInfo info;
      CERL_CHECK(engine.SaveSnapshot(path, &info).ok());
      total_serialize_ms += info.serialize_ms;
    }
  }
  std::remove(path.c_str());
  state.counters["serialize_ms"] = benchmark::Counter(
      total_serialize_ms / static_cast<double>(state.iterations()));
  state.SetLabel(full_rewrite ? "full_rewrite" : "blob_reuse");
  state.SetItemsProcessed(state.iterations() * kStreams);
}

void BM_EngineSnapshotDirty(benchmark::State& state) {
  EngineSnapshotFenceBody(state, /*full_rewrite=*/false);
}
BENCHMARK(BM_EngineSnapshotDirty)->Unit(benchmark::kMillisecond);

void BM_EngineSnapshotFull(benchmark::State& state) {
  EngineSnapshotFenceBody(state, /*full_rewrite=*/true);
}
BENCHMARK(BM_EngineSnapshotFull)->Unit(benchmark::kMillisecond);

// The storage cost of one tenant residency cycle: spill (TenantStore::Put
// of a real serialized trainer blob through the buffer pool) plus
// fault-back (Get + Erase). The pool is sized below the blob's page count,
// so the cycle exercises eviction and writeback, not just cache hits —
// bytes/s here is the spill bandwidth a cold-tenant eviction actually
// sees. The trainer serialization itself is benched separately
// (BM_CheckpointSerialize); this isolates the paged-store half.
void BM_TenantSpillFaultBack(benchmark::State& state) {
  const int kFeatures = 8;
  Rng rng(73);
  core::CerlTrainer trainer(BenchCerlConfig(63), kFeatures);
  trainer.ObserveDomain(BenchSplit(&rng, 400, kFeatures, 0.0));
  trainer.ObserveDomain(BenchSplit(&rng, 400, kFeatures, 0.8));
  std::string blob;
  CERL_CHECK(trainer.SerializeCheckpoint(&blob).ok());

  const std::string path = "/tmp/cerl_bench_spill.store";
  std::remove(path.c_str());
  auto disk = storage::DiskManager::Open(path);
  CERL_CHECK(disk.ok());
  storage::BufferPool pool(disk.value().get(), 8);
  storage::TenantStore store(&pool);
  for (auto _ : state) {
    CERL_CHECK(store.Put(7, blob).ok());
    auto back = store.Get(7);
    CERL_CHECK(back.ok());
    CERL_CHECK(back.value().size() == blob.size());
    CERL_CHECK(store.Erase(7).ok());
  }
  state.SetBytesProcessed(state.iterations() * 2 *
                          static_cast<int64_t>(blob.size()));
  state.counters["blob_kb"] = benchmark::Counter(
      static_cast<double>(blob.size()) / 1024.0);
  std::remove(path.c_str());
}
BENCHMARK(BM_TenantSpillFaultBack);

BENCHMARK(BM_StreamEngineIngest)
    ->Arg(1)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_WassersteinPenaltyBackward(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(9);
  autodiff::Parameter reps(RandomMatrix(&rng, n, 16), "reps");
  linalg::Matrix fixed = RandomMatrix(&rng, n, 16);
  ot::SinkhornConfig config;
  config.warm_start = false;  // every step solves cold, as on a fresh tape
  ot::SinkhornWorkspace ws;
  for (auto _ : state) {
    autodiff::Tape tape;
    autodiff::Var pen = ot::WassersteinPenalty(
        tape.Param(&reps), tape.Constant(fixed), config, ws.lease());
    reps.ZeroGrad();
    tape.Backward(pen);
    benchmark::DoNotOptimize(reps.grad.data());
  }
}
BENCHMARK(BM_WassersteinPenaltyBackward)->Arg(64);

}  // namespace
}  // namespace cerl

BENCHMARK_MAIN();
