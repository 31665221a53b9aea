// Reproduces Table I (BlogCatalog half): same protocol as the News half on
// a BlogCatalog-like corpus (bloggers described by bag-of-words keywords;
// paper: 5196 units, 2160 features, 50 LDA topics).
//
// Usage: table1_blogcatalog [--scale=tiny|small|paper] [--seed=N] [--out=csv]
#include <cstdio>

#include "bench_common.h"
#include "data/topic_benchmark.h"
#include "util/timer.h"

namespace cerl::bench {
namespace {

data::TopicBenchmarkConfig BlogConfig(Scale scale) {
  switch (scale) {
    case Scale::kTiny: {
      data::TopicBenchmarkConfig c;
      c.corpus.num_docs = 600;
      c.corpus.vocab_size = 120;
      c.corpus.num_topics = 10;
      c.corpus.doc_length_mean = 30.0;
      c.corpus.alpha = 0.05;
      c.lda.num_topics = 10;
      c.lda.iterations = 25;
      return c;
    }
    case Scale::kSmall:
      return data::BlogCatalogConfigSmall();
    case Scale::kPaper:
      return data::BlogCatalogConfigPaper();
  }
  return data::BlogCatalogConfigSmall();
}

const std::vector<PaperRow>& PaperReference(data::DomainShift shift) {
  static const std::vector<PaperRow> kSubstantial = {
      {"CFR-A", 9.92, 4.25, 13.65, 6.21},
      {"CFR-B", 14.21, 6.98, 9.77, 4.11},
      {"CFR-C", 9.93, 4.24, 9.77, 4.12},
      {"CERL", 9.96, 4.25, 9.78, 4.12}};
  static const std::vector<PaperRow> kModerate = {
      {"CFR-A", 9.89, 4.22, 11.26, 5.03},
      {"CFR-B", 12.35, 5.67, 9.83, 4.18},
      {"CFR-C", 9.88, 4.21, 9.81, 4.16},
      {"CERL", 9.90, 4.24, 9.82, 4.17}};
  static const std::vector<PaperRow> kNone = {
      {"CFR-A", 9.86, 4.20, 9.85, 4.19},
      {"CFR-B", 9.85, 4.18, 9.83, 4.18},
      {"CFR-C", 9.84, 4.18, 9.83, 4.18},
      {"CERL", 9.85, 4.19, 9.83, 4.18}};
  switch (shift) {
    case data::DomainShift::kSubstantial: return kSubstantial;
    case data::DomainShift::kModerate: return kModerate;
    case data::DomainShift::kNone: return kNone;
  }
  return kNone;
}

int Run(const Flags& flags) {
  const Scale scale = ParseScale(flags);
  const uint64_t seed = flags.GetInt("seed", 2);
  const int reps = flags.GetInt("reps", scale == Scale::kTiny ? 1 : 2);
  std::printf("== Table I (BlogCatalog) — scale=%s seed=%llu reps=%d ==\n",
              ScaleName(scale), static_cast<unsigned long long>(seed), reps);

  CsvWriter csv({"scenario", "method", "prev_pehe", "prev_ate", "new_pehe",
                 "new_ate"});
  VerdictPrinter verdicts;
  WallTimer timer;

  for (data::DomainShift shift :
       {data::DomainShift::kSubstantial, data::DomainShift::kModerate,
        data::DomainShift::kNone}) {
    data::TopicBenchmarkConfig config = BlogConfig(scale);
    config.shift = shift;
    core::CerlConfig cerl_config;
    std::vector<MethodRow> rows;
    int domain_units[2] = {0, 0};
    for (int rep = 0; rep < reps; ++rep) {
      config.seed = seed + 1000 * rep;
      data::TopicBenchmark bench = data::GenerateTopicBenchmark(config);
      domain_units[0] = bench.domains[0].num_units();
      domain_units[1] = bench.domains[1].num_units();
      Rng split_rng(seed + 211 + rep);
      auto splits = data::SplitStream(bench.domains, &split_rng);

      core::StrategyConfig strat;
      strat.net = TopicNetConfig(scale);
      strat.train = BenchTrainConfig(scale, seed + 13 + 31 * rep);

      cerl_config.net = strat.net;
      cerl_config.train = strat.train;
      cerl_config.memory_capacity =
          scale == Scale::kPaper ? 500
                                 : std::max(50, config.corpus.num_docs / 10);

      std::vector<MethodRow> rep_rows = RunStrategyRows(splits, strat);
      rep_rows.push_back(RunCerlRow(splits, cerl_config));
      AccumulateRows(&rows, rep_rows);
    }
    DivideRows(&rows, reps);
    const MethodRow& a = rows[0];
    const MethodRow& b = rows[1];
    const MethodRow& c = rows[2];
    const MethodRow& cerl = rows[3];

    char title[160];
    std::snprintf(title, sizeof(title),
                  "-- %s shift (domains %d/%d units, M=%d) --",
                  data::DomainShiftName(shift), domain_units[0],
                  domain_units[1], cerl_config.memory_capacity);
    PrintMethodTable(title, rows, PaperReference(shift));
    AppendRowsToCsv(&csv, data::DomainShiftName(shift), rows);

    if (shift != data::DomainShift::kNone) {
      verdicts.Check(std::string(data::DomainShiftName(shift)) +
                         ": CFR-A declines on new data vs CFR-C",
                     a.current.pehe > 1.1 * c.current.pehe);
      verdicts.Check(std::string(data::DomainShiftName(shift)) +
                         ": CFR-B forgets previous data vs CFR-C",
                     b.previous.pehe > 1.1 * c.previous.pehe);
      verdicts.Check(std::string(data::DomainShiftName(shift)) +
                         ": CERL beats fine-tuning on previous data",
                     cerl.previous.pehe < b.previous.pehe);
      verdicts.Check(std::string(data::DomainShiftName(shift)) +
                         ": CERL tracks CFR-C on new data (<=1.5x)",
                     cerl.current.pehe < 1.5 * c.current.pehe);
    }
  }

  std::printf("\ntotal time: %.1fs\n", timer.ElapsedSeconds());
  MaybeWriteCsv(flags, csv, "table1_blogcatalog.csv");
  verdicts.Summary();
  return 0;
}

}  // namespace
}  // namespace cerl::bench

int main(int argc, char** argv) {
  cerl::Flags flags(argc, argv);
  return cerl::bench::Run(flags);
}
