// Reproduces Table I (News half): sqrt(PEHE) and eps_ATE of CFR-A/B/C and
// CERL on two sequential News-like domains under substantial / moderate /
// no domain shift, with the paper's reference numbers printed alongside.
//
// Expected shape (paper): under shift, CFR-A degrades on the NEW domain,
// CFR-B forgets the PREVIOUS domain, CFR-C is the ideal (but needs all raw
// data), and CERL tracks CFR-C without accessing previous raw data. Under
// no shift all methods coincide.
//
// Usage: table1_news [--scale=tiny|small|paper] [--seed=N] [--out=csv]
#include <cstdio>

#include "bench_common.h"
#include "data/topic_benchmark.h"
#include "util/timer.h"

namespace cerl::bench {
namespace {

data::TopicBenchmarkConfig NewsConfig(Scale scale) {
  switch (scale) {
    case Scale::kTiny: {
      data::TopicBenchmarkConfig c;
      c.corpus.num_docs = 600;
      c.corpus.vocab_size = 160;
      c.corpus.num_topics = 10;
      c.corpus.doc_length_mean = 40.0;
      c.lda.num_topics = 10;
      c.lda.iterations = 25;
      return c;
    }
    case Scale::kSmall:
      return data::NewsConfigSmall();
    case Scale::kPaper:
      return data::NewsConfigPaper();
  }
  return data::NewsConfigSmall();
}

int MemoryBudget(Scale scale, int num_docs) {
  // Paper: M = 500 of 5000 documents (10%); keep the ratio at lower scales.
  return scale == Scale::kPaper ? 500 : std::max(50, num_docs / 10);
}

const std::vector<PaperRow>& PaperReference(data::DomainShift shift) {
  static const std::vector<PaperRow> kSubstantial = {
      {"CFR-A", 2.49, 0.80, 3.62, 1.18},
      {"CFR-B", 3.23, 1.06, 2.71, 0.91},
      {"CFR-C", 2.51, 0.82, 2.70, 0.92},
      {"CERL", 2.55, 0.84, 2.71, 0.91}};
  static const std::vector<PaperRow> kModerate = {
      {"CFR-A", 2.58, 0.85, 3.06, 1.02},
      {"CFR-B", 2.98, 0.99, 2.65, 0.92},
      {"CFR-C", 2.56, 0.85, 2.63, 0.90},
      {"CERL", 2.59, 0.86, 2.66, 0.92}};
  static const std::vector<PaperRow> kNone = {
      {"CFR-A", 2.58, 0.87, 2.62, 0.88},
      {"CFR-B", 2.60, 0.88, 2.60, 0.87},
      {"CFR-C", 2.58, 0.87, 2.59, 0.87},
      {"CERL", 2.59, 0.87, 2.60, 0.87}};
  switch (shift) {
    case data::DomainShift::kSubstantial: return kSubstantial;
    case data::DomainShift::kModerate: return kModerate;
    case data::DomainShift::kNone: return kNone;
  }
  return kNone;
}

int Run(const Flags& flags) {
  const Scale scale = ParseScale(flags);
  const uint64_t seed = flags.GetInt("seed", 1);
  const int reps = flags.GetInt("reps", scale == Scale::kTiny ? 1 : 2);
  std::printf("== Table I (News) — scale=%s seed=%llu reps=%d ==\n",
              ScaleName(scale), static_cast<unsigned long long>(seed), reps);

  CsvWriter csv({"scenario", "method", "prev_pehe", "prev_ate", "new_pehe",
                 "new_ate"});
  VerdictPrinter verdicts;
  WallTimer timer;

  // CFR-A new-domain error per scenario, to check shift monotonicity.
  std::vector<double> cfr_a_new_by_shift;

  for (data::DomainShift shift :
       {data::DomainShift::kSubstantial, data::DomainShift::kModerate,
        data::DomainShift::kNone}) {
    data::TopicBenchmarkConfig config = NewsConfig(scale);
    config.shift = shift;
    core::CerlConfig cerl_config;
    std::vector<MethodRow> rows;
    int domain_units[2] = {0, 0};
    for (int rep = 0; rep < reps; ++rep) {
      config.seed = seed + 1000 * rep;
      data::TopicBenchmark bench = data::GenerateTopicBenchmark(config);
      domain_units[0] = bench.domains[0].num_units();
      domain_units[1] = bench.domains[1].num_units();
      Rng split_rng(seed + 101 + rep);
      auto splits = data::SplitStream(bench.domains, &split_rng);

      core::StrategyConfig strat;
      strat.net = TopicNetConfig(scale);
      strat.train = BenchTrainConfig(scale, seed + 7 + 31 * rep);

      cerl_config.net = strat.net;
      cerl_config.train = strat.train;
      cerl_config.memory_capacity =
          MemoryBudget(scale, config.corpus.num_docs);

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
    cfr_a_new_by_shift.push_back(a.current.pehe);

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
    } else {
      const double lo = std::min(std::min(a.current.pehe, b.current.pehe),
                                 std::min(c.current.pehe, cerl.current.pehe));
      const double hi = std::max(std::max(a.current.pehe, b.current.pehe),
                                 std::max(c.current.pehe, cerl.current.pehe));
      verdicts.Check("none: all methods similar on new data (<=1.5x spread)",
                     hi < 1.5 * lo);
    }
  }
  verdicts.Check("CFR-A new-domain error grows with shift magnitude",
                 cfr_a_new_by_shift[0] > cfr_a_new_by_shift[2] &&
                     cfr_a_new_by_shift[1] > cfr_a_new_by_shift[2]);

  std::printf("\ntotal time: %.1fs\n", timer.ElapsedSeconds());
  MaybeWriteCsv(flags, csv, "table1_news.csv");
  verdicts.Summary();
  return 0;
}

}  // namespace
}  // namespace cerl::bench

int main(int argc, char** argv) {
  cerl::Flags flags(argc, argv);
  return cerl::bench::Run(flags);
}
