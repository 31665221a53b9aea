#include "bench_common.h"

#include <cstdio>

#include "util/check.h"
#include "util/logging.h"

namespace cerl::bench {

Scale ParseScale(const Flags& flags) {
  const std::string s = flags.GetString("scale", "small");
  if (s == "tiny") return Scale::kTiny;
  if (s == "small") return Scale::kSmall;
  if (s == "paper") return Scale::kPaper;
  CERL_CHECK_MSG(false, "unknown --scale (want tiny|small|paper)");
  return Scale::kSmall;
}

const char* ScaleName(Scale scale) {
  switch (scale) {
    case Scale::kTiny: return "tiny";
    case Scale::kSmall: return "small";
    case Scale::kPaper: return "paper";
  }
  return "?";
}

std::vector<MethodRow> RunStrategyRows(
    const std::vector<data::DataSplit>& splits,
    const core::StrategyConfig& config) {
  CERL_CHECK_EQ(splits.size(), 2u);
  std::vector<MethodRow> rows;
  for (core::Strategy s :
       {core::Strategy::kA, core::Strategy::kB, core::Strategy::kC}) {
    core::StrategyRunResult run = RunCfrStrategy(s, splits, config);
    MethodRow row;
    row.name = core::StrategyName(s);
    row.previous = run.final_stage().per_domain[0];
    row.current = run.final_stage().per_domain[1];
    // Resource profile (paper Table I "Performance Summary"): A and B keep a
    // bounded footprint; C must retain all previous raw data.
    row.needs_previous_raw_data = (s == core::Strategy::kC);
    row.within_memory_budget = (s != core::Strategy::kC);
    rows.push_back(row);
  }
  return rows;
}

core::CerlConfig NullControlConfig(const core::CerlConfig& base) {
  core::CerlConfig config = base;
  config.beta = 0.0;
  config.delta = 0.0;
  config.use_transform = false;
  return config;
}

MethodRow RunCerlRow(const std::vector<data::DataSplit>& splits,
                     const core::CerlConfig& config, std::string name) {
  CERL_CHECK_EQ(splits.size(), 2u);
  core::CerlTrainer trainer(config, splits[0].train.num_features());
  trainer.ObserveDomain(splits[0]);
  trainer.ObserveDomain(splits[1]);
  MethodRow row;
  row.name = std::move(name);
  row.previous = trainer.Evaluate(splits[0].test);
  row.current = trainer.Evaluate(splits[1].test);
  row.needs_previous_raw_data = false;
  row.within_memory_budget = true;
  return row;
}

void PrintMethodTable(const std::string& title,
                      const std::vector<MethodRow>& rows,
                      const std::vector<PaperRow>& paper_reference) {
  std::printf("\n%s\n", title.c_str());
  std::printf(
      "%-18s %13s %13s %13s %13s  %-10s\n", "method", "prev sqPEHE",
      "prev eATE", "new sqPEHE", "new eATE", "resources");
  for (const auto& row : rows) {
    std::printf("%-18s %13.3f %13.3f %13.3f %13.3f  %-10s\n",
                row.name.c_str(), row.previous.pehe, row.previous.ate_error,
                row.current.pehe, row.current.ate_error,
                row.needs_previous_raw_data ? "all data" : "bounded");
  }
  if (!paper_reference.empty()) {
    std::printf("  -- paper reference --\n");
    for (const auto& ref : paper_reference) {
      std::printf("  %-16s %13.2f %13.2f %13.2f %13.2f\n", ref.name,
                  ref.prev_pehe, ref.prev_ate, ref.new_pehe, ref.new_ate);
    }
  }
}


void AccumulateRows(std::vector<MethodRow>* acc,
                    const std::vector<MethodRow>& rows) {
  if (acc->empty()) {
    *acc = rows;
    return;
  }
  for (size_t i = 0; i < rows.size(); ++i) {
    (*acc)[i].previous.pehe += rows[i].previous.pehe;
    (*acc)[i].previous.ate_error += rows[i].previous.ate_error;
    (*acc)[i].current.pehe += rows[i].current.pehe;
    (*acc)[i].current.ate_error += rows[i].current.ate_error;
  }
}

void DivideRows(std::vector<MethodRow>* rows, int n) {
  for (auto& row : *rows) {
    row.previous.pehe /= n;
    row.previous.ate_error /= n;
    row.current.pehe /= n;
    row.current.ate_error /= n;
  }
}

void AppendRowsToCsv(CsvWriter* csv, const std::string& scenario,
                     const std::vector<MethodRow>& rows) {
  for (const auto& row : rows) {
    csv->AddRow({scenario, row.name, CsvWriter::Cell(row.previous.pehe),
                 CsvWriter::Cell(row.previous.ate_error),
                 CsvWriter::Cell(row.current.pehe),
                 CsvWriter::Cell(row.current.ate_error)});
  }
}

void VerdictPrinter::Check(const std::string& claim, bool holds) {
  std::printf("  [%s] %s\n", holds ? "PASS" : "MISS", claim.c_str());
  (holds ? passed_ : failed_)++;
}

int VerdictPrinter::Summary() const {
  std::printf("shape verdicts: %d passed, %d missed\n", passed_, failed_);
  return failed_;
}

void MaybeWriteCsv(const Flags& flags, const CsvWriter& csv,
                   const std::string& default_path) {
  const std::string path = flags.GetString("out", default_path);
  if (path.empty()) return;
  Status status = csv.WriteFile(path);
  if (status.ok()) {
    std::printf("wrote %d rows to %s\n", csv.num_rows(), path.c_str());
  } else {
    std::printf("CSV write failed: %s\n", status.ToString().c_str());
  }
}

causal::TrainConfig BenchTrainConfig(Scale scale, uint64_t seed) {
  causal::TrainConfig t;
  t.seed = seed;
  t.batch_size = 64;
  t.learning_rate = 3e-3;
  t.alpha = 0.3;
  t.lambda = 1e-5;
  switch (scale) {
    case Scale::kTiny:
      t.epochs = 30;
      t.patience = 30;
      break;
    case Scale::kSmall:
      t.epochs = 60;
      t.patience = 20;
      break;
    case Scale::kPaper:
      t.epochs = 150;
      t.patience = 30;
      t.batch_size = 128;
      break;
  }
  return t;
}

causal::NetConfig TopicNetConfig(Scale scale) {
  causal::NetConfig net;
  switch (scale) {
    case Scale::kTiny:
      net.rep_hidden = {24};
      net.rep_dim = 10;
      net.head_hidden = {12};
      break;
    case Scale::kSmall:
      net.rep_hidden = {48};
      net.rep_dim = 24;
      net.head_hidden = {24};
      break;
    case Scale::kPaper:
      net.rep_hidden = {200};
      net.rep_dim = 100;
      net.head_hidden = {100};
      break;
  }
  return net;
}

causal::NetConfig SyntheticNetConfig(Scale scale) {
  causal::NetConfig net;
  switch (scale) {
    case Scale::kTiny:
      net.rep_hidden = {24};
      net.rep_dim = 10;
      net.head_hidden = {12};
      break;
    case Scale::kSmall:
      net.rep_hidden = {48};
      net.rep_dim = 16;
      net.head_hidden = {24};
      break;
    case Scale::kPaper:
      net.rep_hidden = {100, 50};
      net.rep_dim = 25;
      net.head_hidden = {50};
      break;
  }
  return net;
}

}  // namespace cerl::bench
