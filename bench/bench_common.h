// Shared infrastructure for the reproduction benches: strategy + CERL
// drivers over a domain stream, paper-style table printing with the paper's
// reference numbers alongside, qualitative verdict checks, and CSV output.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/cerl_trainer.h"
#include "core/strategies.h"
#include "util/csv.h"
#include "util/flags.h"

namespace cerl::bench {

/// Scale preset for a bench run.
enum class Scale { kTiny, kSmall, kPaper };

/// Parses --scale=tiny|small|paper (default small).
Scale ParseScale(const Flags& flags);
const char* ScaleName(Scale scale);

/// One evaluated method on a 2-domain stream (Table I / II row).
struct MethodRow {
  std::string name;
  causal::CausalMetrics previous;  ///< on domain-1 test set
  causal::CausalMetrics current;   ///< on domain-2 test set
  bool needs_previous_raw_data = false;
  bool within_memory_budget = true;
};

/// Reference numbers from the paper for side-by-side printing.
struct PaperRow {
  const char* name;
  double prev_pehe, prev_ate, new_pehe, new_ate;
};

/// Runs CFR-A/B/C over the stream and returns their final-stage rows.
std::vector<MethodRow> RunStrategyRows(
    const std::vector<data::DataSplit>& splits,
    const core::StrategyConfig& config);

/// The null control: `base` with every CERL term off (beta = delta = 0, no
/// memory) at the continual learning rate. It shares CERL's stage-1 model
/// and stage seeds, so per-seed differences against CERL are paired.
core::CerlConfig NullControlConfig(const core::CerlConfig& base);

/// Runs CERL over the stream and returns its row.
MethodRow RunCerlRow(const std::vector<data::DataSplit>& splits,
                     const core::CerlConfig& config, std::string name = "CERL");

/// Prints a Table-I/II style block: measured rows, then paper reference.
void PrintMethodTable(const std::string& title,
                      const std::vector<MethodRow>& rows,
                      const std::vector<PaperRow>& paper_reference);

/// Element-wise accumulation / averaging of MethodRow metrics across
/// repetitions.
void AccumulateRows(std::vector<MethodRow>* acc,
                    const std::vector<MethodRow>& rows);
void DivideRows(std::vector<MethodRow>* rows, int n);

/// Appends rows to a CSV writer (scenario column + 4 metric columns).
void AppendRowsToCsv(CsvWriter* csv, const std::string& scenario,
                     const std::vector<MethodRow>& rows);

/// Prints and tallies a qualitative verdict ("shape" check vs the paper).
class VerdictPrinter {
 public:
  void Check(const std::string& claim, bool holds);
  /// Prints the summary; returns the number of failed verdicts.
  int Summary() const;

 private:
  int passed_ = 0;
  int failed_ = 0;
};

/// Writes the CSV if --out was given; logs the outcome.
void MaybeWriteCsv(const Flags& flags, const CsvWriter& csv,
                   const std::string& default_path);

/// Optimization settings per scale (epochs/batch/lr shared by all benches).
causal::TrainConfig BenchTrainConfig(Scale scale, uint64_t seed);

/// Representation/head architecture for the topic benchmarks (input dim is
/// supplied at model construction).
causal::NetConfig TopicNetConfig(Scale scale);

/// Architecture for the synthetic benchmarks (100 covariates).
causal::NetConfig SyntheticNetConfig(Scale scale);

}  // namespace cerl::bench
