// Per-stream stage cost model — the "cost" in cost-aware scheduling.
//
// The engine's dispatch priority for a stream is its expected pending work
// in milliseconds (longest-expected-queue-first). That expectation comes
// from here: an EWMA of observed per-work-unit stage cost, queried against a
// queued domain's shape. Normalizing by work units (rather than averaging
// raw wall times) is what lets one observation of a small domain price a
// large one: stage cost is near-linear in units for ingest/migrate and in
// units x epochs for training, so the rate transfers across domain sizes
// while the EWMA tracks drift (cache state, memory growth, machine load).
//
// Cold streams have no observations, so predictions fall back to a single
// default rate — identical for every stream, which makes cold priorities
// proportional to n_units x epochs exactly as submitted work would suggest.
// The model self-reports its accuracy (mean absolute percentage error of
// warm predictions); the SLO bench gates on it staying sane.
//
// Thread-safety: none. The engine guards each stream's model with its state
// mutex, like the rest of the per-stream scheduling state.
#pragma once

#include <cstdint>
#include <string>

#include "util/status.h"

namespace cerl {
class BoundedReader;
}  // namespace cerl

namespace cerl::stream {

/// The three pipeline stages of one domain (core::CerlTrainer's
/// BeginStage / TrainStage / MigrateStage).
enum class StageKind : uint8_t { kIngest = 0, kTrain = 1, kMigrate = 2 };
inline constexpr int kNumStages = 3;

/// The cost-relevant shape of one pushed domain.
struct DomainShape {
  int64_t n_units = 0;  ///< training units (covariate rows fed to the stage)
  int epochs = 1;       ///< configured training epochs
};

/// Work units of a stage on a domain: the quantity stage wall time is
/// (approximately) linear in. Ingest/migrate touch each unit once; training
/// touches each unit once per epoch.
int64_t StageWorkUnits(StageKind stage, const DomainShape& shape);

/// EWMA cost model over the three stages of one stream.
class StageCostModel {
 public:
  /// Predicted wall milliseconds for `stage` on a domain of `shape`.
  double PredictMs(StageKind stage, const DomainShape& shape) const;

  /// Predicted wall milliseconds for a full domain (all three stages).
  double PredictDomainMs(const DomainShape& shape) const;

  /// Records an observed stage execution: `ms` of wall time on `shape`.
  /// Updates the per-unit rate EWMA, the plain per-stage wall-time EWMA
  /// (the stats surface), and — when the stage was warm — the prediction
  /// error accumulator.
  void Observe(StageKind stage, const DomainShape& shape, double ms);

  /// Plain EWMA of observed wall ms for `stage` (0 while cold). This is the
  /// human-facing "how long does this stream's train stage take" number;
  /// predictions use the per-unit rates instead.
  double ewma_stage_ms(StageKind stage) const;

  /// Stage observations recorded so far (all stages).
  int64_t observations() const { return observations_; }

  /// Mean absolute percentage error of warm predictions (those made with at
  /// least one prior observation of the stage), in [0, inf); 0 while no
  /// warm prediction has been scored.
  double mean_abs_pct_error() const;

  /// Warm predictions scored into the error metric — the weight to use when
  /// aggregating mean_abs_pct_error across streams.
  int64_t scored_predictions() const { return scored_predictions_; }

  // --- Snapshot codec (CERLENG5 per-stream cost block) --------------------
  // Rates/counters only; the plain EWMAs and error accumulators are
  // transient diagnostics and restore cold.

  void Serialize(std::string* out) const;
  Status Deserialize(BoundedReader* r);

 private:
  struct Stage {
    double rate_ms_per_unit = 0.0;  ///< EWMA; valid when count > 0
    int64_t count = 0;              ///< observations of this stage
    double ewma_ms = 0.0;           ///< plain EWMA of wall ms
  };

  Stage stages_[kNumStages];
  int64_t observations_ = 0;
  // Error accumulator: sum of |predicted - observed| / observed over warm
  // predictions, scored BEFORE the observation updates the rate.
  double abs_pct_error_sum_ = 0.0;
  int64_t scored_predictions_ = 0;
};

}  // namespace cerl::stream
