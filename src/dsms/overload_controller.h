#ifndef STREAMAGG_DSMS_OVERLOAD_CONTROLLER_H_
#define STREAMAGG_DSMS_OVERLOAD_CONTROLLER_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/cost_model.h"
#include "core/optimizer.h"
#include "dsms/configuration_runtime.h"
#include "obs/telemetry.h"
#include "util/status.h"

namespace streamagg {

/// Cost-priced load shedding (docs/overload.md).
///
/// The controller runs on the engine's driver thread at epoch boundaries,
/// after the epoch snapshot was captured (sharded runtimes are quiescent
/// there). It reads the snapshot history for two overload signals —
/// driver pushes that found a shard's queue full, and the epoch-boundary gap
/// latency — and compares each against a configurable watermark. When the
/// combined pressure stays above the watermarks for `trend_epochs`
/// consecutive epochs (the AdaptiveController's SustainedTrend rule, so a
/// single-epoch spike never triggers), it widens a probe-shedding plan;
/// when every recent epoch is back under the watermarks it narrows it.
///
/// *Which* relation sheds is a pricing decision, not a guess: each raw
/// relation's feeding tree is priced with the paper's Eq 7 per-record cost
/// credited to its root (CostModel::PerRecordCostByRoot) — the cycles a
/// shed probe saves — against an accuracy weight (the fraction of query
/// tables living in that tree). Shedding is allocated greedily to the trees
/// that save the most cycles per unit of accuracy lost.
class OverloadController {
 public:
  struct Options {
    /// Master switch. Off (default) compiles down to the pre-existing
    /// engine behavior: no pricing, no shed plan.
    bool enabled = false;
    /// Watermark on the per-epoch blocked-push fraction (blocked envelope
    /// pushes / records ingested that epoch). 0 disables the signal.
    double queue_blocked_fraction = 0.02;
    /// Watermark on the per-epoch p99 epoch-boundary gap (kFull telemetry
    /// only — the histogram is empty at kCounters). 0 disables the signal.
    uint64_t epoch_gap_watermark_ns = 0;
    /// Floor on the overall shed target. Every raw relation always sheds at
    /// least this fraction, watermarks or not — the deterministic knob
    /// replay harnesses use to pin a known overload factor
    /// (engine_monitor --overload F sets it to 1 - 1/F).
    double min_shed_fraction = 0.0;
    /// Ceiling on any relation's shed fraction; the engine never sheds
    /// everything.
    double max_shed_fraction = 0.9;
    /// How much the overall shed target widens (narrows) per sustained
    /// overload (relief) verdict.
    double shed_step = 0.25;
    /// Consecutive over-watermark epochs required before shedding widens;
    /// mirrors AdaptiveController::Options::trend_epochs.
    int trend_epochs = 2;
    /// Tolerated epoch-over-epoch pressure shrink within a sustained trend
    /// (SustainedTrend's slack): a plateau keeps triggering, a decaying
    /// spike does not.
    double widening_slack = 0.25;
  };

  /// What one raw relation's probe is worth: shedding a record there saves
  /// `cycles_per_record` (Eq 7, credited to the root's whole feeding tree)
  /// and degrades `accuracy_weight` of the query surface (query tables in
  /// the tree / all query tables).
  struct RelationPrice {
    int raw_index = 0;     ///< Raw-relation order (runtime's shed indices).
    int node = 0;          ///< Configuration node of the root.
    std::string relation;  ///< Schema-formatted attribute set.
    double cycles_per_record = 0.0;
    double accuracy_weight = 0.0;

    bool operator==(const RelationPrice&) const = default;
  };

  /// Rejects out-of-range knobs, NaN included; messages name the field and
  /// the value it held ("Options::overload.<field> must be ... (got <value>)").
  static Status ValidateOptions(const Options& options);

  explicit OverloadController(Options options);

  const Options& options() const { return options_; }

  /// (Re)prices every raw relation for a freshly installed plan. Prices
  /// line up with the runtime's raw-relation order (ToRuntimeSpecs
  /// preserves configuration node order). Rebuilds the shed plan at the
  /// current target so a plan swap keeps the shed floor in force. A null
  /// `cost_model` (pinned plans without catalog statistics) falls back to
  /// uniform pricing — the floor and trend logic still work, only the
  /// which-relation preference degrades to accuracy weight alone.
  void PriceRelations(const CostModel* cost_model, const OptimizedPlan& plan,
                      const Schema& schema);
  const std::vector<RelationPrice>& prices() const { return prices_; }

  /// Pressure of the epoch `cur` closes, as a ratio of the worst signal to
  /// its watermark (>= 1 means over). `prev` is the preceding snapshot
  /// (nullptr for the first: deltas start from a zero baseline).
  double EpochPressure(const TelemetrySnapshot* prev,
                       const TelemetrySnapshot& cur) const;

  /// Re-judges the shed target against the snapshot history and rebuilds
  /// the plan. Returns true when the plan changed (the caller should
  /// SetShedPlan it into the runtime).
  bool UpdateShedPlan(std::span<const TelemetrySnapshot> history);

  /// Current overall shed target in [min_shed_fraction, max_shed_fraction].
  double target_fraction() const { return target_fraction_; }
  const ShedPlan& shed_plan() const { return plan_; }
  /// Estimated fraction of the query surface degraded by the current plan:
  /// sum over relations of shed_fraction * accuracy_weight.
  double accuracy_loss() const;
  /// Eq-7 cycles the current plan saves per offered record.
  double cycles_saved_per_record() const;

 private:
  /// Greedy allocation of `fraction` of the total per-record cost across
  /// relations, cheapest accuracy per saved cycle first, every relation
  /// floored at min_shed_fraction and capped at max_shed_fraction.
  ShedPlan BuildPlan(double fraction) const;

  Options options_;
  std::vector<RelationPrice> prices_;
  double target_fraction_ = 0.0;
  ShedPlan plan_;
};

}  // namespace streamagg

#endif  // STREAMAGG_DSMS_OVERLOAD_CONTROLLER_H_
