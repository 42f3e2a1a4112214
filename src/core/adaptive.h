#ifndef STREAMAGG_CORE_ADAPTIVE_H_
#define STREAMAGG_CORE_ADAPTIVE_H_

#include <map>
#include <span>
#include <vector>

#include "core/optimizer.h"
#include "dsms/configuration_runtime.h"
#include "dsms/sharded_runtime.h"
#include "obs/telemetry.h"

namespace streamagg {

/// The shared K-epoch trend rule (AdaptiveController::AssessTrend and the
/// overload controller — docs/overload.md): true when every value in
/// `window` clears `floor` and never shrinks epoch-over-epoch by more than
/// `slack` (as a fraction of the previous value) — a plateau at the new
/// level sustains, a decaying one-off spike does not. An empty window never
/// sustains. Callers encode disqualified epochs (too few probes, below a
/// secondary threshold) as -infinity.
bool SustainedTrend(std::span<const double> window, double floor,
                    double slack);

/// Drift detection and statistics re-estimation for adaptive
/// re-optimization — the system-level question the paper raises in its
/// conclusions ("issues related to adaptivity and frequency of execution").
///
/// The controller compares the collision rates each table actually exhibits
/// against the rates the optimizer assumed when it produced the plan. When
/// the data distribution shifts (group counts grow or shrink, clusteredness
/// changes), measured rates leave the assumed band and the controller
/// recommends re-optimization; fresh group-count estimates are recovered
/// from table occupancy without storing the stream.
///
/// Two trigger modes coexist:
///  * ShouldReoptimize(runtime) — the original single-observation check
///    against lifetime collision rates. Simple, but a one-epoch noise burst
///    can trip it.
///  * AssessTrend(history) — the telemetry-driven check: per-epoch collision
///    rates are recovered from consecutive TelemetrySnapshot deltas and a
///    re-plan is recommended only after `trend_epochs` consecutive epochs of
///    sustained (non-shrinking) drift beyond the thresholds. The verdict
///    names the drifted tables so the engine can re-plan just their feeding
///    trees (Optimizer::ReplanSubtrees). See docs/runtime.md §4.
class AdaptiveController {
 public:
  struct Options {
    /// Relative deviation of measured vs planned collision rate that
    /// triggers re-optimization (e.g. 0.5 = 50% off), with an absolute
    /// floor so near-zero planned rates do not trigger on noise.
    double deviation_threshold = 0.5;
    double absolute_floor = 0.05;
    /// Checks are meaningless before the tables have seen real traffic.
    /// AssessTrend applies it per epoch (to the probe delta between
    /// consecutive snapshots), ShouldReoptimize to lifetime probes.
    uint64_t min_probes_per_table = 1000;
    /// Consecutive epochs a table must stay beyond the thresholds before
    /// AssessTrend recommends a re-plan (K of the trend rule). 2 by
    /// default: one epoch raises suspicion, the next confirms it — a
    /// single-epoch noise burst can never trigger. Raise it for streams
    /// with longer transient bursts.
    int trend_epochs = 2;
    /// Within the K-epoch window, each epoch's drift may shrink by at most
    /// this fraction of the previous epoch's and still count as sustained:
    /// a post-shift plateau (drift flat at the new level) triggers, while a
    /// decaying one-off spike does not.
    double widening_slack = 0.25;
  };

  /// Per-table outcome of one trend assessment (see AssessTrend).
  struct TrendVerdict {
    bool should_replan = false;
    /// Tables whose drift sustained the full trend window, as indices into
    /// the latest snapshot's `tables` — which line up with the plan's
    /// configuration nodes (Configuration::ToRuntimeSpecs preserves order).
    std::vector<int> drifted_tables;
    /// Largest latest-epoch relative deviation among the drifted tables,
    /// and the table it came from (-1 when none).
    double max_deviation = 0.0;
    double max_drift = 0.0;  ///< Its absolute observed - predicted gap.
    int max_table = -1;
  };

  /// Captures the plan's assumptions. `cost_model` supplies the collision
  /// model the plan was built with; not owned.
  AdaptiveController(const CostModel* cost_model, const OptimizedPlan* plan,
                     Options options);
  /// Default options.
  AdaptiveController(const CostModel* cost_model, const OptimizedPlan* plan);

  /// The collision rates the plan assumed, per relation node.
  const std::vector<double>& planned_rates() const { return planned_rates_; }

  /// True when any sufficiently-probed table's measured collision rate
  /// *exceeds* the planned rate beyond the threshold. Only upward drift
  /// triggers: rates above plan mean the chosen configuration is paying
  /// more than budgeted, while rates below plan cost nothing extra and are
  /// also what cold (still-filling) tables exhibit.
  bool ShouldReoptimize(const ConfigurationRuntime& runtime) const;

  /// Largest relative upward deviation across sufficiently-probed tables
  /// (0 when none qualify or all rates are at/below plan).
  double MaxDeviation(const ConfigurationRuntime& runtime) const;

  /// Judges the epoch-snapshot history (oldest first, as kept by
  /// StreamAggEngine::telemetry_history()) for a sustained drift trend.
  /// Per-epoch collision rates come from consecutive-snapshot deltas of the
  /// lifetime probe/collision tallies; the first snapshot of a run counts
  /// as one epoch against a zero baseline. A table recommends a re-plan
  /// only when its last `trend_epochs` epochs each cleared the
  /// absolute-floor and deviation thresholds with enough probes, and the
  /// drift never shrank by more than `widening_slack` epoch over epoch.
  /// Snapshots from different plans (table lists disagree, or tallies went
  /// backwards after a swap) break the run, so a fresh plan always starts
  /// its trend from scratch. Tables without a prediction never trigger.
  TrendVerdict AssessTrend(
      std::span<const TelemetrySnapshot> history) const;

  /// Inverts the expected-occupancy map of a table: after g distinct groups
  /// the expected number of occupied buckets is b (1 - (1 - 1/b)^g), so
  ///   g = log(1 - occ/b) / log(1 - 1/b).
  /// Cold tables (occ <= 0) report 0; a saturated table (occ within half a
  /// bucket of b) can no longer resolve g and reports the ~3b lower bound
  /// (occupancy reaches ~95% of b there); degenerate b < 2 reports occ.
  static double InvertOccupancy(double occupied, double buckets);

  /// Estimates the current number of groups of every *instantiated*
  /// relation from its table occupancy via InvertOccupancy. Keys are
  /// AttributeSet masks; merge with prior statistics to rebuild a catalog
  /// for re-optimization (no stream storage required). Per-shard
  /// inversions of a relation sum. Caller must hold the quiescence contract
  /// (between barriers), and the tables must be pre-flush
  /// (ShardedRuntime::Quiesce, not FlushEpoch): the end-of-epoch flush
  /// empties every table.
  std::map<uint32_t, uint64_t> EstimateGroupCounts(
      const ShardedRuntime& runtime) const;

 private:
  const CostModel* cost_model_;
  Options options_;
  std::vector<double> planned_rates_;
};

}  // namespace streamagg

#endif  // STREAMAGG_CORE_ADAPTIVE_H_
