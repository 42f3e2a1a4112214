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
    /// Per-epoch collision rate at which DecideProbeModes flips a saturated
    /// raw table from hash to sort-drain mode (docs/probe_kernel.md §3),
    /// sustained over `trend_epochs`. Rates cannot exceed 1.0, so the
    /// default 2.0 disables mode switching entirely — existing adaptive
    /// behavior is untouched unless a deployment opts in (the engine only
    /// consults DecideProbeModes when this is <= 1.0).
    double sort_enter_collision_rate = 2.0;
    /// Sort mode exits once the average distinct groups per run drain fall
    /// below this fraction of the table's buckets (sustained over
    /// `trend_epochs`): the group universe shrank enough that hashing would
    /// collide rarely again.
    double sort_exit_unique_fraction = 0.25;
    /// When true the engine re-derives trend_epochs / widening_slack each
    /// boundary from the observed epoch-cadence spread via AutoTuneTrend
    /// instead of using the fixed values above.
    bool auto_tune_trend = false;
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

  /// Chooses hash vs. sort-drain per *raw* table from the same snapshot
  /// history AssessTrend reads (docs/probe_kernel.md §3). Returns one mode
  /// per root table of the latest snapshot (parent < 0), in snapshot order —
  /// which is the runtime's raw-relation order — ready to hand to
  /// SetProbeModes. Starting point is each root's current mode
  /// (`probe_mode` in the latest snapshot); a hash table flips to sort when
  /// its per-epoch collision rate sustained `sort_enter_collision_rate`
  /// across `trend_epochs` epochs *and* it sits saturated (occupied within
  /// half a bucket of its size); a sort table flips back once its average
  /// distinct-groups-per-drain sustained below `sort_exit_unique_fraction`
  /// of its buckets. With the default (disabled) enter threshold the input
  /// modes are returned unchanged. Empty when the history is empty.
  std::vector<ProbeMode> DecideProbeModes(
      std::span<const TelemetrySnapshot> history) const;

  /// Re-derives the trend cadence knobs from observed epoch timing instead
  /// of fixed constants: the spread of the latest snapshot's epoch_gap_ns
  /// histogram (p99 upper bound over p50 upper bound) measures how jittery
  /// the epoch cadence is, and jitter is exactly what makes single-epoch
  /// deltas noisy. trend_epochs = clamp(2 + floor(log2(spread)), 2, 6) and
  /// widening_slack = min(0.5, 0.25 + 0.05 * log2(spread)): a stable
  /// cadence (spread ~1) reproduces the fixed defaults (2 epochs, 0.25
  /// slack), while a 4x spread demands two extra confirming epochs and
  /// tolerates 10 extra points of shrink. `base` is returned unchanged when
  /// the history or histogram is empty. Pure function of its inputs.
  static Options AutoTuneTrend(Options base,
                               std::span<const TelemetrySnapshot> history);

  /// Inverts the expected-occupancy map of a table: after g distinct groups
  /// the expected number of occupied buckets is b (1 - (1 - 1/b)^g), so
  ///   g = log(1 - occ/b) / log(1 - 1/b).
  /// Cold tables (occ <= 0) report 0; a saturated table (occ within half a
  /// bucket of b) can no longer resolve g and reports the ~3b lower bound
  /// (occupancy reaches ~95% of b there); degenerate b < 2 reports occ.
  static double InvertOccupancy(double occupied, double buckets);

  /// Inverts the expected-distinct-count map of a sort run: a run of
  /// `run_length` records over g groups holds
  ///   d = g (1 - exp(-run_length / g))
  /// distinct groups in expectation, solved for g by bracketed bisection
  /// (d is monotone in g). This is how group counts are recovered for
  /// sort-mode tables, whose hash occupancy is meaningless. unique <= 0
  /// reports 0; unique within half a group of run_length (every record
  /// distinct — the run can no longer resolve g) reports the ~3*run_length
  /// lower bound, mirroring InvertOccupancy's saturated case.
  static double InvertUniqueCount(double unique, double run_length);

  /// Estimates the current number of groups of every *instantiated*
  /// relation from its table occupancy via InvertOccupancy — or, for a
  /// sort-mode table that has drained at least one run (its hash occupancy
  /// carries no signal), from its average distinct-groups-per-drain via
  /// InvertUniqueCount. Keys are AttributeSet masks; merge with prior
  /// statistics to rebuild a catalog for re-optimization (no stream storage
  /// required). Per-shard inversions of a relation sum. Caller must hold
  /// the quiescence contract (between barriers), and the tables must be
  /// pre-flush (ShardedRuntime::Quiesce, not FlushEpoch): the end-of-epoch
  /// flush empties every table.
  std::map<uint32_t, uint64_t> EstimateGroupCounts(
      const ShardedRuntime& runtime) const;

 private:
  const CostModel* cost_model_;
  Options options_;
  std::vector<double> planned_rates_;
};

}  // namespace streamagg

#endif  // STREAMAGG_CORE_ADAPTIVE_H_
