#include "core/adaptive.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace streamagg {

namespace {

/// One table's per-epoch observation, recovered from a snapshot delta.
struct EpochObservation {
  bool valid = false;  ///< Enough probes this epoch and a model prediction.
  double drift = 0.0;
  double deviation = 0.0;
};

/// True when `next` can be read as "one more epoch of the same plan" after
/// `prev`: same table list, lifetime tallies non-decreasing. A runtime swap
/// resets the tallies (and usually the table list), which reads as a break —
/// exactly right, since a fresh plan must build its own trend from scratch.
bool SnapshotsContinuous(const TelemetrySnapshot& prev,
                         const TelemetrySnapshot& next) {
  if (prev.tables.size() != next.tables.size()) return false;
  for (size_t t = 0; t < next.tables.size(); ++t) {
    const TableTelemetry& a = prev.tables[t];
    const TableTelemetry& b = next.tables[t];
    if (a.relation != b.relation) return false;
    if (b.probes < a.probes || b.collisions < a.collisions) return false;
  }
  return true;
}

}  // namespace

bool SustainedTrend(std::span<const double> window, double floor,
                    double slack) {
  if (window.empty()) return false;
  for (size_t w = 0; w < window.size(); ++w) {
    if (window[w] < floor) return false;
    if (w > 0 && window[w] < window[w - 1] * (1.0 - slack)) return false;
  }
  return true;
}

AdaptiveController::AdaptiveController(const CostModel* cost_model,
                                       const OptimizedPlan* plan,
                                       Options options)
    : cost_model_(cost_model), options_(options) {
  planned_rates_ = cost_model_->CollisionRates(plan->config, plan->buckets);
}

AdaptiveController::AdaptiveController(const CostModel* cost_model,
                                       const OptimizedPlan* plan)
    : AdaptiveController(cost_model, plan, Options()) {}

double AdaptiveController::MaxDeviation(
    const ConfigurationRuntime& runtime) const {
  double max_deviation = 0.0;
  const int n = std::min<int>(runtime.num_relations(),
                              static_cast<int>(planned_rates_.size()));
  for (int i = 0; i < n; ++i) {
    const LftaHashTable& table = runtime.table(i);
    if (table.probes() < options_.min_probes_per_table) continue;
    const double measured = table.CollisionRate();
    const double planned = planned_rates_[i];
    const double gap = measured - planned;  // Upward drift only.
    if (gap < options_.absolute_floor) continue;
    const double deviation = gap / std::max(planned, options_.absolute_floor);
    max_deviation = std::max(max_deviation, deviation);
  }
  return max_deviation;
}

bool AdaptiveController::ShouldReoptimize(
    const ConfigurationRuntime& runtime) const {
  return MaxDeviation(runtime) > options_.deviation_threshold;
}

AdaptiveController::TrendVerdict AdaptiveController::AssessTrend(
    std::span<const TelemetrySnapshot> history) const {
  TrendVerdict verdict;
  const size_t n = history.size();
  const size_t k = static_cast<size_t>(std::max(1, options_.trend_epochs));
  if (n == 0) return verdict;
  // The trend window only makes sense over one plan's run: walk back from
  // the latest snapshot while consecutive snapshots are continuous. The
  // run's first snapshot still yields an epoch observation (against a zero
  // baseline — its runtime started with empty tallies).
  size_t run_start = n - 1;
  while (run_start > 0 &&
         SnapshotsContinuous(history[run_start - 1], history[run_start])) {
    --run_start;
  }
  if (n - run_start < k) return verdict;  // Not enough epochs under this plan.

  const TelemetrySnapshot& latest = history[n - 1];
  for (size_t t = 0; t < latest.tables.size(); ++t) {
    // Recover the last k per-epoch observations for this table from the
    // lifetime-tally deltas of consecutive snapshots.
    std::vector<EpochObservation> window(k);
    for (size_t w = 0; w < k; ++w) {
      const size_t j = n - k + w;
      const TableTelemetry& cur = history[j].tables[t];
      uint64_t epoch_probes = cur.probes;
      uint64_t epoch_collisions = cur.collisions;
      if (j > run_start) {
        const TableTelemetry& prev = history[j - 1].tables[t];
        epoch_probes -= prev.probes;
        epoch_collisions -= prev.collisions;
      }
      EpochObservation& obs = window[w];
      if (!cur.has_prediction() ||
          epoch_probes < options_.min_probes_per_table) {
        continue;  // obs stays invalid.
      }
      const double rate = static_cast<double>(epoch_collisions) /
                          static_cast<double>(epoch_probes);
      const double planned = cur.predicted_collision_rate;
      obs.drift = rate - planned;
      obs.deviation =
          obs.drift / std::max(planned, options_.absolute_floor);
      obs.valid = true;
    }
    // Sustained trend: every epoch in the window beyond both thresholds,
    // and never shrinking by more than the slack — a plateau at the new
    // level keeps triggering, a decaying spike does not. Epochs that are
    // invalid or below the deviation threshold encode as -infinity, which
    // SustainedTrend can never accept.
    std::vector<double> drifts(k);
    for (size_t w = 0; w < k; ++w) {
      const EpochObservation& obs = window[w];
      drifts[w] = obs.valid && obs.deviation > options_.deviation_threshold
                      ? obs.drift
                      : -std::numeric_limits<double>::infinity();
    }
    if (!SustainedTrend(drifts, options_.absolute_floor,
                        options_.widening_slack)) {
      continue;
    }
    verdict.drifted_tables.push_back(static_cast<int>(t));
    const EpochObservation& last = window[k - 1];
    if (last.deviation > verdict.max_deviation || verdict.max_table < 0) {
      verdict.max_deviation = last.deviation;
      verdict.max_drift = last.drift;
      verdict.max_table = static_cast<int>(t);
    }
  }
  verdict.should_replan = !verdict.drifted_tables.empty();
  return verdict;
}

double AdaptiveController::InvertOccupancy(double occupied, double buckets) {
  if (occupied <= 0.0) return 0.0;
  if (buckets < 2.0) return occupied;
  if (occupied >= buckets - 0.5) {
    // Saturated table: occupancy can no longer resolve g; report a lower
    // bound of ~3b (occupancy reaches ~95% of b there).
    return 3.0 * buckets;
  }
  return std::log1p(-occupied / buckets) / std::log1p(-1.0 / buckets);
}

std::map<uint32_t, uint64_t> AdaptiveController::EstimateGroupCounts(
    const ShardedRuntime& runtime) const {
  std::map<uint32_t, uint64_t> estimates;
  const ConfigurationRuntime& first = runtime.shard(0);
  for (int i = 0; i < first.num_relations(); ++i) {
    // Each shard sees a disjoint slice of the root groups (hash
    // partitioning), so per-shard inversions add; child-table entries can
    // straddle shards, where the sum over-counts slightly — fine for
    // planning statistics.
    double g = 0.0;
    for (int s = 0; s < runtime.num_shards(); ++s) {
      const LftaHashTable& table = runtime.shard(s).table(i);
      g += InvertOccupancy(static_cast<double>(table.occupied_buckets()),
                           static_cast<double>(table.num_buckets()));
    }
    if (g <= 0.0) continue;  // Cold table: no signal, keep prior statistics.
    estimates[first.spec(i).attrs.mask()] =
        std::max<uint64_t>(1, static_cast<uint64_t>(std::llround(g)));
  }
  return estimates;
}

}  // namespace streamagg
