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

std::vector<ProbeMode> AdaptiveController::DecideProbeModes(
    std::span<const TelemetrySnapshot> history) const {
  std::vector<ProbeMode> modes;
  if (history.empty()) return modes;
  const size_t n = history.size();
  const TelemetrySnapshot& latest = history[n - 1];
  // Start from each root's current mode; anything below may flip it.
  std::vector<size_t> root_tables;
  for (size_t t = 0; t < latest.tables.size(); ++t) {
    if (latest.tables[t].parent >= 0) continue;
    root_tables.push_back(t);
    modes.push_back(latest.tables[t].probe_mode != 0 ? ProbeMode::kSort
                                                     : ProbeMode::kHash);
  }
  // Collision rates cannot exceed 1.0, so a threshold above that means
  // mode switching is disabled: hand back the current modes untouched.
  if (options_.sort_enter_collision_rate > 1.0) return modes;
  const size_t k = static_cast<size_t>(std::max(1, options_.trend_epochs));
  size_t run_start = n - 1;
  while (run_start > 0 &&
         SnapshotsContinuous(history[run_start - 1], history[run_start])) {
    --run_start;
  }
  if (n - run_start < k) return modes;  // Not enough epochs under this plan.
  for (size_t r = 0; r < root_tables.size(); ++r) {
    const size_t t = root_tables[r];
    const TableTelemetry& cur = latest.tables[t];
    const double buckets = static_cast<double>(cur.num_buckets);
    if (modes[r] == ProbeMode::kHash) {
      // Enter sort when the last k per-epoch collision rates sustained the
      // threshold *and* the table sits saturated — groups >> buckets is the
      // regime where a run's dedup factor beats the hash thrash. The same
      // trend rule as AssessTrend: under-probed epochs encode as -infinity
      // and can never sustain.
      std::vector<double> rates(k);
      for (size_t w = 0; w < k; ++w) {
        const size_t j = n - k + w;
        const TableTelemetry& at = history[j].tables[t];
        uint64_t probes = at.probes;
        uint64_t collisions = at.collisions;
        if (j > run_start) {
          probes -= history[j - 1].tables[t].probes;
          collisions -= history[j - 1].tables[t].collisions;
        }
        rates[w] = probes >= options_.min_probes_per_table
                       ? static_cast<double>(collisions) /
                             static_cast<double>(probes)
                       : -std::numeric_limits<double>::infinity();
      }
      const bool saturated =
          static_cast<double>(cur.occupied) >= buckets - 0.5;
      if (saturated &&
          SustainedTrend(rates, options_.sort_enter_collision_rate,
                         options_.widening_slack)) {
        modes[r] = ProbeMode::kSort;
      }
    } else {
      // Exit sort once the average distinct groups per drain sustained
      // below the exit fraction of the table's buckets: the group universe
      // shrank enough that hashing would rarely collide again. Epochs
      // without a drain carry no signal and keep the mode.
      bool exit_sort = true;
      for (size_t w = 0; w < k; ++w) {
        const size_t j = n - k + w;
        const TableTelemetry& at = history[j].tables[t];
        uint64_t drains = at.sort_drains;
        uint64_t unique = at.sort_unique_groups;
        if (j > run_start) {
          drains -= history[j - 1].tables[t].sort_drains;
          unique -= history[j - 1].tables[t].sort_unique_groups;
        }
        if (drains == 0 ||
            static_cast<double>(unique) / static_cast<double>(drains) >=
                options_.sort_exit_unique_fraction * buckets) {
          exit_sort = false;
          break;
        }
      }
      if (exit_sort) modes[r] = ProbeMode::kHash;
    }
  }
  return modes;
}

AdaptiveController::Options AdaptiveController::AutoTuneTrend(
    Options base, std::span<const TelemetrySnapshot> history) {
  if (history.empty()) return base;
  const LogHistogram& gaps = history[history.size() - 1].epoch_gap_ns;
  if (gaps.count() == 0) return base;
  // The p99/p50 spread of the observed epoch gaps measures cadence jitter,
  // and jitter is exactly what makes single-epoch deltas noisy: epochs that
  // ran long or short see disproportionate probe counts, so their rates
  // wobble. Each doubling of the spread buys one extra confirming epoch and
  // 5 extra points of shrink tolerance.
  const double p50 =
      static_cast<double>(std::max<uint64_t>(1, gaps.Quantile(0.5)));
  const double p99 = static_cast<double>(gaps.Quantile(0.99));
  const double spread = std::max(1.0, p99 / p50);
  const double doublings = std::log2(spread);
  base.trend_epochs =
      std::clamp(2 + static_cast<int>(std::floor(doublings)), 2, 6);
  base.widening_slack = std::min(0.5, 0.25 + 0.05 * doublings);
  return base;
}

double AdaptiveController::InvertUniqueCount(double unique,
                                             double run_length) {
  if (unique <= 0.0) return 0.0;
  if (run_length < 2.0) return unique;
  if (unique >= run_length - 0.5) {
    // Every record distinct: the run can no longer resolve g; report a
    // lower bound, mirroring InvertOccupancy's saturated case.
    return 3.0 * run_length;
  }
  // d(g) = g (1 - exp(-L/g)) is monotone increasing in g with d < L, so
  // bracket by doubling and bisect. ~90 deterministic iterations, only run
  // at re-plan boundaries.
  const auto expected = [run_length](double g) {
    return g * (1.0 - std::exp(-run_length / g));
  };
  double lo = unique;  // d(g) < g, so the root is at or above `unique`.
  double hi = lo;
  for (int i = 0; i < 64 && expected(hi) < unique; ++i) hi *= 2.0;
  for (int i = 0; i < 64; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (expected(mid) < unique) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
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

namespace {

/// One table's group estimate: sort-mode tables that have drained a run
/// estimate from the average distinct-per-drain (their hash occupancy
/// carries no signal), everything else inverts occupancy.
double EstimateTableGroups(const LftaHashTable& table) {
  if (table.probe_mode() == ProbeMode::kSort && table.sort_drains() > 0) {
    const double drains = static_cast<double>(table.sort_drains());
    return AdaptiveController::InvertUniqueCount(
        static_cast<double>(table.sort_unique_groups()) / drains,
        static_cast<double>(table.sort_drained_entries()) / drains);
  }
  return AdaptiveController::InvertOccupancy(
      static_cast<double>(table.occupied_buckets()),
      static_cast<double>(table.num_buckets()));
}

}  // namespace

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
      g += EstimateTableGroups(runtime.shard(s).table(i));
    }
    if (g <= 0.0) continue;  // Cold table: no signal, keep prior statistics.
    estimates[first.spec(i).attrs.mask()] =
        std::max<uint64_t>(1, static_cast<uint64_t>(std::llround(g)));
  }
  return estimates;
}

}  // namespace streamagg
