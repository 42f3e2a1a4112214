#include "core/adaptive.h"

#include <gtest/gtest.h>

#include <cmath>
#include <span>

#include "stream/trace_stats.h"
#include "stream/uniform_generator.h"

namespace streamagg {
namespace {

struct Scenario {
  Trace trace;
  RelationCatalog catalog;
  OptimizedPlan plan;
};

// Optimizes for a stream with `groups` groups and returns everything needed
// to run and monitor it.
Scenario MakeScenario(uint64_t groups, uint64_t seed) {
  const Schema schema = *Schema::Default(4);
  auto gen = std::move(UniformGenerator::Make(schema, groups, seed)).value();
  Trace trace = Trace::Generate(*gen, 120000, 10.0);
  auto stats = std::make_unique<TraceStats>(&trace);
  // Materialize counts into a synthetic catalog so the Scenario owns its
  // statistics (TraceStats would dangle once `trace` moves).
  std::map<uint32_t, uint64_t> counts;
  for (uint32_t mask = 1; mask < 16; ++mask) {
    counts[mask] = stats->GroupCount(AttributeSet(mask));
  }
  RelationCatalog catalog = *RelationCatalog::Synthetic(schema, counts);
  Optimizer optimizer;
  std::vector<AttributeSet> queries;
  for (int i = 0; i < 4; ++i) queries.push_back(AttributeSet::Single(i));
  OptimizedPlan plan = *optimizer.Optimize(catalog, queries, 30000.0);
  return Scenario{std::move(trace), std::move(catalog), std::move(plan)};
}

TEST(AdaptiveControllerTest, SteadyTrafficDoesNotTrigger) {
  Scenario s = MakeScenario(1000, 71);
  PreciseCollisionModel precise;
  CostModel cost_model(&s.catalog, &precise, CostParams{1.0, 50.0});
  AdaptiveController controller(&cost_model, &s.plan);

  auto runtime = ConfigurationRuntime::Make(
      s.trace.schema(), *s.plan.ToRuntimeSpecs(), 0.0);
  ASSERT_TRUE(runtime.ok());
  (*runtime)->ProcessTrace(s.trace);
  EXPECT_FALSE(controller.ShouldReoptimize(**runtime))
      << "max deviation " << controller.MaxDeviation(**runtime);
}

TEST(AdaptiveControllerTest, DistributionShiftTriggers) {
  // Plan for 600 groups, then run traffic with 6000: collision rates blow
  // past the planned band.
  Scenario planned = MakeScenario(600, 73);
  PreciseCollisionModel precise;
  CostModel cost_model(&planned.catalog, &precise, CostParams{1.0, 50.0});
  AdaptiveController controller(&cost_model, &planned.plan);

  const Schema schema = *Schema::Default(4);
  auto shifted_gen =
      std::move(UniformGenerator::Make(schema, 6000, 99)).value();
  const Trace shifted = Trace::Generate(*shifted_gen, 120000, 10.0);
  auto runtime =
      ConfigurationRuntime::Make(schema, *planned.plan.ToRuntimeSpecs(), 0.0);
  ASSERT_TRUE(runtime.ok());
  (*runtime)->ProcessTrace(shifted);
  EXPECT_TRUE(controller.ShouldReoptimize(**runtime));
  EXPECT_GT(controller.MaxDeviation(**runtime), 0.5);
}

TEST(AdaptiveControllerTest, IgnoresBarelyProbedTables) {
  Scenario s = MakeScenario(1000, 77);
  PreciseCollisionModel precise;
  CostModel cost_model(&s.catalog, &precise, CostParams{1.0, 50.0});
  AdaptiveController::Options options;
  options.min_probes_per_table = 1000000;  // Nothing qualifies.
  AdaptiveController controller(&cost_model, &s.plan, options);
  auto runtime = ConfigurationRuntime::Make(
      s.trace.schema(), *s.plan.ToRuntimeSpecs(), 0.0);
  ASSERT_TRUE(runtime.ok());
  (*runtime)->ProcessTrace(s.trace);
  EXPECT_DOUBLE_EQ(controller.MaxDeviation(**runtime), 0.0);
  EXPECT_FALSE(controller.ShouldReoptimize(**runtime));
}

TEST(AdaptiveControllerTest, OccupancyRecoversGroupCounts) {
  Scenario s = MakeScenario(1200, 79);
  PreciseCollisionModel precise;
  CostModel cost_model(&s.catalog, &precise, CostParams{1.0, 50.0});
  AdaptiveController controller(&cost_model, &s.plan);
  // A 1x1 runtime runs inline, so its tables are readable without a barrier.
  auto runtime = ShardedRuntime::Make(s.trace.schema(),
                                      *s.plan.ToRuntimeSpecs(), 0.0, {});
  ASSERT_TRUE(runtime.ok());
  // Occupancy is only meaningful mid-epoch (the end-of-epoch flush empties
  // every table), so feed records without the final flush.
  for (const Record& r : s.trace.records()) (*runtime)->ProcessRecord(r);

  const auto estimates = controller.EstimateGroupCounts(**runtime);
  ASSERT_FALSE(estimates.empty());
  for (const auto& [mask, estimated] : estimates) {
    const uint64_t actual = s.catalog.GroupCount(AttributeSet(mask));
    const int node = s.plan.config.FindNode(AttributeSet(mask));
    ASSERT_GE(node, 0);
    const double b = s.plan.buckets[node];
    if (static_cast<double>(actual) > 2.5 * b) {
      // Saturated table: only a lower bound is recoverable.
      EXPECT_GE(estimated, static_cast<uint64_t>(2.0 * b));
    } else {
      EXPECT_NEAR(static_cast<double>(estimated),
                  static_cast<double>(actual), 0.25 * actual + 20.0)
          << AttributeSet(mask).ToString();
    }
  }
}

// ---------------------------------------------------------------------------
// Occupancy-inversion property: g = log(1 - occ/b) / log(1 - 1/b) must
// recover the group count that produced the expected occupancy
// occ = b (1 - (1 - 1/b)^g), across bucket counts and loads.

TEST(AdaptiveControllerTest, InvertOccupancyRecoversKnownGroupCounts) {
  for (const double b : {64.0, 256.0, 1024.0, 8192.0}) {
    for (const double g :
         {1.0, b / 8.0, b / 2.0, b, 2.0 * b, 4.0 * b}) {
      const double occ = b * (1.0 - std::pow(1.0 - 1.0 / b, g));
      const double estimated = AdaptiveController::InvertOccupancy(occ, b);
      if (occ >= b - 0.5) {
        // Past ~95% occupancy the map is no longer invertible: the lower
        // bound takes over.
        EXPECT_DOUBLE_EQ(estimated, 3.0 * b) << "b=" << b << " g=" << g;
      } else {
        // Exact expected occupancy inverts back exactly (up to fp error).
        EXPECT_NEAR(estimated, g, 1e-6 * g + 1e-6)
            << "b=" << b << " g=" << g;
      }
    }
  }
}

TEST(AdaptiveControllerTest, InvertOccupancyToleratesIntegerOccupancy) {
  // Real tables report whole occupied buckets; rounding the occupancy must
  // not move the estimate by more than a few percent.
  for (const double b : {256.0, 1024.0, 8192.0}) {
    for (const double g : {b / 4.0, b, 2.0 * b}) {
      const double occ =
          std::round(b * (1.0 - std::pow(1.0 - 1.0 / b, g)));
      const double estimated = AdaptiveController::InvertOccupancy(occ, b);
      EXPECT_NEAR(estimated, g, 0.05 * g + 2.0) << "b=" << b << " g=" << g;
    }
  }
}

TEST(AdaptiveControllerTest, InvertOccupancyEdgeCases) {
  // Cold tables carry no signal.
  EXPECT_DOUBLE_EQ(AdaptiveController::InvertOccupancy(0.0, 1024.0), 0.0);
  EXPECT_DOUBLE_EQ(AdaptiveController::InvertOccupancy(-3.0, 1024.0), 0.0);
  // Saturated tables report the ~3b lower bound, including exactly at the
  // cutoff and at full occupancy.
  EXPECT_DOUBLE_EQ(AdaptiveController::InvertOccupancy(1023.5, 1024.0),
                   3072.0);
  EXPECT_DOUBLE_EQ(AdaptiveController::InvertOccupancy(1024.0, 1024.0),
                   3072.0);
  // Just below the cutoff the inversion is finite and far above b.
  const double near_full =
      AdaptiveController::InvertOccupancy(1023.0, 1024.0);
  EXPECT_TRUE(std::isfinite(near_full));
  EXPECT_GT(near_full, 2.0 * 1024.0);
  // Degenerate single-bucket tables fall back to the occupancy itself.
  EXPECT_DOUBLE_EQ(AdaptiveController::InvertOccupancy(1.0, 1.0), 1.0);
}

// ---------------------------------------------------------------------------
// Trend-vs-threshold: AssessTrend judges synthetic snapshot histories. Only
// the fields the trend check reads matter: per-table lifetime
// probe/collision tallies and the model prediction.

/// Appends "one more epoch" with the given per-epoch collision rate to a
/// cumulative history (10000 probes per epoch, prediction fixed at 0.1).
void AppendEpoch(std::vector<TelemetrySnapshot>* history, double rate) {
  constexpr uint64_t kEpochProbes = 10000;
  TelemetrySnapshot snap;
  if (!history->empty()) snap = history->back();
  snap.epoch = history->size();
  if (snap.tables.empty()) {
    TableTelemetry table;
    table.relation = "AB";
    table.num_buckets = 1024;
    table.predicted_collision_rate = 0.1;
    snap.tables.push_back(table);
  }
  TableTelemetry& table = snap.tables[0];
  table.probes += kEpochProbes;
  table.collisions += static_cast<uint64_t>(rate * kEpochProbes);
  table.observed_collision_rate =
      static_cast<double>(table.collisions) /
      static_cast<double>(table.probes);
  history->push_back(std::move(snap));
}

/// A controller whose AssessTrend options are the defaults (K = 2). The
/// trend check reads predictions off the snapshots, so any plan works for
/// construction.
struct TrendFixture {
  Scenario scenario = MakeScenario(1000, 83);
  PreciseCollisionModel precise;
  CostModel cost_model{&scenario.catalog, &precise, CostParams{1.0, 50.0}};
  AdaptiveController controller{&cost_model, &scenario.plan};
};

TEST(AdaptiveControllerTest, TrendSingleEpochSpikeDoesNotTrigger) {
  TrendFixture f;
  std::vector<TelemetrySnapshot> history;
  AppendEpoch(&history, 0.1);  // On plan.
  AppendEpoch(&history, 0.1);
  AppendEpoch(&history, 0.6);  // One-epoch burst.
  // At the spike, the window still holds a calm epoch.
  EXPECT_FALSE(f.controller.AssessTrend(history).should_replan);
  AppendEpoch(&history, 0.1);  // Burst gone.
  EXPECT_FALSE(f.controller.AssessTrend(history).should_replan);
}

TEST(AdaptiveControllerTest, TrendConsecutiveWideningEpochsTrigger) {
  TrendFixture f;
  std::vector<TelemetrySnapshot> history;
  AppendEpoch(&history, 0.1);
  AppendEpoch(&history, 0.45);  // Drift appears...
  EXPECT_FALSE(f.controller.AssessTrend(history).should_replan)
      << "one drifted epoch must not trigger with trend_epochs = 2";
  AppendEpoch(&history, 0.5);  // ...and widens: sustained.
  const auto verdict = f.controller.AssessTrend(history);
  EXPECT_TRUE(verdict.should_replan);
  ASSERT_EQ(verdict.drifted_tables, std::vector<int>{0});
  EXPECT_EQ(verdict.max_table, 0);
  EXPECT_NEAR(verdict.max_drift, 0.4, 1e-9);
  EXPECT_NEAR(verdict.max_deviation, 4.0, 1e-9);
}

TEST(AdaptiveControllerTest, TrendPlateauTriggersDecaySpikeDoesNot) {
  // A post-shift plateau (drift flat at the new level) is a real shift; a
  // spike already collapsing is not worth a re-plan.
  TrendFixture plateau;
  std::vector<TelemetrySnapshot> flat;
  AppendEpoch(&flat, 0.5);
  AppendEpoch(&flat, 0.48);  // Within the widening slack of 0.5.
  EXPECT_TRUE(plateau.controller.AssessTrend(flat).should_replan);

  TrendFixture decay;
  std::vector<TelemetrySnapshot> shrinking;
  AppendEpoch(&shrinking, 0.5);
  AppendEpoch(&shrinking, 0.3);  // Drift fell 0.4 -> 0.2: collapsing.
  EXPECT_FALSE(decay.controller.AssessTrend(shrinking).should_replan);
}

TEST(AdaptiveControllerTest, TrendRatesBelowPlanNeverTrigger) {
  TrendFixture f;
  std::vector<TelemetrySnapshot> history;
  for (int i = 0; i < 6; ++i) AppendEpoch(&history, 0.02);  // Below 0.1 plan.
  const auto verdict = f.controller.AssessTrend(history);
  EXPECT_FALSE(verdict.should_replan);
  EXPECT_TRUE(verdict.drifted_tables.empty());
  EXPECT_DOUBLE_EQ(verdict.max_deviation, 0.0);
}

TEST(AdaptiveControllerTest, TrendPlanSwapResetsTheWindow) {
  // A runtime swap resets the lifetime tallies; the drifting epochs before
  // the swap must not count toward the new plan's trend.
  TrendFixture f;
  std::vector<TelemetrySnapshot> history;
  AppendEpoch(&history, 0.1);
  AppendEpoch(&history, 0.5);
  AppendEpoch(&history, 0.5);
  EXPECT_TRUE(f.controller.AssessTrend(history).should_replan);
  // Fresh plan: tallies restart from zero — discontinuous with the past.
  TelemetrySnapshot fresh;
  TableTelemetry table;
  table.relation = "AB";
  table.num_buckets = 1024;
  table.predicted_collision_rate = 0.1;
  table.probes = 10000;
  table.collisions = 5000;  // Still high, but only one epoch of evidence.
  table.observed_collision_rate = 0.5;
  fresh.tables.push_back(table);
  fresh.epoch = history.back().epoch + 1;
  history.push_back(fresh);
  EXPECT_FALSE(f.controller.AssessTrend(history).should_replan);
}

TEST(AdaptiveControllerTest, TrendIgnoresThinEpochsAndMissingPredictions) {
  TrendFixture f;
  // Two drifted epochs, but the latest one saw almost no traffic: the
  // per-epoch probe floor keeps it from counting.
  std::vector<TelemetrySnapshot> history;
  AppendEpoch(&history, 0.5);
  TelemetrySnapshot thin = history.back();
  thin.epoch++;
  thin.tables[0].probes += 10;  // Far below min_probes_per_table.
  thin.tables[0].collisions += 8;
  history.push_back(thin);
  EXPECT_FALSE(f.controller.AssessTrend(history).should_replan);

  // Same traffic without a model prediction can never trigger.
  std::vector<TelemetrySnapshot> unpredicted;
  AppendEpoch(&unpredicted, 0.5);
  AppendEpoch(&unpredicted, 0.5);
  for (TelemetrySnapshot& snap : unpredicted) {
    snap.tables[0].predicted_collision_rate = TableTelemetry::kNoPrediction;
  }
  EXPECT_FALSE(f.controller.AssessTrend(unpredicted).should_replan);
}

// ---------------------------------------------------------------------------
// AutoTuneTrend: trend_epochs / widening_slack derived from the observed
// epoch-gap spread. The derivation is pinned here —
// trend_epochs = clamp(2 + floor(log2(p99/p50)), 2, 6) and
// widening_slack = min(0.5, 0.25 + 0.05 * log2(p99/p50)) — so a change to
// the formula has to be a deliberate one.

/// A one-snapshot history whose epoch_gap_ns histogram holds `gaps`.
std::vector<TelemetrySnapshot> GapHistory(std::span<const uint64_t> gaps) {
  TelemetrySnapshot snap;
  for (uint64_t gap : gaps) snap.epoch_gap_ns.Record(gap);
  return {std::move(snap)};
}

TEST(AdaptiveControllerTest, AutoTuneTrendStableCadenceKeepsDefaults) {
  AdaptiveController::Options base;
  base.trend_epochs = 2;
  base.widening_slack = 0.25;
  // All gaps in one histogram bucket: p99 == p50, spread clamps to 1.
  std::vector<uint64_t> gaps(100, 1000000);
  const auto tuned =
      AdaptiveController::AutoTuneTrend(base, GapHistory(gaps));
  EXPECT_EQ(tuned.trend_epochs, 2);
  EXPECT_DOUBLE_EQ(tuned.widening_slack, 0.25);
}

TEST(AdaptiveControllerTest, AutoTuneTrendSpreadBuysConfirmingEpochs) {
  AdaptiveController::Options base;
  // ~4x p99/p50 spread: 90 gaps in the 2^21-bound bucket, 10 in the bucket
  // whose bound clamps to the 2^23 max. LogHistogram buckets are
  // power-of-two ranges, so the bound ratio lands just above an exact power
  // of 2 and the floor in the formula is unambiguous.
  std::vector<uint64_t> gaps(90, 1 << 20);
  gaps.insert(gaps.end(), 10, 1 << 23);
  const auto tuned =
      AdaptiveController::AutoTuneTrend(base, GapHistory(gaps));
  // p50 upper bound 2^21 - 1 vs p99 bound 2^23: two doublings.
  EXPECT_EQ(tuned.trend_epochs, 4);
  EXPECT_NEAR(tuned.widening_slack, 0.35, 0.01);

  // An extreme spread saturates at the clamps.
  std::vector<uint64_t> wild(90, 1024);
  wild.insert(wild.end(), 10, 1ull << 40);
  const auto clamped =
      AdaptiveController::AutoTuneTrend(base, GapHistory(wild));
  EXPECT_EQ(clamped.trend_epochs, 6);
  EXPECT_DOUBLE_EQ(clamped.widening_slack, 0.5);
}

TEST(AdaptiveControllerTest, AutoTuneTrendNoSignalLeavesBaseUntouched) {
  AdaptiveController::Options base;
  base.trend_epochs = 3;
  base.widening_slack = 0.4;
  base.deviation_threshold = 0.7;  // Unrelated knobs must survive verbatim.
  const auto empty_history =
      AdaptiveController::AutoTuneTrend(base, {});
  EXPECT_EQ(empty_history.trend_epochs, 3);
  EXPECT_DOUBLE_EQ(empty_history.widening_slack, 0.4);
  EXPECT_DOUBLE_EQ(empty_history.deviation_threshold, 0.7);
  // A history whose latest snapshot recorded no gaps is no signal either.
  const auto empty_histogram = AdaptiveController::AutoTuneTrend(
      base, GapHistory(std::span<const uint64_t>()));
  EXPECT_EQ(empty_histogram.trend_epochs, 3);
  EXPECT_DOUBLE_EQ(empty_histogram.widening_slack, 0.4);
}

// ---------------------------------------------------------------------------
// DecideProbeModes: hash -> sort on sustained saturated collisions, sort ->
// hash once drains dedup far below the bucket count. Histories are
// synthetic, like the trend tests: only the fields the policy reads matter.

/// Appends one epoch for a single raw table: `rate` per-epoch collision
/// rate at full occupancy in hash mode, or `unique_per_drain` distinct
/// groups over one drain in sort mode (rate < 0 selects sort).
void AppendModeEpoch(std::vector<TelemetrySnapshot>* history, double rate,
                     uint64_t unique_per_drain = 0) {
  constexpr uint64_t kEpochProbes = 10000;
  TelemetrySnapshot snap;
  if (!history->empty()) snap = history->back();
  snap.epoch = history->size();
  if (snap.tables.empty()) {
    TableTelemetry table;
    table.relation = "AB";
    table.num_buckets = 1024;
    snap.tables.push_back(table);
  }
  TableTelemetry& table = snap.tables[0];
  if (rate >= 0.0) {
    table.probe_mode = 0;
    table.occupied = table.num_buckets;  // Saturated.
    table.probes += kEpochProbes;
    table.collisions += static_cast<uint64_t>(rate * kEpochProbes);
  } else {
    table.probe_mode = 1;
    table.occupied = 0;  // Sort mode leaves hash slots untouched.
    table.sort_appends += kEpochProbes;
    table.sort_drains += 1;
    table.sort_unique_groups += unique_per_drain;
  }
  table.observed_collision_rate =
      table.probes == 0 ? 0.0
                        : static_cast<double>(table.collisions) /
                              static_cast<double>(table.probes);
  history->push_back(std::move(snap));
}

/// Options with mode switching enabled (enter at 0.5, defaults otherwise).
AdaptiveController MakeModeController(const TrendFixture& f,
                                      double enter = 0.5) {
  AdaptiveController::Options options;
  options.sort_enter_collision_rate = enter;
  return AdaptiveController(&f.cost_model, &f.scenario.plan, options);
}

TEST(AdaptiveControllerTest, ProbeModesDisabledByDefaultThreshold) {
  TrendFixture f;
  std::vector<TelemetrySnapshot> history;
  AppendModeEpoch(&history, 0.9);
  AppendModeEpoch(&history, 0.9);
  // Default options: threshold 2.0 > 1.0 returns current modes untouched.
  const auto modes = f.controller.DecideProbeModes(history);
  ASSERT_EQ(modes.size(), 1u);
  EXPECT_EQ(modes[0], ProbeMode::kHash);
  EXPECT_TRUE(f.controller.DecideProbeModes({}).empty());
}

TEST(AdaptiveControllerTest, SustainedSaturatedCollisionsEnterSortMode) {
  TrendFixture f;
  const AdaptiveController controller = MakeModeController(f);
  std::vector<TelemetrySnapshot> history;
  AppendModeEpoch(&history, 0.8);
  // One epoch of evidence is not a trend (K = 2).
  EXPECT_EQ(controller.DecideProbeModes(history)[0], ProbeMode::kHash);
  AppendModeEpoch(&history, 0.8);
  EXPECT_EQ(controller.DecideProbeModes(history)[0], ProbeMode::kSort);
}

TEST(AdaptiveControllerTest, UnsaturatedTableNeverEntersSortMode) {
  TrendFixture f;
  const AdaptiveController controller = MakeModeController(f);
  std::vector<TelemetrySnapshot> history;
  AppendModeEpoch(&history, 0.8);
  AppendModeEpoch(&history, 0.8);
  for (TelemetrySnapshot& snap : history) {
    snap.tables[0].occupied = snap.tables[0].num_buckets - 1;
  }
  // High collisions on a non-full table (clustered keys, not saturation)
  // keep hashing: sort mode only pays off when groups exceed buckets.
  EXPECT_EQ(controller.DecideProbeModes(history)[0], ProbeMode::kHash);
}

TEST(AdaptiveControllerTest, ShrunkenDrainsExitSortMode) {
  TrendFixture f;
  const AdaptiveController controller = MakeModeController(f);
  std::vector<TelemetrySnapshot> history;
  // In sort mode with drains still emitting ~900 distinct groups per run
  // (close to the 1024 buckets): stay.
  AppendModeEpoch(&history, -1.0, 900);
  AppendModeEpoch(&history, -1.0, 900);
  EXPECT_EQ(controller.DecideProbeModes(history)[0], ProbeMode::kSort);
  // The universe shrinks: drains dedup to 100 << 0.25 * 1024. One epoch is
  // not enough; two consecutive are.
  AppendModeEpoch(&history, -1.0, 100);
  EXPECT_EQ(controller.DecideProbeModes(history)[0], ProbeMode::kSort);
  AppendModeEpoch(&history, -1.0, 100);
  EXPECT_EQ(controller.DecideProbeModes(history)[0], ProbeMode::kHash);
}

TEST(AdaptiveControllerTest, EpochsWithoutDrainsKeepSortMode) {
  TrendFixture f;
  const AdaptiveController controller = MakeModeController(f);
  std::vector<TelemetrySnapshot> history;
  AppendModeEpoch(&history, -1.0, 100);
  // A quiet epoch (no drains at all) carries no exit signal.
  TelemetrySnapshot quiet = history.back();
  quiet.epoch++;
  history.push_back(quiet);
  EXPECT_EQ(controller.DecideProbeModes(history)[0], ProbeMode::kSort);
}

// ---------------------------------------------------------------------------
// InvertUniqueCount: the sort-mode group-count recovery, mirroring the
// InvertOccupancy property tests.

TEST(AdaptiveControllerTest, InvertUniqueCountRecoversKnownGroupCounts) {
  const double run = 8192.0;
  for (const double g : {16.0, 256.0, 2048.0, 8192.0, 32768.0}) {
    const double unique = g * (1.0 - std::exp(-run / g));
    const double estimated =
        AdaptiveController::InvertUniqueCount(unique, run);
    if (unique >= run - 0.5) {
      EXPECT_DOUBLE_EQ(estimated, 3.0 * run) << "g=" << g;
    } else {
      EXPECT_NEAR(estimated, g, 1e-6 * g + 1e-6) << "g=" << g;
    }
  }
}

TEST(AdaptiveControllerTest, InvertUniqueCountEdgeCases) {
  EXPECT_DOUBLE_EQ(AdaptiveController::InvertUniqueCount(0.0, 8192.0), 0.0);
  EXPECT_DOUBLE_EQ(AdaptiveController::InvertUniqueCount(-5.0, 8192.0), 0.0);
  // Every record distinct: lower bound, like a saturated hash table.
  EXPECT_DOUBLE_EQ(AdaptiveController::InvertUniqueCount(8192.0, 8192.0),
                   3.0 * 8192.0);
  EXPECT_DOUBLE_EQ(AdaptiveController::InvertUniqueCount(8191.8, 8192.0),
                   3.0 * 8192.0);
  // Degenerate run lengths fall back to the unique count itself.
  EXPECT_DOUBLE_EQ(AdaptiveController::InvertUniqueCount(1.0, 1.0), 1.0);
}

}  // namespace
}  // namespace streamagg
