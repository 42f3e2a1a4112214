#include "core/adaptive.h"

#include <gtest/gtest.h>

#include <cmath>

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

}  // namespace
}  // namespace streamagg
