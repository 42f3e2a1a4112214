// Overload controller unit coverage (dsms/overload_controller.h,
// docs/overload.md): Eq-7 pricing credited to feeding-tree roots, greedy
// shed allocation by cycles per unit of accuracy, the sustained-trend
// widening/relief state machine (a single-epoch spike must never trigger),
// exact error-diffusion shed counts at the runtime, and the field+value
// convention of every validation message.

#include "dsms/overload_controller.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "core/configuration.h"
#include "core/cost_model.h"
#include "core/engine.h"
#include "dsms/configuration_runtime.h"
#include "obs/telemetry.h"
#include "stream/zipf_generator.h"

namespace streamagg {
namespace {

Trace ZipfTrace(uint64_t seed) {
  const Schema schema = *Schema::Default(4);
  auto universe = GroupUniverse::Uniform(schema, 800, {60, 60, 60, 60}, seed);
  auto gen =
      std::move(ZipfGenerator::Make(std::move(*universe), 1.0, seed + 1))
          .value();
  return Trace::Generate(*gen, 60000, 12.0);
}

/// A two-shard snapshot with cumulative record/blocked-push tallies — the
/// two numbers EpochPressure differentiates. The blocked pushes are split
/// over the shard rows, which the controller sums.
TelemetrySnapshot Snap(uint64_t records, uint64_t blocked) {
  TelemetrySnapshot s;
  s.num_shards = 2;
  s.counters.records = records;
  s.shards.resize(2);
  s.shards[0].blocked_pushes = blocked / 2;
  s.shards[1].blocked_pushes = blocked - blocked / 2;
  return s;
}

/// The two-tree plan the pricing tests share: queries A, B, C with phantom
/// AB — tree AB(A B) holds two of the three queries, tree C the third.
OptimizedPlan TwoTreePlan(const Schema& schema) {
  auto config = Configuration::Make(
      schema,
      {*schema.ParseAttributeSet("A"), *schema.ParseAttributeSet("B"),
       *schema.ParseAttributeSet("C")},
      {*schema.ParseAttributeSet("AB")});
  EXPECT_TRUE(config.ok()) << config.status().ToString();
  const size_t num_nodes = static_cast<size_t>(config->num_nodes());
  OptimizedPlan plan{std::move(*config), std::vector<double>(num_nodes, 200.0),
                     0.0, 0.0, true, 0.0, {}};
  return plan;
}

const OverloadController::RelationPrice& PriceFor(
    const OverloadController& controller, const std::string& relation) {
  for (const auto& price : controller.prices()) {
    if (price.relation == relation) return price;
  }
  ADD_FAILURE() << "no price for relation " << relation;
  static OverloadController::RelationPrice missing;
  return missing;
}

TEST(OverloadPricing, PerRecordCostByRootSumsToTotal) {
  // The pricing foundation: crediting every node's Eq-7 term to its
  // feeding-tree root partitions the per-record cost exactly — roots sum to
  // PerRecordCost and non-roots carry nothing.
  const Schema schema = *Schema::Default(4);
  auto catalog = RelationCatalog::Synthetic(
      schema, {
                  {schema.ParseAttributeSet("A")->mask(), 100},
                  {schema.ParseAttributeSet("B")->mask(), 100},
                  {schema.ParseAttributeSet("C")->mask(), 100},
                  {schema.ParseAttributeSet("D")->mask(), 100},
                  {schema.ParseAttributeSet("AB")->mask(), 400},
              });
  ASSERT_TRUE(catalog.ok());
  LinearCollisionModel linear(/*alpha=*/0.0, /*mu=*/0.354);
  const CostModel model(&*catalog, &linear, CostParams{1.0, 50.0});
  const OptimizedPlan plan = TwoTreePlan(schema);

  const std::vector<double> by_root =
      model.PerRecordCostByRoot(plan.config, plan.buckets);
  ASSERT_EQ(by_root.size(), static_cast<size_t>(plan.config.num_nodes()));
  double sum = 0.0;
  for (int i = 0; i < plan.config.num_nodes(); ++i) {
    if (plan.config.node(i).parent >= 0) {
      EXPECT_EQ(by_root[static_cast<size_t>(i)], 0.0) << "node " << i;
    }
    sum += by_root[static_cast<size_t>(i)];
  }
  EXPECT_NEAR(sum, model.PerRecordCost(plan.config, plan.buckets), 1e-12);

  // The controller's prices are exactly those root credits, so their total
  // is the plan's whole per-record cost.
  OverloadController controller({});
  controller.PriceRelations(&model, plan, schema);
  ASSERT_EQ(controller.prices().size(), 2u);
  double priced = 0.0;
  for (const auto& price : controller.prices()) {
    priced += price.cycles_per_record;
  }
  EXPECT_NEAR(priced, model.PerRecordCost(plan.config, plan.buckets), 1e-12);
}

TEST(OverloadPricing, AccuracyWeightsAreQueryShares) {
  const Schema schema = *Schema::Default(4);
  const OptimizedPlan plan = TwoTreePlan(schema);
  OverloadController controller({});
  controller.PriceRelations(/*cost_model=*/nullptr, plan, schema);

  // Uniform pricing without a cost model: the floor/trend machinery still
  // works, the preference degrades to accuracy weight alone.
  ASSERT_EQ(controller.prices().size(), 2u);
  EXPECT_DOUBLE_EQ(PriceFor(controller, "AB").cycles_per_record, 1.0);
  EXPECT_DOUBLE_EQ(PriceFor(controller, "C").cycles_per_record, 1.0);
  // Tree AB(A B) holds queries A and B; tree C holds query C.
  EXPECT_NEAR(PriceFor(controller, "AB").accuracy_weight, 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(PriceFor(controller, "C").accuracy_weight, 1.0 / 3.0, 1e-12);
}

TEST(OverloadPricing, MinShedFractionFloorsEveryRelation) {
  const Schema schema = *Schema::Default(4);
  OverloadController::Options options;
  options.enabled = true;
  options.min_shed_fraction = 0.25;
  OverloadController controller(options);
  controller.PriceRelations(nullptr, TwoTreePlan(schema), schema);

  EXPECT_DOUBLE_EQ(controller.target_fraction(), 0.25);
  ASSERT_EQ(controller.shed_plan().numerators.size(), 2u);
  for (uint32_t numerator : controller.shed_plan().numerators) {
    EXPECT_EQ(numerator, 256u);  // llround(0.25 * 1024).
  }
  EXPECT_TRUE(controller.shed_plan().active());
}

TEST(OverloadTrend, SustainedPressureWidensGreedily) {
  const Schema schema = *Schema::Default(4);
  OverloadController::Options options;
  options.enabled = true;
  options.queue_blocked_fraction = 0.01;
  options.shed_step = 0.5;
  options.trend_epochs = 2;
  OverloadController controller(options);
  controller.PriceRelations(nullptr, TwoTreePlan(schema), schema);
  EXPECT_FALSE(controller.shed_plan().active());

  // Two consecutive epochs at 5x the blocked-fraction watermark.
  std::vector<TelemetrySnapshot> history;
  history.push_back(Snap(10000, 0));
  history.push_back(Snap(20000, 500));
  history.push_back(Snap(30000, 1000));
  EXPECT_TRUE(controller.UpdateShedPlan(history));
  EXPECT_DOUBLE_EQ(controller.target_fraction(), 0.5);

  // Greedy allocation at uniform prices prefers the tree with the smaller
  // accuracy weight: C absorbs up to the 0.9 cap, AB sheds the remainder.
  // needed = 0.5 * 2 cycles; C takes 0.9, AB the remaining 0.1.
  const auto& numerators = controller.shed_plan().numerators;
  ASSERT_EQ(numerators.size(), 2u);
  const size_t c_index =
      static_cast<size_t>(PriceFor(controller, "C").raw_index);
  const size_t ab_index =
      static_cast<size_t>(PriceFor(controller, "AB").raw_index);
  EXPECT_EQ(numerators[c_index], 922u);   // llround(0.9 * 1024).
  EXPECT_EQ(numerators[ab_index], 102u);  // llround(0.1 * 1024).

  // The exported estimates are the plan's dot products with the prices.
  const double f_c = 922.0 / 1024.0;
  const double f_ab = 102.0 / 1024.0;
  EXPECT_NEAR(controller.accuracy_loss(), f_c / 3.0 + f_ab * 2.0 / 3.0,
              1e-12);
  EXPECT_NEAR(controller.cycles_saved_per_record(), f_c + f_ab, 1e-12);
}

TEST(OverloadTrend, SingleEpochSpikeNeverWidens) {
  // The acceptance rule inherited from the adaptive controller: one epoch
  // over the watermark — however far over — must not shed anything, because
  // its trend window always contains a calm neighbor.
  const Schema schema = *Schema::Default(4);
  OverloadController::Options options;
  options.enabled = true;
  options.queue_blocked_fraction = 0.01;
  options.trend_epochs = 2;
  OverloadController controller(options);
  controller.PriceRelations(nullptr, TwoTreePlan(schema), schema);

  std::vector<TelemetrySnapshot> history;
  history.push_back(Snap(10000, 0));
  EXPECT_FALSE(controller.UpdateShedPlan(history));
  history.push_back(Snap(20000, 500));  // The spike: 5x the watermark.
  EXPECT_FALSE(controller.UpdateShedPlan(history));
  history.push_back(Snap(30000, 500));  // Calm again (no new blocks).
  EXPECT_FALSE(controller.UpdateShedPlan(history));
  EXPECT_DOUBLE_EQ(controller.target_fraction(), 0.0);
  EXPECT_FALSE(controller.shed_plan().active());
}

TEST(OverloadTrend, ReliefNarrowsBackToFloor) {
  const Schema schema = *Schema::Default(4);
  OverloadController::Options options;
  options.enabled = true;
  options.queue_blocked_fraction = 0.01;
  options.shed_step = 0.5;
  options.trend_epochs = 2;
  OverloadController controller(options);
  controller.PriceRelations(nullptr, TwoTreePlan(schema), schema);

  std::vector<TelemetrySnapshot> history;
  history.push_back(Snap(10000, 0));
  history.push_back(Snap(20000, 500));
  history.push_back(Snap(30000, 1000));
  ASSERT_TRUE(controller.UpdateShedPlan(history));
  ASSERT_DOUBLE_EQ(controller.target_fraction(), 0.5);

  // Two epochs fully under the watermark: the controller steps back down to
  // the floor and the plan empties.
  history.push_back(Snap(40000, 1000));
  history.push_back(Snap(50000, 1000));
  EXPECT_TRUE(controller.UpdateShedPlan(history));
  EXPECT_DOUBLE_EQ(controller.target_fraction(), 0.0);
  EXPECT_FALSE(controller.shed_plan().active());
}

TEST(OverloadTrend, EpochGapWatermarkReadsHistogramDeltas) {
  OverloadController::Options options;
  options.enabled = true;
  options.queue_blocked_fraction = 0.0;  // Disable the queue signal.
  options.epoch_gap_watermark_ns = 1000;
  OverloadController controller(options);

  TelemetrySnapshot cur;
  for (int i = 0; i < 100; ++i) cur.epoch_gap_ns.Record(4000);
  // Fresh growth from a zero baseline: p99 of the delta is 4000ns, 4x over.
  EXPECT_DOUBLE_EQ(controller.EpochPressure(nullptr, cur), 4.0);
  // Against itself the delta is empty — cumulative histograms never read as
  // sustained pressure.
  EXPECT_DOUBLE_EQ(controller.EpochPressure(&cur, cur), 0.0);
}

TEST(OverloadShedding, RuntimeShedCountsAreExact) {
  // The runtime's error-diffusion accumulator drops exactly
  // floor(records * numerator / 1024) probes per raw relation — no RNG, no
  // rounding drift — and the bookkeeping closes: probes + shed == records
  // at every raw table, and counters.shed_probes is their sum.
  const Trace trace = ZipfTrace(0x42);
  const Schema& schema = trace.schema();
  auto config = Configuration::Parse(schema, "AB(A B) CD");
  ASSERT_TRUE(config.ok());
  auto specs = config->ToRuntimeSpecs(
      std::vector<double>(config->num_nodes(), 128.0));
  ASSERT_TRUE(specs.ok());
  auto runtime = ConfigurationRuntime::Make(schema, *specs, 3.0);
  ASSERT_TRUE(runtime.ok()) << runtime.status().ToString();
  ASSERT_EQ((*runtime)->num_raw_relations(), 2);

  ShedPlan plan;
  plan.numerators = {256, 512};
  ASSERT_TRUE((*runtime)->SetShedPlan(plan).ok());
  (*runtime)->ProcessTrace(trace);

  const uint64_t n = (*runtime)->counters().records;
  EXPECT_EQ(n, trace.size());
  uint64_t total_shed = 0;
  for (int r = 0; r < 2; ++r) {
    const uint64_t shed = (*runtime)->shed_count(r);
    EXPECT_EQ(shed, n * plan.numerators[static_cast<size_t>(r)] /
                        ShedPlan::kDenominator)
        << "raw relation " << r;
    const int rel = (*runtime)->raw_relation(r);
    EXPECT_EQ((*runtime)->table(rel).probes() + shed, n)
        << "raw relation " << r;
    total_shed += shed;
  }
  EXPECT_EQ((*runtime)->counters().shed_probes, total_shed);
}

TEST(OverloadValidation, MessagesNameFieldAndValue) {
  const auto expect_rejected = [](const OverloadController::Options& options,
                                  const std::string& field,
                                  const std::string& value) {
    const Status status = OverloadController::ValidateOptions(options);
    ASSERT_FALSE(status.ok()) << field;
    const std::string message = status.ToString();
    EXPECT_NE(message.find("Options::overload." + field), std::string::npos)
        << message;
    EXPECT_NE(message.find(value), std::string::npos) << message;
  };

  OverloadController::Options options;
  options.queue_blocked_fraction = -0.5;
  expect_rejected(options, "queue_blocked_fraction", "(got -0.500000)");

  options = {};
  options.min_shed_fraction = 1.5;
  expect_rejected(options, "min_shed_fraction", "(got 1.500000)");

  options = {};
  options.min_shed_fraction = 0.5;
  options.max_shed_fraction = 0.25;
  expect_rejected(options, "max_shed_fraction", "(got 0.250000)");

  options = {};
  options.shed_step = 0.0;
  expect_rejected(options, "shed_step", "(got 0.000000)");

  options = {};
  options.trend_epochs = 0;
  expect_rejected(options, "trend_epochs", "(got 0)");

  options = {};
  options.widening_slack = -1.0;
  expect_rejected(options, "widening_slack", "(got -1.000000)");

  // NaN fails every range compare; each double field must still reject it.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  options = {};
  options.queue_blocked_fraction = nan;
  expect_rejected(options, "queue_blocked_fraction", "(got nan)");
  options = {};
  options.min_shed_fraction = nan;
  expect_rejected(options, "min_shed_fraction", "(got nan)");
  options = {};
  options.max_shed_fraction = nan;
  expect_rejected(options, "max_shed_fraction", "(got nan)");
  options = {};
  options.shed_step = nan;
  expect_rejected(options, "shed_step", "(got nan)");
  options = {};
  options.widening_slack = nan;
  expect_rejected(options, "widening_slack", "(got nan)");

  EXPECT_TRUE(OverloadController::ValidateOptions({}).ok());
}

TEST(OverloadValidation, EngineRejectsControllerAtTelemetryOff) {
  // The controller reads the blocked-push counters; kOff does not maintain
  // them, so the combination is a configuration error, not a silent no-op.
  const Schema schema = *Schema::Default(4);
  const std::vector<QueryDef> queries = {
      QueryDef(*schema.ParseAttributeSet("AB"))};

  StreamAggEngine::Options options;
  options.overload.enabled = true;
  options.telemetry_level = TelemetryLevel::kOff;
  auto engine = StreamAggEngine::FromQueryDefs(schema, queries, options);
  ASSERT_FALSE(engine.ok());
  const std::string message = engine.status().ToString();
  EXPECT_NE(message.find("Options::overload.enabled"), std::string::npos)
      << message;
  EXPECT_NE(message.find("kOff"), std::string::npos) << message;

  // The controller's own knobs are validated through the engine too, even
  // with the controller disabled — a bad config never lies dormant.
  options = {};
  options.overload.trend_epochs = 0;
  engine = StreamAggEngine::FromQueryDefs(schema, queries, options);
  ASSERT_FALSE(engine.ok());
  EXPECT_NE(engine.status().ToString().find("Options::overload.trend_epochs"),
            std::string::npos)
      << engine.status().ToString();
}

}  // namespace
}  // namespace streamagg
