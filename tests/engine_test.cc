#include "core/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "dsms/reference_aggregator.h"
#include "engine_parity.h"
#include "stream/uniform_generator.h"

namespace streamagg {
namespace {

StreamAggEngine::Options BaseOptions() {
  StreamAggEngine::Options options;
  options.memory_words = 30000.0;
  options.sample_size = 20000;
  options.epoch_seconds = 2.0;
  options.clustered = false;
  return options;
}

Trace UniformTrace(uint64_t groups, size_t n, uint64_t seed) {
  auto gen = std::move(UniformGenerator::Make(*Schema::Default(4), groups,
                                              seed))
                 .value();
  return Trace::Generate(*gen, n, 10.0);
}

TEST(StreamAggEngineTest, EndToEndResultsAreExact) {
  const Trace trace = UniformTrace(800, 100000, 5);
  const Schema& schema = trace.schema();
  const std::vector<QueryDef> queries = {
      QueryDef(*schema.ParseAttributeSet("AB")),
      QueryDef(*schema.ParseAttributeSet("BC")),
      QueryDef(*schema.ParseAttributeSet("CD")),
  };
  auto engine =
      StreamAggEngine::FromQueryDefs(schema, queries, BaseOptions());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_FALSE((*engine)->planned());
  for (const Record& r : trace.records()) {
    ASSERT_TRUE((*engine)->Process(r).ok());
  }
  EXPECT_TRUE((*engine)->planned());
  EXPECT_FALSE((*engine)->ConfigurationText().empty());
  ASSERT_TRUE((*engine)->Finish().ok());

  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const auto expected =
        ComputeReferenceAggregate(trace, queries[qi].group_by, 2.0);
    for (const auto& [epoch, groups] : expected) {
      const EpochAggregate& actual =
          (*engine)->EpochResult(static_cast<int>(qi), epoch);
      ASSERT_EQ(actual.size(), groups.size())
          << "query " << qi << " epoch " << epoch;
      for (const auto& [key, state] : groups) {
        auto it = actual.find(key);
        ASSERT_NE(it, actual.end());
        EXPECT_EQ(it->second.count, state.count);
      }
    }
  }
  // All records accounted for.
  EXPECT_EQ((*engine)->counters().records, trace.size());
}

TEST(StreamAggEngineTest, WorksFromQueryTexts) {
  const Trace trace = UniformTrace(500, 60000, 7);
  auto engine = StreamAggEngine::FromQueryTexts(
      trace.schema(),
      {"select A, count(*) from R group by A, time/2",
       "select B, count(*) from R group by B, time/2"},
      BaseOptions());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  for (const Record& r : trace.records()) {
    ASSERT_TRUE((*engine)->Process(r).ok());
  }
  ASSERT_TRUE((*engine)->Finish().ok());
  ASSERT_EQ((*engine)->parsed_queries().size(), 2u);
  // Epochs come from the query text (time/2 over a 10-second trace).
  const std::vector<uint64_t> epochs = (*engine)->Epochs(0);
  EXPECT_EQ(epochs.size(), 5u);
  const auto expected = ComputeReferenceAggregate(
      trace, AttributeSet::Single(0), 2.0);
  for (uint64_t epoch : epochs) {
    EXPECT_EQ((*engine)->EpochResult(0, epoch).size(), expected.at(epoch).size());
  }
}

TEST(StreamAggEngineTest, ShortStreamPlansAtFinish) {
  const Trace trace = UniformTrace(300, 5000, 9);  // Below the sample size.
  const Schema& schema = trace.schema();
  auto engine = StreamAggEngine::FromQueryDefs(
      schema, {QueryDef(*schema.ParseAttributeSet("AB"))}, BaseOptions());
  ASSERT_TRUE(engine.ok());
  for (const Record& r : trace.records()) {
    ASSERT_TRUE((*engine)->Process(r).ok());
  }
  EXPECT_FALSE((*engine)->planned());  // Still sampling.
  ASSERT_TRUE((*engine)->Finish().ok());
  const auto expected =
      ComputeReferenceAggregate(trace, *schema.ParseAttributeSet("AB"), 2.0);
  uint64_t total = 0;
  for (uint64_t epoch : (*engine)->Epochs(0)) {
    for (const auto& [key, state] : (*engine)->EpochResult(0, epoch)) {
      total += state.count;
    }
  }
  EXPECT_EQ(total, trace.size());
  (void)expected;
}

TEST(StreamAggEngineTest, AdaptiveSwapPreservesResults) {
  // Calm traffic for 3 epochs, then a 10x group blow-up: with adaptivity on
  // the engine re-plans mid-stream; every epoch's counts must still be
  // exact across the runtime swap.
  const Schema schema = *Schema::Default(4);
  auto calm = std::move(UniformGenerator::Make(schema, 500, 11)).value();
  auto shifted = std::move(UniformGenerator::Make(schema, 5000, 13)).value();
  Trace trace(schema);
  const size_t kN = 120000;
  trace.set_duration_seconds(12.0);
  for (size_t i = 0; i < kN; ++i) {
    Record r = (i < kN / 2) ? calm->Next() : shifted->Next();
    r.timestamp = 12.0 * static_cast<double>(i) / kN;
    trace.Append(r);
  }

  StreamAggEngine::Options options = BaseOptions();
  options.adaptive = true;
  options.sample_size = 10000;
  const std::vector<QueryDef> queries = {
      QueryDef(*schema.ParseAttributeSet("AB")),
      QueryDef(*schema.ParseAttributeSet("CD")),
  };
  auto engine = StreamAggEngine::FromQueryDefs(schema, queries, options);
  ASSERT_TRUE(engine.ok());
  for (const Record& r : trace.records()) {
    ASSERT_TRUE((*engine)->Process(r).ok());
  }
  ASSERT_TRUE((*engine)->Finish().ok());
  EXPECT_GE((*engine)->reoptimizations(), 1);

  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const auto expected =
        ComputeReferenceAggregate(trace, queries[qi].group_by, 2.0);
    for (const auto& [epoch, groups] : expected) {
      const EpochAggregate& actual =
          (*engine)->EpochResult(static_cast<int>(qi), epoch);
      ASSERT_EQ(actual.size(), groups.size())
          << "query " << qi << " epoch " << epoch;
      for (const auto& [key, state] : groups) {
        auto it = actual.find(key);
        ASSERT_NE(it, actual.end()) << key.ToString();
        EXPECT_EQ(it->second.count, state.count) << key.ToString();
      }
    }
  }
  EXPECT_EQ((*engine)->counters().records, trace.size());
}

TEST(StreamAggEngineTest, SharedWhereClauseFiltersRecords) {
  const Trace trace = UniformTrace(400, 60000, 21);
  const Schema& schema = trace.schema();
  // Keep only records with D < 4 (the universe draws D from a domain of
  // ~11 values, so this passes roughly a third of the stream).
  auto engine = StreamAggEngine::FromQueryTexts(
      schema,
      {"select A, count(*) from R where D < 4 group by A, time/2",
       "select B, count(*) from R where D < 4 group by B, time/2"},
      BaseOptions());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  for (const Record& r : trace.records()) {
    ASSERT_TRUE((*engine)->Process(r).ok());
  }
  ASSERT_TRUE((*engine)->Finish().ok());

  // Reference: aggregate only the passing records.
  Trace filtered(schema);
  for (const Record& r : trace.records()) {
    if (r.values[3] < 4) filtered.Append(r);
  }
  ASSERT_GT(filtered.size(), 0u);
  ASSERT_LT(filtered.size(), trace.size());
  const auto expected =
      ComputeReferenceAggregate(filtered, AttributeSet::Single(0), 2.0);
  uint64_t total = 0;
  for (uint64_t epoch : (*engine)->Epochs(0)) {
    const EpochAggregate& actual = (*engine)->EpochResult(0, epoch);
    ASSERT_EQ(actual.size(), expected.at(epoch).size()) << "epoch " << epoch;
    for (const auto& [key, state] : actual) total += state.count;
  }
  EXPECT_EQ(total, filtered.size());
  EXPECT_EQ((*engine)->counters().records, filtered.size());
}

TEST(StreamAggEngineTest, PinnedPlanSkipsSampling) {
  const Trace trace = UniformTrace(500, 50000, 31);
  const Schema& schema = trace.schema();
  const std::vector<QueryDef> queries = {
      QueryDef(*schema.ParseAttributeSet("AB")),
      QueryDef(*schema.ParseAttributeSet("CD"))};
  // Build a plan offline...
  TraceStats stats(&trace);
  const RelationCatalog catalog =
      RelationCatalog::FromTrace(&stats, /*clustered=*/false);
  Optimizer optimizer;
  OptimizedPlan plan = *optimizer.Optimize(catalog, queries, 30000.0);
  const std::string config_text = plan.config.ToString();

  // ...and pin it: the engine is live from the first record.
  auto engine = StreamAggEngine::FromPinnedPlan(schema, std::move(plan), {},
                                                BaseOptions());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_TRUE((*engine)->planned());
  EXPECT_EQ((*engine)->ConfigurationText(), config_text);
  for (const Record& r : trace.records()) {
    ASSERT_TRUE((*engine)->Process(r).ok());
  }
  ASSERT_TRUE((*engine)->Finish().ok());
  const auto expected =
      ComputeReferenceAggregate(trace, queries[0].group_by, 2.0);
  for (const auto& [epoch, groups] : expected) {
    EXPECT_EQ((*engine)->EpochResult(0, epoch).size(), groups.size());
  }
  EXPECT_EQ((*engine)->counters().records, trace.size());
}

TEST(StreamAggEngineTest, AdaptivePinnedPlanNeedsCounts) {
  const Schema schema = *Schema::Default(4);
  auto catalog = RelationCatalog::Synthetic(
      schema, {{AttributeSet::Single(0).mask(), 100},
               {AttributeSet::Single(1).mask(), 100},
               {AttributeSet::Single(2).mask(), 100},
               {AttributeSet::Single(3).mask(), 100}});
  Optimizer optimizer;
  OptimizedPlan plan = *optimizer.Optimize(
      *catalog,
      std::vector<QueryDef>{QueryDef(*schema.ParseAttributeSet("AB"))},
      20000.0);
  StreamAggEngine::Options options = BaseOptions();
  options.adaptive = true;
  EXPECT_FALSE(
      StreamAggEngine::FromPinnedPlan(schema, std::move(plan), {}, options)
          .ok());
}

TEST(StreamAggEngineTest, RejectsBadConstruction) {
  const Schema schema = *Schema::Default(3);
  EXPECT_FALSE(
      StreamAggEngine::FromQueryDefs(schema, {}, BaseOptions()).ok());
  EXPECT_FALSE(StreamAggEngine::FromQueryTexts(schema, {"select nope"},
                                               BaseOptions())
                   .ok());
  EXPECT_FALSE(StreamAggEngine::FromQueryTexts(
                   schema,
                   {"select A, count(*) from R group by A, time/60",
                    "select B, count(*) from R group by B, time/30"},
                   BaseOptions())
                   .ok());
}

TEST(StreamAggEngineTest, CountersIdempotentAcrossSwapsAndBatches) {
  // Regression: counters() and the internal accumulation across adaptive
  // runtime swaps must never double-count, no matter how often or when the
  // totals are read, and no matter how Process/ProcessBatch are mixed.
  const Schema schema = *Schema::Default(4);
  auto calm = std::move(UniformGenerator::Make(schema, 500, 21)).value();
  auto shifted = std::move(UniformGenerator::Make(schema, 5000, 23)).value();
  Trace trace(schema);
  const size_t kN = 120000;
  trace.set_duration_seconds(12.0);
  for (size_t i = 0; i < kN; ++i) {
    Record r = (i < kN / 2) ? calm->Next() : shifted->Next();
    r.timestamp = 12.0 * static_cast<double>(i) / kN;
    trace.Append(r);
  }

  StreamAggEngine::Options options = BaseOptions();
  options.adaptive = true;
  options.sample_size = 10000;
  auto engine = StreamAggEngine::FromQueryDefs(
      schema,
      {QueryDef(*schema.ParseAttributeSet("AB")),
       QueryDef(*schema.ParseAttributeSet("CD"))},
      options);
  ASSERT_TRUE(engine.ok());

  // Alternate odd-sized batches with single records so runtime swaps land
  // at every possible position relative to the reads below.
  const std::span<const Record> records(trace.records());
  size_t i = 0;
  uint64_t last_records = 0;
  while (i < records.size()) {
    if (i % 3 == 0) {
      ASSERT_TRUE((*engine)->Process(records[i]).ok());
      ++i;
    } else {
      const size_t n = std::min<size_t>(257, records.size() - i);
      ASSERT_TRUE((*engine)->ProcessBatch(records.subspan(i, n)).ok());
      i += n;
    }
    // Reading totals mid-stream must be side-effect free (idempotent) and
    // exact: records processed so far, monotonically. (While sampling,
    // records are buffered and the count is behind; it catches up at the
    // planning replay.)
    const RuntimeCounters first = (*engine)->counters();
    const RuntimeCounters second = (*engine)->counters();
    EXPECT_TRUE(first == second);
    if ((*engine)->planned()) {
      EXPECT_EQ(first.records, i);
    }
    EXPECT_GE(first.records, last_records);
    last_records = first.records;
  }
  ASSERT_TRUE((*engine)->Finish().ok());
  // The traffic shift must actually have forced at least one swap for this
  // test to mean anything.
  EXPECT_GE((*engine)->reoptimizations(), 1);
  EXPECT_EQ((*engine)->counters().records, trace.size());
  // Reading after Finish is stable too.
  EXPECT_TRUE((*engine)->counters() == (*engine)->counters());
}

TEST(StreamAggEngineTest, TelemetryReportsModelPredictions) {
  const Trace trace = UniformTrace(800, 80000, 31);
  const Schema& schema = trace.schema();
  auto engine = StreamAggEngine::FromQueryDefs(
      schema,
      {QueryDef(*schema.ParseAttributeSet("AB")),
       QueryDef(*schema.ParseAttributeSet("BC")),
       QueryDef(*schema.ParseAttributeSet("CD"))},
      BaseOptions());
  ASSERT_TRUE(engine.ok());
  // While sampling, telemetry is an empty snapshot.
  EXPECT_TRUE((*engine)->telemetry().tables.empty());
  for (const Record& r : trace.records()) {
    ASSERT_TRUE((*engine)->Process(r).ok());
  }
  const TelemetrySnapshot live = (*engine)->telemetry();
  ASSERT_FALSE(live.tables.empty());
  for (const TableTelemetry& t : live.tables) {
    // Engine-annotated snapshots pair every table's observed rate with the
    // cost model's prediction for the planned statistics.
    EXPECT_TRUE(t.has_prediction()) << t.relation;
    EXPECT_GE(t.predicted_collision_rate, 0.0) << t.relation;
    EXPECT_LT(t.predicted_collision_rate, 1.0) << t.relation;
    EXPECT_GE(t.observed_collision_rate, 0.0) << t.relation;
    EXPECT_EQ(t.drift(),
              t.observed_collision_rate - t.predicted_collision_rate);
  }
  EXPECT_TRUE(live.counters == (*engine)->counters());

  ASSERT_TRUE((*engine)->Finish().ok());
  // The final snapshot survives runtime teardown and keeps the totals.
  const TelemetrySnapshot final_snap = (*engine)->telemetry();
  ASSERT_FALSE(final_snap.tables.empty());
  EXPECT_EQ(final_snap.counters.records, trace.size());
  EXPECT_TRUE(final_snap.counters == (*engine)->counters());
}

TEST(StreamAggEngineTest, TelemetryEpochHistoryIsBoundedAndLabeled) {
  const Trace trace = UniformTrace(400, 60000, 37);
  StreamAggEngine::Options options = BaseOptions();
  options.epoch_seconds = 1.0;  // 10 epochs over the 10-second trace.
  options.telemetry_epoch_snapshots = true;
  options.telemetry_history_cap = 4;
  auto engine = StreamAggEngine::FromQueryDefs(
      trace.schema(),
      {QueryDef(*trace.schema().ParseAttributeSet("AB"))}, options);
  ASSERT_TRUE(engine.ok());
  for (const Record& r : trace.records()) {
    ASSERT_TRUE((*engine)->Process(r).ok());
  }
  ASSERT_TRUE((*engine)->Finish().ok());

  const std::vector<TelemetrySnapshot>& history =
      (*engine)->telemetry_history();
  ASSERT_FALSE(history.empty());
  EXPECT_LE(history.size(), 4u);  // Oldest snapshots dropped first.
  for (size_t i = 1; i < history.size(); ++i) {
    EXPECT_LT(history[i - 1].epoch, history[i].epoch);
    // Cumulative counters only grow along the history.
    EXPECT_LE(history[i - 1].counters.records, history[i].counters.records);
  }
}

TEST(StreamAggEngineTest, TelemetryHistoryCapHoldsOnLongRuns) {
  // Regression (ISSUE 8 satellite): history must stay at the cap no matter
  // how many epochs the run spans — memory is O(cap), not O(stream length).
  const Trace trace = UniformTrace(400, 60000, 43);
  StreamAggEngine::Options options = BaseOptions();
  options.epoch_seconds = 0.2;  // ~50 epochs over the 10-second trace.
  options.telemetry_epoch_snapshots = true;
  options.telemetry_history_cap = 3;
  auto engine = StreamAggEngine::FromQueryDefs(
      trace.schema(),
      {QueryDef(*trace.schema().ParseAttributeSet("AB"))}, options);
  ASSERT_TRUE(engine.ok());
  for (const Record& r : trace.records()) {
    ASSERT_TRUE((*engine)->Process(r).ok());
  }
  ASSERT_TRUE((*engine)->Finish().ok());

  // The run really did span far more epochs than the cap.
  EXPECT_GT((*engine)->counters().epochs_flushed, 30u);
  EXPECT_EQ((*engine)->telemetry_history().size(), 3u);
}

TEST(StreamAggEngineTest, TelemetryHistoryCapWidensToAdaptiveTrendWindow) {
  // A cap below the adaptive trend window would starve AssessTrend, so the
  // engine keeps at least trend_epochs + 1 snapshots regardless of the cap.
  const Trace trace = UniformTrace(400, 60000, 47);
  StreamAggEngine::Options options = BaseOptions();
  options.epoch_seconds = 0.2;
  options.adaptive = true;  // Forces epoch snapshots on.
  options.adaptive_options.trend_epochs = 4;
  options.telemetry_history_cap = 1;
  auto engine = StreamAggEngine::FromQueryDefs(
      trace.schema(),
      {QueryDef(*trace.schema().ParseAttributeSet("AB"))}, options);
  ASSERT_TRUE(engine.ok());
  for (const Record& r : trace.records()) {
    ASSERT_TRUE((*engine)->Process(r).ok());
  }
  ASSERT_TRUE((*engine)->Finish().ok());

  EXPECT_GT((*engine)->counters().epochs_flushed, 30u);
  EXPECT_EQ((*engine)->telemetry_history().size(), 5u);  // trend_epochs + 1.
}

TEST(StreamAggEngineTest, ShardedTelemetryMergesToEngineCounters) {
  const Trace trace = UniformTrace(600, 80000, 41);
  StreamAggEngine::Options options = BaseOptions();
  options.num_shards = 3;
  auto engine = StreamAggEngine::FromQueryDefs(
      trace.schema(),
      {QueryDef(*trace.schema().ParseAttributeSet("AB")),
       QueryDef(*trace.schema().ParseAttributeSet("CD"))},
      options);
  ASSERT_TRUE(engine.ok());
  for (const Record& r : trace.records()) {
    ASSERT_TRUE((*engine)->Process(r).ok());
  }
  ASSERT_TRUE((*engine)->Finish().ok());

  const TelemetrySnapshot snap = (*engine)->telemetry();
  EXPECT_EQ(snap.num_shards, 3);
  // Merged totals are bit-identical to the engine's accumulated counters.
  EXPECT_TRUE(snap.counters == (*engine)->counters());
  EXPECT_EQ(snap.counters.records, trace.size());
  ASSERT_EQ(snap.shards.size(), 3u);
  uint64_t routed = 0;
  for (const ShardTelemetry& s : snap.shards) routed += s.records;
  EXPECT_EQ(routed, trace.size());
}

// --- Timestamp contract: finite, non-negative, never back an epoch ---------

/// Every query's results, epoch by epoch: what a rejected call must leave
/// untouched.
std::vector<std::vector<EpochAggregate>> AllResults(
    const StreamAggEngine& engine) {
  std::vector<std::vector<EpochAggregate>> results;
  for (int q = 0; q < engine.num_query_ids(); ++q) {
    results.emplace_back();
    for (uint64_t e : engine.Epochs(q)) {
      results.back().push_back(engine.EpochResult(q, e));
    }
  }
  return results;
}

TEST(StreamAggEngineTest, RejectsTimestampsThatBreakTheContract) {
  // 400 records over epochs 0-3 at 1 s per epoch. One epoch-3 record gets a
  // bad timestamp; the call carrying it is rejected whole with the engine
  // untouched, and the same call without that record then goes through.
  const Schema schema = *Schema::Default(4);
  auto gen = std::move(UniformGenerator::Make(schema, 300, 91)).value();
  std::vector<Record> records(400);
  for (size_t i = 0; i < records.size(); ++i) {
    records[i] = gen->Next();
    records[i].timestamp = static_cast<double>(i) / 100.0;
  }
  const size_t bad = 350;
  std::vector<Record> clean = records;
  clean.erase(clean.begin() + bad);
  const std::vector<QueryDef> queries = {
      QueryDef(*schema.ParseAttributeSet("AB")),
      QueryDef(*schema.ParseAttributeSet("CD"))};
  StreamAggEngine::Options options = BaseOptions();
  options.sample_size = 50;
  options.epoch_seconds = 1.0;

  auto reference =
      std::move(StreamAggEngine::FromQueryDefs(schema, queries, options))
          .value();
  for (const Record& r : clean) ASSERT_TRUE(reference->Process(r).ok());
  ASSERT_TRUE(reference->Finish().ok());

  struct Case {
    const char* name;
    double timestamp;
    const char* printed;
  };
  const Case cases[] = {
      {"nan", std::numeric_limits<double>::quiet_NaN(), "timestamp nan"},
      {"negative", -1.0, "timestamp -1"},
      {"infinite", std::numeric_limits<double>::infinity(), "timestamp inf"},
      {"epoch overflows", 1e300, "timestamp 1e+300"},
      {"back an epoch", 1.5, "timestamp 1.5"},
  };
  for (const Case& c : cases) {
    for (size_t batch : {size_t{1}, size_t{64}}) {
      SCOPED_TRACE(std::string(c.name) + " batch=" + std::to_string(batch));
      auto engine =
          std::move(StreamAggEngine::FromQueryDefs(schema, queries, options))
              .value();
      std::vector<Record> input = records;
      input[bad].timestamp = c.timestamp;
      const size_t call = bad - bad % batch;
      const std::span<const Record> all(input);
      for (size_t i = 0; i < call; i += batch) {
        ASSERT_TRUE(engine->ProcessBatch(all.subspan(i, batch)).ok());
      }
      const RuntimeCounters counters = engine->counters();
      const auto results = AllResults(*engine);

      const std::span<const Record> rejected =
          all.subspan(call, std::min(batch, all.size() - call));
      const Status status = batch == 1 ? engine->Process(rejected[0])
                                       : engine->ProcessBatch(rejected);
      ASSERT_EQ(status.code(), StatusCode::kInvalidArgument)
          << status.ToString();
      const std::string message = status.ToString();
      EXPECT_NE(message.find("record " + std::to_string(bad - call) + " "),
                std::string::npos)
          << message;
      EXPECT_NE(message.find(c.printed), std::string::npos) << message;
      EXPECT_NE(message.find("current epoch 3"), std::string::npos)
          << message;
      EXPECT_TRUE(engine->counters() == counters);
      EXPECT_TRUE(AllResults(*engine) == results);

      // Valid records are still accepted: the same call minus the bad one,
      // then the rest of the stream.
      std::vector<Record> retry(rejected.begin(), rejected.end());
      retry.erase(retry.begin() + static_cast<long>(bad - call));
      ASSERT_TRUE(engine->ProcessBatch(retry).ok());
      ASSERT_TRUE(
          engine->ProcessBatch(all.subspan(call + rejected.size())).ok());
      ASSERT_TRUE(engine->Finish().ok());
      EXPECT_TRUE(engine->counters() == reference->counters());
      EXPECT_TRUE(AllResults(*engine) == AllResults(*reference));
    }
  }
}

TEST(StreamAggEngineTest, AcceptsBackwardTimestampsWithinTheEpoch) {
  // Only going back an epoch breaks the contract: a record a little behind
  // its predecessor but in the same epoch is counted there.
  const Trace trace = UniformTrace(300, 30000, 17);
  std::vector<Record> records = trace.records();
  std::swap(records[25000].timestamp, records[25001].timestamp);
  const std::vector<QueryDef> queries = {
      QueryDef(*trace.schema().ParseAttributeSet("AB"))};
  auto engine = std::move(StreamAggEngine::FromQueryDefs(
                              trace.schema(), queries, BaseOptions()))
                    .value();
  ASSERT_TRUE(engine->ProcessBatch(records).ok());
  ASSERT_TRUE(engine->Finish().ok());
  const auto expected =
      ComputeReferenceAggregate(trace, queries[0].group_by, 2.0);
  for (const auto& [epoch, groups] : expected) {
    EXPECT_TRUE(engine->EpochResult(0, epoch) == groups) << epoch;
  }
}

TEST(StreamAggEngineTest, FinishedEngineRejectsFeedAndChurn) {
  // Finish() ends the stream. A second Finish() does nothing (it must not
  // re-plan from the retained sample and replay it), and feeding or
  // churning a finished engine is rejected with every result and counter
  // untouched — on a sampled engine and on a pinned-plan one, which has no
  // sample to fall back into.
  const Trace trace = UniformTrace(800, 60000, 47);
  const Schema& schema = trace.schema();
  const std::vector<QueryDef> queries = {
      QueryDef(*schema.ParseAttributeSet("AB")),
      QueryDef(*schema.ParseAttributeSet("CD"))};
  TraceStats stats(&trace);
  const RelationCatalog catalog =
      RelationCatalog::FromTrace(&stats, /*clustered=*/false);
  const OptimizedPlan plan = *Optimizer().Optimize(catalog, queries, 30000.0);
  for (int shards : {1, 2}) {
    StreamAggEngine::Options options = BaseOptions();
    options.num_shards = shards;
    std::vector<std::unique_ptr<StreamAggEngine>> engines;
    engines.push_back(std::move(StreamAggEngine::FromQueryDefs(
                                    schema, queries, options))
                          .value());
    engines.push_back(std::move(StreamAggEngine::FromPinnedPlan(
                                    schema, plan, {}, options))
                          .value());
    for (const auto& engine : engines) {
      const std::string label = "shards=" + std::to_string(shards) +
                                (engine->planned() ? " pinned" : " sampled");
      ASSERT_TRUE(engine->ProcessBatch(trace.records()).ok()) << label;
      ASSERT_TRUE(engine->Finish().ok()) << label;
      const RuntimeCounters counters = engine->counters();
      ASSERT_EQ(counters.records, trace.size()) << label;
      const auto results = AllResults(*engine);

      EXPECT_TRUE(engine->Finish().ok()) << label;
      const StatusCode refused = StatusCode::kFailedPrecondition;
      EXPECT_EQ(engine->Process(trace.records().back()).code(), refused)
          << label;
      EXPECT_EQ(engine->ProcessBatch(trace.records()).code(), refused)
          << label;
      EXPECT_EQ(
          engine->AddQuery(QueryDef(*schema.ParseAttributeSet("BC")))
              .status()
              .code(),
          refused)
          << label;
      EXPECT_EQ(engine->AddQuery("select A, count(*) from R group by A")
                    .status()
                    .code(),
                refused)
          << label;
      EXPECT_EQ(engine->DropQuery(1).code(), refused) << label;

      EXPECT_TRUE(engine->counters() == counters) << label;
      EXPECT_TRUE(AllResults(*engine) == results) << label;
      EXPECT_EQ(engine->num_query_ids(), 2) << label;
      EXPECT_TRUE(engine->IsLive(1)) << label;
    }
  }
}

// --- Process buffers records; every other call drains them ---------------

/// Asserts that `buffered` answers every read as `direct` does: counters,
/// each table's probes and collisions, and per id its epochs and its result
/// for `epoch`. Each read drains Process's buffer on its own, so only the
/// first read of a round can see a buffered record: `first` picks which
/// read that is.
void ExpectSameReads(const StreamAggEngine& buffered,
                     const StreamAggEngine& direct, uint64_t epoch,
                     int first) {
  for (int k = 0; k < 4; ++k) {
    switch ((first + k) % 4) {
      case 0:
        EXPECT_TRUE(buffered.counters() == direct.counters()) << "counters";
        break;
      case 1: {
        const TelemetrySnapshot got = buffered.telemetry();
        const TelemetrySnapshot want = direct.telemetry();
        ASSERT_EQ(got.tables.size(), want.tables.size());
        for (size_t t = 0; t < got.tables.size(); ++t) {
          EXPECT_EQ(got.tables[t].probes, want.tables[t].probes)
              << got.tables[t].relation;
          EXPECT_EQ(got.tables[t].collisions, want.tables[t].collisions)
              << got.tables[t].relation;
        }
        break;
      }
      case 2:
        for (int q = 0; q < direct.num_query_ids(); ++q) {
          EXPECT_EQ(buffered.Epochs(q), direct.Epochs(q)) << "query " << q;
        }
        break;
      case 3:
        for (int q = 0; q < direct.num_query_ids(); ++q) {
          EXPECT_TRUE(buffered.EpochResult(q, epoch) ==
                      direct.EpochResult(q, epoch))
              << "query " << q;
        }
        break;
    }
  }
}

TEST(StreamAggEngineTest, ReadsSeeEveryRecordProcessAccepted) {
  // Process holds up to 63 records of the epoch in flight; every read and
  // churn call must drain them first. A twin fed the same records by
  // one-record ProcessBatch calls holds none back, so after every call the
  // two must answer each read alike, across epoch boundaries and churn. The
  // tight budget makes the query tables evict from an epoch's first
  // records, so the in-flight epoch's results move with almost every one.
  const Schema schema = *Schema::Default(4);
  auto gen = std::move(UniformGenerator::Make(schema, 3000, 53)).value();
  const Trace trace = Trace::Generate(*gen, 6000, 6.0);
  StreamAggEngine::Options options = BaseOptions();
  options.epoch_seconds = 1.0;  // 1000 records per epoch.
  options.sample_size = 800;
  options.memory_words = 4000.0;
  options.telemetry_epoch_snapshots = true;
  const std::vector<QueryDef> queries = {
      QueryDef(*schema.ParseAttributeSet("AB")),
      QueryDef(*schema.ParseAttributeSet("BC")),
      QueryDef(*schema.ParseAttributeSet("CD"))};
  auto buffered =
      std::move(StreamAggEngine::FromQueryDefs(schema, queries, options))
          .value();
  auto direct =
      std::move(StreamAggEngine::FromQueryDefs(schema, queries, options))
          .value();

  const size_t kAddAfter = 2500;   // Epoch 2.
  const size_t kDropAfter = 4300;  // Epoch 4.
  for (size_t i = 0; i < trace.size() && !HasFailure(); ++i) {
    const Record& r = trace.records()[i];
    ASSERT_TRUE(buffered->Process(r).ok());
    ASSERT_TRUE(direct->ProcessBatch(std::span<const Record>(&r, 1)).ok());
    const uint64_t epoch = static_cast<uint64_t>(r.timestamp);
    SCOPED_TRACE("after record " + std::to_string(i));
    ExpectSameReads(*buffered, *direct, epoch, static_cast<int>(i % 4));
    if (i == kAddAfter) {
      const QueryDef added(*schema.ParseAttributeSet("BD"));
      auto id = buffered->AddQuery(added);
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      EXPECT_EQ(*id, *direct->AddQuery(added));
      ExpectSameReads(*buffered, *direct, epoch, 0);
    }
    if (i == kDropAfter) {
      ASSERT_TRUE(buffered->DropQuery(0).ok());
      ASSERT_TRUE(direct->DropQuery(0).ok());
      ExpectSameReads(*buffered, *direct, epoch, 0);
    }
  }
  ASSERT_TRUE(buffered->planned());
  // The window really crossed boundaries, and the history agrees too.
  EXPECT_GE(direct->telemetry_history().size(), 4u);
  ExpectSameEngineRecord(*buffered, *direct, "final");
}

TEST(StreamAggEngineTest, MidEpochReadKeepsPinnedBoundarySteps) {
  // A pinned-plan engine is live from its first record. A read that drains
  // every record of its first epoch must not cost the next epoch its
  // boundary step: the snapshots must match a twin fed by one-record
  // ProcessBatch calls with no read, whichever epoch the stream starts in.
  const Trace source = UniformTrace(500, 4000, 59);
  const Schema& schema = source.schema();
  const std::vector<QueryDef> queries = {
      QueryDef(*schema.ParseAttributeSet("AB")),
      QueryDef(*schema.ParseAttributeSet("CD"))};
  TraceStats stats(&source);
  const RelationCatalog catalog =
      RelationCatalog::FromTrace(&stats, /*clustered=*/false);
  const OptimizedPlan plan = *Optimizer().Optimize(catalog, queries, 30000.0);
  StreamAggEngine::Options options = BaseOptions();
  options.epoch_seconds = 1.0;
  options.telemetry_epoch_snapshots = true;

  for (const double start : {0.0, 5.0}) {
    SCOPED_TRACE("stream starts at " + std::to_string(start) + " s");
    // 30 records in the first half of the first epoch, then 3000 over the
    // next three epochs.
    std::vector<Record> records(source.records().begin(),
                                source.records().begin() + 3030);
    for (size_t i = 0; i < records.size(); ++i) {
      records[i].timestamp =
          i < 30 ? start + 0.5 * static_cast<double>(i) / 30.0
                 : start + 1.0 + 3.0 * static_cast<double>(i - 30) / 3000.0;
    }
    auto reader =
        std::move(StreamAggEngine::FromPinnedPlan(schema, plan, {}, options))
            .value();
    auto twin =
        std::move(StreamAggEngine::FromPinnedPlan(schema, plan, {}, options))
            .value();
    for (size_t i = 0; i < records.size(); ++i) {
      ASSERT_TRUE(reader->Process(records[i]).ok());
      ASSERT_TRUE(
          twin->ProcessBatch(std::span<const Record>(&records[i], 1)).ok());
      if (i == 29) {
        EXPECT_EQ(reader->counters().records, 30u);
      }
    }

    const std::vector<TelemetrySnapshot>& want = twin->telemetry_history();
    ASSERT_EQ(want.size(), 3u);
    EXPECT_EQ(want.front().epoch, static_cast<uint64_t>(start));
    ExpectSameEngineRecord(*reader, *twin, "reader vs twin");
  }
}

// --- Online query churn (docs/query_frontend.md §4) ----------------------

TEST(StreamAggEngineChurnTest, AddQueryFromTextMidStream) {
  const Trace trace = UniformTrace(500, 60000, 71);
  const Schema& schema = trace.schema();
  auto engine = StreamAggEngine::FromQueryTexts(
      schema, {"select A, B, count(*) from R group by A, B, time/2"},
      BaseOptions());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  int added = -1;
  for (size_t i = 0; i < trace.size(); ++i) {
    if (i == 30000) {
      // The text parses against the live relation name and engine epoch.
      auto id = (*engine)->AddQuery(
          "select C, D, sum(A) from R group by C, D epoch 2");
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      added = *id;
      EXPECT_EQ(added, 1);
      EXPECT_TRUE((*engine)->IsLive(added));
      EXPECT_EQ((*engine)->num_query_ids(), 2);
      EXPECT_EQ((*engine)->parsed_queries().size(), 2u);
    }
    ASSERT_TRUE((*engine)->Process(trace.record(i)).ok());
  }
  ASSERT_TRUE((*engine)->Finish().ok());

  ASSERT_EQ((*engine)->churn_events().size(), 1u);
  const QueryChurnEvent& event = (*engine)->churn_events().front();
  EXPECT_TRUE(event.add);
  EXPECT_EQ(event.query_id, added);
  EXPECT_FALSE(event.aliased);
  EXPECT_GE(event.optimize_millis, 0.0);
  EXPECT_FALSE((*engine)->Epochs(added).empty());
}

TEST(StreamAggEngineChurnTest, AddQueryTextRejections) {
  const Trace trace = UniformTrace(400, 40000, 73);
  const Schema& schema = trace.schema();
  auto engine = StreamAggEngine::FromQueryTexts(
      schema,
      {"select A, count(*) from R where D < 4 group by A, time/2"},
      BaseOptions());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  for (size_t i = 0; i < 30000; ++i) {
    ASSERT_TRUE((*engine)->Process(trace.record(i)).ok());
  }

  // Epoch disagreement names both lengths.
  auto bad = (*engine)->AddQuery(
      "select B, count(*) from R where D < 4 group by B, time/60");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().ToString().find("60"), std::string::npos);
  EXPECT_NE(bad.status().ToString().find("2"), std::string::npos);

  // A different where clause breaks phantom sharing.
  bad = (*engine)->AddQuery("select B, count(*) from R group by B, time/2");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().ToString().find("where clause"), std::string::npos);

  // A typo'd relation fails at parse time with the known relation listed.
  bad = (*engine)->AddQuery(
      "select B, count(*) from S where D < 4 group by B, time/2");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().ToString().find("R"), std::string::npos);

  // Same group-by as a live query but different metrics: rejected, not
  // aliased (the slot cannot serve both result shapes).
  bad = (*engine)->AddQuery(
      "select A, sum(B) from R where D < 4 group by A, time/2");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().ToString().find("different metrics"),
            std::string::npos);

  // Nothing above disturbed the engine.
  EXPECT_EQ((*engine)->num_query_ids(), 1);
  EXPECT_TRUE((*engine)->churn_events().empty());
  for (size_t i = 30000; i < trace.size(); ++i) {
    ASSERT_TRUE((*engine)->Process(trace.record(i)).ok());
  }
  ASSERT_TRUE((*engine)->Finish().ok());
}

TEST(StreamAggEngineChurnTest, DropQueryGuards) {
  const Trace trace = UniformTrace(400, 50000, 79);
  const Schema& schema = trace.schema();
  auto engine = StreamAggEngine::FromQueryDefs(
      schema,
      {QueryDef(*schema.ParseAttributeSet("AB")),
       QueryDef(*schema.ParseAttributeSet("CD"))},
      BaseOptions());
  ASSERT_TRUE(engine.ok());
  for (size_t i = 0; i < 30000; ++i) {
    ASSERT_TRUE((*engine)->Process(trace.record(i)).ok());
  }

  EXPECT_FALSE((*engine)->DropQuery(-1).ok());
  EXPECT_FALSE((*engine)->DropQuery(7).ok());
  ASSERT_TRUE((*engine)->DropQuery(1).ok());
  // Already dropped.
  const Status twice = (*engine)->DropQuery(1);
  ASSERT_FALSE(twice.ok());
  EXPECT_NE(twice.ToString().find("already dropped"), std::string::npos);
  // Never below one live query.
  const Status last = (*engine)->DropQuery(0);
  ASSERT_FALSE(last.ok());
  EXPECT_NE(last.ToString().find("last live query"), std::string::npos);

  for (size_t i = 30000; i < trace.size(); ++i) {
    ASSERT_TRUE((*engine)->Process(trace.record(i)).ok());
  }
  ASSERT_TRUE((*engine)->Finish().ok());
  EXPECT_TRUE((*engine)->IsLive(0));
  EXPECT_FALSE((*engine)->IsLive(1));
}

TEST(StreamAggEngineChurnTest, ChurnEventsExportedThroughTelemetry) {
  const Trace trace = UniformTrace(500, 60000, 83);
  const Schema& schema = trace.schema();
  auto engine = StreamAggEngine::FromQueryDefs(
      schema,
      {QueryDef(*schema.ParseAttributeSet("AB")),
       QueryDef(*schema.ParseAttributeSet("CD"))},
      BaseOptions());
  ASSERT_TRUE(engine.ok());
  for (size_t i = 0; i < trace.size(); ++i) {
    if (i == 30000) {
      ASSERT_TRUE(
          (*engine)->AddQuery(QueryDef(*schema.ParseAttributeSet("BC"))).ok());
    }
    if (i == 45000) {
      ASSERT_TRUE((*engine)->DropQuery(0).ok());
    }
    ASSERT_TRUE((*engine)->Process(trace.record(i)).ok());
  }
  ASSERT_TRUE((*engine)->Finish().ok());

  ASSERT_EQ((*engine)->churn_events().size(), 2u);
  const TelemetrySnapshot snap = (*engine)->telemetry();
  ASSERT_EQ(snap.query_churn.size(), 2u);
  EXPECT_TRUE(snap.query_churn[0] == (*engine)->churn_events()[0]);
  EXPECT_TRUE(snap.query_churn[1] == (*engine)->churn_events()[1]);
  EXPECT_TRUE(snap.query_churn[0].add);
  EXPECT_FALSE(snap.query_churn[1].add);

  // The section survives the JSON line round trip bit-exactly and renders
  // in the human table.
  const std::string line = snap.ToJsonLine();
  EXPECT_NE(line.find("\"query_churn\""), std::string::npos);
  EXPECT_NE(line.find("\"action\":\"add\""), std::string::npos);
  EXPECT_NE(line.find("\"action\":\"drop\""), std::string::npos);
  auto restored = TelemetrySnapshot::FromJsonLine(line);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ASSERT_EQ(restored->query_churn.size(), 2u);
  EXPECT_TRUE(restored->query_churn[0] == snap.query_churn[0]);
  EXPECT_TRUE(restored->query_churn[1] == snap.query_churn[1]);
  EXPECT_NE(snap.ToTable().find("query churn:"), std::string::npos);
}

TEST(StreamAggEngineChurnTest, ChurnReserveKeepsGraftHeadroom) {
  // With a reserve the initial plan leaves budget a later graft may spend;
  // the engine runs exactly as without one (results are checked by the
  // differential suite — here the lifecycle and the budget accounting).
  const Trace trace = UniformTrace(500, 60000, 89);
  const Schema& schema = trace.schema();
  StreamAggEngine::Options options = BaseOptions();
  options.churn_reserve_fraction = 0.25;
  auto engine = StreamAggEngine::FromQueryDefs(
      schema,
      {QueryDef(*schema.ParseAttributeSet("AB")),
       QueryDef(*schema.ParseAttributeSet("CD"))},
      options);
  ASSERT_TRUE(engine.ok());
  int added = -1;
  for (size_t i = 0; i < trace.size(); ++i) {
    if (i == 30000) {
      auto id =
          (*engine)->AddQuery(QueryDef(*schema.ParseAttributeSet("BD")));
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      added = *id;
    }
    ASSERT_TRUE((*engine)->Process(trace.record(i)).ok());
  }
  ASSERT_TRUE((*engine)->Finish().ok());
  EXPECT_TRUE((*engine)->IsLive(added));
  EXPECT_FALSE((*engine)->Epochs(added).empty());
}

TEST(StreamAggEngineChurnTest, PinnedPlanWithoutCountsRejectsLiveChurn) {
  // A pinned-plan engine with no catalog counts cannot re-plan: live
  // AddQuery/DropQuery fail cleanly and leave the engine running.
  const Schema schema = *Schema::Default(4);
  auto catalog = RelationCatalog::Synthetic(
      schema, {{AttributeSet::Single(0).mask(), 100},
               {AttributeSet::Single(1).mask(), 100},
               {AttributeSet::Single(2).mask(), 100},
               {AttributeSet::Single(3).mask(), 100}});
  ASSERT_TRUE(catalog.ok());
  Optimizer optimizer;
  OptimizedPlan plan = *optimizer.Optimize(
      *catalog,
      std::vector<QueryDef>{QueryDef(*schema.ParseAttributeSet("AB")),
                            QueryDef(*schema.ParseAttributeSet("CD"))},
      20000.0);
  auto engine = StreamAggEngine::FromPinnedPlan(schema, std::move(plan), {},
                                                BaseOptions());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  auto added = (*engine)->AddQuery(QueryDef(*schema.ParseAttributeSet("BC")));
  ASSERT_FALSE(added.ok());
  EXPECT_NE(added.status().ToString().find("statistics"), std::string::npos);
  const Status dropped = (*engine)->DropQuery(0);
  ASSERT_FALSE(dropped.ok());
  EXPECT_NE(dropped.ToString().find("statistics"), std::string::npos);
  EXPECT_EQ((*engine)->num_query_ids(), 2);
  EXPECT_TRUE((*engine)->IsLive(0));
}

TEST(StreamAggEngineChurnTest, HftaGroupsCountEveryRowHeldPerQuery) {
  // Every runtime writes into the engine's one HFTA, so hfta_groups counts
  // every row the engine holds for a live query — before and after a
  // mid-epoch swap — not only the rows since the last swap.
  const Trace trace = UniformTrace(500, 60000, 83);
  StreamAggEngine::Options options = BaseOptions();
  options.sample_size = 5000;
  auto engine = StreamAggEngine::FromQueryDefs(
      trace.schema(),
      {QueryDef(*trace.schema().ParseAttributeSet("AB")),
       QueryDef(*trace.schema().ParseAttributeSet("BC"))},
      options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  const auto expect_rows_match = [&](const std::string& label) {
    const TelemetrySnapshot snapshot = (*engine)->telemetry();
    ASSERT_EQ(snapshot.hfta_groups.size(),
              static_cast<size_t>((*engine)->num_queries()))
        << label;
    for (int q = 0; q < (*engine)->num_query_ids(); ++q) {
      ASSERT_TRUE((*engine)->IsLive(q));  // No drops: id == dense slot.
      uint64_t rows = 0;
      for (uint64_t epoch : (*engine)->Epochs(q)) {
        rows += (*engine)->EpochResult(q, epoch).size();
      }
      EXPECT_GT(rows, 0u) << label << " query " << q;
      EXPECT_EQ(snapshot.hfta_groups[static_cast<size_t>(q)], rows)
          << label << " query " << q;
    }
  };
  for (size_t i = 0; i < trace.size(); ++i) {
    // 5 s into a 10 s trace: the middle of epoch 2 (epochs are 2 s), after
    // two closed epochs.
    if (i == trace.size() / 2) {
      auto id = (*engine)->AddQuery(
          QueryDef(*trace.schema().ParseAttributeSet("CD")));
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      ASSERT_EQ(*id, 2);
    }
    ASSERT_TRUE((*engine)->Process(trace.record(i)).ok());
  }
  ASSERT_EQ((*engine)->churn_events().size(), 1u);
  EXPECT_FALSE((*engine)->churn_events().front().aliased);
  expect_rows_match("before Finish");
  ASSERT_TRUE((*engine)->Finish().ok());
  expect_rows_match("after Finish");
}

TEST(StreamAggEngineChurnTest, HistorySnapshotsCarryNoEventLists) {
  // One add or drop per epoch with snapshots on. A history capture does not
  // copy the churn (or re-plan) log, so it costs the same at every epoch;
  // telemetry() and churn_events() still carry every event.
  const Trace trace = UniformTrace(500, 60000, 97);
  const Schema& schema = trace.schema();
  StreamAggEngine::Options options = BaseOptions();
  options.sample_size = 2000;
  options.epoch_seconds = 1.0;
  options.telemetry_epoch_snapshots = true;
  auto engine = StreamAggEngine::FromQueryDefs(
      schema,
      {QueryDef(*schema.ParseAttributeSet("A")),
       QueryDef(*schema.ParseAttributeSet("B"))},
      options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  uint64_t epoch = 0;
  int added = -1;
  for (size_t i = 0; i < trace.size(); ++i) {
    const auto e = static_cast<uint64_t>(std::floor(trace.record(i).timestamp));
    if (e != epoch) {
      epoch = e;
      if (added < 0) {
        auto id = (*engine)->AddQuery(QueryDef(*schema.ParseAttributeSet("C")));
        ASSERT_TRUE(id.ok()) << id.status().ToString();
        added = *id;
      } else {
        ASSERT_TRUE((*engine)->DropQuery(added).ok());
        added = -1;
      }
    }
    ASSERT_TRUE((*engine)->Process(trace.record(i)).ok());
  }
  ASSERT_TRUE((*engine)->Finish().ok());

  const size_t events = (*engine)->churn_events().size();
  ASSERT_GE(events, 8u);
  EXPECT_EQ((*engine)->telemetry().query_churn.size(), events);
  const std::vector<TelemetrySnapshot>& history =
      (*engine)->telemetry_history();
  ASSERT_GE(history.size(), 8u);
  for (const TelemetrySnapshot& snapshot : history) {
    EXPECT_TRUE(snapshot.query_churn.empty()) << "epoch " << snapshot.epoch;
    EXPECT_TRUE(snapshot.replans.empty()) << "epoch " << snapshot.epoch;
  }
}

TEST(StreamAggEngineChurnTest, UnsortedMetricListsMatchSortedOnes) {
  // A QueryDef may list its metrics in any order and repeat one. The engine
  // keeps each list sorted and deduplicated, the layout the runtimes' states
  // follow, so its HFTA merges every metric under its own op: repeated
  // evictions at 1x1 and the replica drain at 1x2 alike.
  const Trace trace = UniformTrace(2000, 60000, 89);
  const Schema& schema = trace.schema();
  const MetricSpec sum_d{AggregateOp::kSum, 3};
  const MetricSpec max_d{AggregateOp::kMax, 3};
  const MetricSpec min_c{AggregateOp::kMin, 2};
  for (int shards : {1, 2}) {
    StreamAggEngine::Options options = BaseOptions();
    options.memory_words = 3000.0;  // Small tables: many repeated evictions.
    options.sample_size = 5000;
    options.num_shards = shards;
    const auto run = [&](std::vector<MetricSpec> ab_metrics,
                         std::vector<MetricSpec> cd_metrics) {
      auto engine = StreamAggEngine::FromQueryDefs(
          schema,
          {QueryDef(*schema.ParseAttributeSet("AB"), std::move(ab_metrics)),
           QueryDef(*schema.ParseAttributeSet("BC"))},
          options);
      EXPECT_TRUE(engine.ok()) << engine.status().ToString();
      for (size_t i = 0; i < trace.size(); ++i) {
        if (i == trace.size() / 2) {
          EXPECT_TRUE((*engine)
                          ->AddQuery(QueryDef(*schema.ParseAttributeSet("CD"),
                                              cd_metrics))
                          .ok());
        }
        EXPECT_TRUE((*engine)->Process(trace.record(i)).ok());
      }
      EXPECT_TRUE((*engine)->Finish().ok());
      return std::move(engine).value();
    };
    const auto unsorted = run({max_d, sum_d}, {max_d, min_c, max_d});
    const auto sorted = run({sum_d, max_d}, {min_c, max_d});
    for (int q = 0; q < 3; ++q) {
      const std::vector<uint64_t> epochs = sorted->Epochs(q);
      ASSERT_FALSE(epochs.empty());
      ASSERT_EQ(unsorted->Epochs(q), epochs) << "shards=" << shards;
      for (uint64_t epoch : epochs) {
        const EpochAggregate& want = sorted->EpochResult(q, epoch);
        const EpochAggregate& got = unsorted->EpochResult(q, epoch);
        ASSERT_EQ(got.size(), want.size());
        size_t differing = 0;
        for (const auto& [key, state] : want) {
          auto it = got.find(key);
          if (it == got.end() || !(it->second == state)) ++differing;
        }
        EXPECT_EQ(differing, 0u)
            << "shards=" << shards << " query " << q << " epoch " << epoch;
      }
    }
  }
}

// --- ValidateOptions: one test per rejected combination, each message
// naming Options::<field> and the offending value (PR 4/6 convention). ---

TEST(EngineValidation, RejectsNonPositiveNumShards) {
  StreamAggEngine::Options options = BaseOptions();
  options.num_shards = 0;
  auto engine = StreamAggEngine::FromQueryDefs(
      *Schema::Default(2), {QueryDef(AttributeSet::Single(0))}, options);
  ASSERT_FALSE(engine.ok());
  EXPECT_NE(engine.status().ToString().find(
                "Options::num_shards must be >= 1 (got 0)"),
            std::string::npos)
      << engine.status().ToString();
}

TEST(EngineValidation, RejectsTinyShardQueue) {
  StreamAggEngine::Options options = BaseOptions();
  options.shard_queue_capacity = 1;
  auto engine = StreamAggEngine::FromQueryDefs(
      *Schema::Default(2), {QueryDef(AttributeSet::Single(0))}, options);
  ASSERT_FALSE(engine.ok());
  EXPECT_NE(engine.status().ToString().find(
                "Options::shard_queue_capacity must be >= 2 (got 1)"),
            std::string::npos)
      << engine.status().ToString();
}

TEST(EngineValidation, RejectsOverloadAtTelemetryOff) {
  StreamAggEngine::Options options = BaseOptions();
  options.overload.enabled = true;
  options.telemetry_level = TelemetryLevel::kOff;
  auto engine = StreamAggEngine::FromQueryDefs(
      *Schema::Default(2), {QueryDef(AttributeSet::Single(0))}, options);
  ASSERT_FALSE(engine.ok());
  EXPECT_NE(engine.status().ToString().find(
                "Options::overload.enabled requires Options::telemetry_level "
                "above kOff (got kOff)"),
            std::string::npos)
      << engine.status().ToString();
}

TEST(EngineValidation, RejectsNegativeChurnReserve) {
  StreamAggEngine::Options options = BaseOptions();
  options.churn_reserve_fraction = -0.1;
  auto engine = StreamAggEngine::FromQueryDefs(
      *Schema::Default(2), {QueryDef(AttributeSet::Single(0))}, options);
  ASSERT_FALSE(engine.ok());
  EXPECT_NE(engine.status().ToString().find(
                "Options::churn_reserve_fraction must be in [0, 0.9] "
                "(got -0.1)"),
            std::string::npos)
      << engine.status().ToString();
}

TEST(EngineValidation, RejectsOverlargeChurnReserve) {
  // Above 0.9 the initial plan would starve; churn composes with adaptive
  // and overload, so the range check is the only churn rejection.
  StreamAggEngine::Options options = BaseOptions();
  options.churn_reserve_fraction = 0.95;
  options.adaptive = true;
  options.overload.enabled = true;
  auto engine = StreamAggEngine::FromQueryDefs(
      *Schema::Default(2), {QueryDef(AttributeSet::Single(0))}, options);
  ASSERT_FALSE(engine.ok());
  EXPECT_NE(engine.status().ToString().find(
                "Options::churn_reserve_fraction must be in [0, 0.9] "
                "(got 0.95)"),
            std::string::npos)
      << engine.status().ToString();
}

TEST(EngineValidation, RejectsNonPositiveAdaptiveTrendEpochs) {
  // A trend window of no epochs cannot judge anything.
  for (const int trend_epochs : {0, -3}) {
    StreamAggEngine::Options options = BaseOptions();
    options.adaptive_options.trend_epochs = trend_epochs;
    auto engine = StreamAggEngine::FromQueryDefs(
        *Schema::Default(2), {QueryDef(AttributeSet::Single(0))}, options);
    ASSERT_FALSE(engine.ok()) << trend_epochs;
    EXPECT_NE(engine.status().ToString().find(
                  "Options::adaptive_options.trend_epochs must be >= 1 (got " +
                  std::to_string(trend_epochs) + ")"),
              std::string::npos)
        << engine.status().ToString();
  }
}

TEST(EngineValidation, RejectsAdaptiveWideningSlackOutsideUnitRange) {
  for (const double slack : {-0.25, 1.5}) {
    StreamAggEngine::Options options = BaseOptions();
    options.adaptive_options.widening_slack = slack;
    auto engine = StreamAggEngine::FromQueryDefs(
        *Schema::Default(2), {QueryDef(AttributeSet::Single(0))}, options);
    ASSERT_FALSE(engine.ok()) << slack;
    EXPECT_NE(engine.status().ToString().find(
                  "Options::adaptive_options.widening_slack must be in [0, 1] "
                  "(got " +
                  std::to_string(slack) + ")"),
              std::string::npos)
        << engine.status().ToString();
  }
}

TEST(EngineValidation, RejectsNonPositiveOrNanMemoryWords) {
  for (double words : {0.0, -40000.0, std::nan("")}) {
    StreamAggEngine::Options options = BaseOptions();
    options.memory_words = words;
    auto engine = StreamAggEngine::FromQueryDefs(
        *Schema::Default(2), {QueryDef(AttributeSet::Single(0))}, options);
    ASSERT_FALSE(engine.ok()) << words;
    EXPECT_NE(engine.status().ToString().find(
                  "Options::memory_words must be > 0 (got " +
                  std::to_string(words) + ")"),
              std::string::npos)
        << engine.status().ToString();
  }
}

TEST(EngineValidation, RejectsNegativeOrNanEpochSeconds) {
  const Schema schema = *Schema::Default(2);
  for (double seconds : {-2.0, std::nan("")}) {
    StreamAggEngine::Options options = BaseOptions();
    options.epoch_seconds = seconds;
    auto engine = StreamAggEngine::FromQueryDefs(
        schema, {QueryDef(AttributeSet::Single(0))}, options);
    ASSERT_FALSE(engine.ok()) << seconds;
    EXPECT_NE(engine.status().ToString().find(
                  "Options::epoch_seconds must be >= 0 (got " +
                  std::to_string(seconds) + ")"),
              std::string::npos)
        << engine.status().ToString();
    // From texts, the epoch that counts is the one the engine will use.
    EXPECT_FALSE(StreamAggEngine::FromQueryTexts(
                     schema, {"select A, count(*) from R group by A"}, options)
                     .ok())
        << seconds;
    auto timed = StreamAggEngine::FromQueryTexts(
        schema, {"select A, count(*) from R group by A, time/5"}, options);
    ASSERT_TRUE(timed.ok()) << timed.status().ToString();
    EXPECT_EQ((*timed)->epoch_seconds(), 5.0);
  }
  // 0 stays the epochless engine.
  StreamAggEngine::Options options = BaseOptions();
  options.epoch_seconds = 0.0;
  auto epochless = StreamAggEngine::FromQueryDefs(
      schema, {QueryDef(AttributeSet::Single(0))}, options);
  ASSERT_TRUE(epochless.ok()) << epochless.status().ToString();
  EXPECT_EQ((*epochless)->epoch_seconds(), 0.0);
}

TEST(EngineValidation, RejectsAdaptivePinnedPlanWithoutCounts) {
  const Schema schema = *Schema::Default(4);
  auto catalog = RelationCatalog::Synthetic(
      schema, {{AttributeSet::Single(0).mask(), 100},
               {AttributeSet::Single(1).mask(), 100},
               {AttributeSet::Single(2).mask(), 100},
               {AttributeSet::Single(3).mask(), 100}});
  ASSERT_TRUE(catalog.ok());
  Optimizer optimizer;
  OptimizedPlan plan = *optimizer.Optimize(
      *catalog,
      std::vector<QueryDef>{QueryDef(*schema.ParseAttributeSet("AB"))},
      20000.0);
  StreamAggEngine::Options options = BaseOptions();
  options.adaptive = true;
  auto engine =
      StreamAggEngine::FromPinnedPlan(schema, std::move(plan), {}, options);
  ASSERT_FALSE(engine.ok());
  EXPECT_NE(engine.status().ToString().find(
                "Options::adaptive requires catalog counts for pinned-plan "
                "engines (got adaptive=true with 0 catalog counts)"),
            std::string::npos)
      << engine.status().ToString();
}

/// Builds a non-adaptive pinned-plan engine for query AB over a 4-attribute
/// schema with `counts` as its catalog counts.
Result<std::unique_ptr<StreamAggEngine>> PinnedPlanWithCounts(
    std::map<uint32_t, uint64_t> counts) {
  const Schema schema = *Schema::Default(4);
  auto catalog = RelationCatalog::Synthetic(
      schema, {{AttributeSet::Single(0).mask(), 100},
               {AttributeSet::Single(1).mask(), 100},
               {AttributeSet::Single(2).mask(), 100},
               {AttributeSet::Single(3).mask(), 100}});
  OptimizedPlan plan = *Optimizer().Optimize(
      *catalog,
      std::vector<QueryDef>{QueryDef(*schema.ParseAttributeSet("AB"))},
      20000.0);
  return StreamAggEngine::FromPinnedPlan(schema, std::move(plan),
                                         std::move(counts), BaseOptions());
}

// Counts given without adaptivity still feed model predictions and churn
// planning, so counts that make no valid catalog are rejected, not dropped.
TEST(EngineValidation, RejectsPinnedPlanCountsMissingAnAttribute) {
  auto engine = PinnedPlanWithCounts({{AttributeSet::Single(0).mask(), 100},
                                      {AttributeSet::Single(1).mask(), 100},
                                      {AttributeSet::Single(2).mask(), 100}});
  ASSERT_FALSE(engine.ok());
  EXPECT_NE(engine.status().ToString().find(
                "synthetic catalog needs a group count for every single "
                "attribute (missing D)"),
            std::string::npos)
      << engine.status().ToString();
}

TEST(EngineValidation, RejectsPinnedPlanZeroCount) {
  auto engine = PinnedPlanWithCounts({{AttributeSet::Single(0).mask(), 100},
                                      {AttributeSet::Single(1).mask(), 100},
                                      {AttributeSet::Single(2).mask(), 100},
                                      {AttributeSet::Single(3).mask(), 0}});
  ASSERT_FALSE(engine.ok());
  EXPECT_NE(engine.status().ToString().find("zero group count"),
            std::string::npos)
      << engine.status().ToString();
}

TEST(EngineValidation, RejectsPinnedPlanCountsOutsideTheSchema) {
  auto engine = PinnedPlanWithCounts({{AttributeSet::Single(0).mask(), 100},
                                      {AttributeSet::Single(1).mask(), 100},
                                      {AttributeSet::Single(2).mask(), 100},
                                      {AttributeSet::Single(3).mask(), 100},
                                      {AttributeSet::Single(5).mask(), 100}});
  ASSERT_FALSE(engine.ok());
  EXPECT_NE(engine.status().ToString().find(
                "group count for set outside schema"),
            std::string::npos)
      << engine.status().ToString();
}

}  // namespace
}  // namespace streamagg
