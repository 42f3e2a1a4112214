// Overload differential harness (docs/overload.md): an enabled-but-idle
// overload controller must be invisible — epoch-for-epoch bit-identical
// results AND counters against the same engine without the controller, on
// every shard count of the acceptance matrix. With a forced shed floor the
// drop counts must be exact (error diffusion, no RNG), the reported shed
// fraction must equal the actual dropped-record count. Engine scenarios run
// at several batch sizes; a batched engine keeps the per-record engine's
// exact record.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "core/engine.h"
#include "dsms/overload_controller.h"
#include "dsms/reference_aggregator.h"
#include "engine_parity.h"
#include "obs/telemetry.h"
#include "stream/zipf_generator.h"

namespace streamagg {
namespace {

/// Base seed for the randomized workloads; override with
/// STREAMAGG_DIFF_SEED=<n> to explore other draws (CI runs three — the
/// invariants here hold for every draw, not just the defaults).
uint64_t HarnessSeed() {
  if (const char* env = std::getenv("STREAMAGG_DIFF_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 4242;
}

Trace ZipfTrace(uint64_t seed) {
  const Schema schema = *Schema::Default(4);
  auto universe = GroupUniverse::Uniform(schema, 800, {60, 60, 60, 60}, seed);
  auto gen =
      std::move(ZipfGenerator::Make(std::move(*universe), 1.0, seed + 1))
          .value();
  return Trace::Generate(*gen, 60000, 12.0);
}

std::vector<QueryDef> TwoQueries(const Schema& schema) {
  return {QueryDef(*schema.ParseAttributeSet("AB")),
          QueryDef(*schema.ParseAttributeSet("CD"))};
}

StreamAggEngine::Options BaseOptions(int shards) {
  StreamAggEngine::Options options;
  options.memory_words = 30000.0;
  options.sample_size = 10000;
  options.epoch_seconds = 2.0;
  options.clustered = false;
  options.num_shards = shards;
  return options;
}

/// The acceptance matrix's shard counts.
constexpr int kShardCounts[] = {1, 4};

/// Feeds `trace` through a fresh engine in calls of `batch` records and
/// returns it finished.
std::unique_ptr<StreamAggEngine> RunEngine(
    const Trace& trace, const std::vector<QueryDef>& queries,
    const StreamAggEngine::Options& options, size_t batch) {
  auto engine =
      StreamAggEngine::FromQueryDefs(trace.schema(), queries, options);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  if (!engine.ok()) return nullptr;
  const Status status = FeedInCalls(&**engine, trace.records(), batch);
  EXPECT_TRUE(status.ok()) << status.ToString();
  if (!status.ok()) return nullptr;
  EXPECT_TRUE((*engine)->Finish().ok());
  return std::move(*engine);
}

/// Asserts every epoch of every query matches the serial reference
/// aggregation exactly (count-for-count, group-for-group).
void ExpectMatchesReference(const StreamAggEngine& engine, const Trace& trace,
                            const std::vector<QueryDef>& queries,
                            double epoch_seconds) {
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const auto expected = ComputeReferenceAggregate(
        trace, queries[qi].group_by, epoch_seconds);
    const std::vector<uint64_t> epochs =
        engine.Epochs(static_cast<int>(qi));
    ASSERT_EQ(epochs.size(), expected.size()) << "query " << qi;
    for (const auto& [epoch, groups] : expected) {
      const EpochAggregate& actual =
          engine.EpochResult(static_cast<int>(qi), epoch);
      ASSERT_EQ(actual.size(), groups.size())
          << "query " << qi << " epoch " << epoch;
      for (const auto& [key, state] : groups) {
        auto it = actual.find(key);
        ASSERT_NE(it, actual.end()) << "query " << qi << " epoch " << epoch
                                    << " missing " << key.ToString();
        EXPECT_EQ(it->second.count, state.count)
            << "query " << qi << " epoch " << epoch << " " << key.ToString();
      }
    }
  }
}

TEST(OverloadDifferentialTest, IdleControllerIsBitIdenticalOnAllSplits) {
  // Watermarks set astronomically high and a zero shed floor: the
  // controller runs its whole epoch-boundary loop (pressure judging, plan
  // rebuilds, telemetry annotation) yet must never shed — results AND
  // operation counters stay bit-identical to an engine without it.
  const Trace trace = ZipfTrace(HarnessSeed() + 0x0d1);
  const std::vector<QueryDef> queries = TwoQueries(trace.schema());

  for (int shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const StreamAggEngine::Options baseline = BaseOptions(shards);
    StreamAggEngine::Options overload = baseline;
    overload.overload.enabled = true;
    overload.overload.queue_blocked_fraction = 1e9;  // Never reachable.
    overload.overload.epoch_gap_watermark_ns = 0;    // Signal disabled.
    overload.overload.min_shed_fraction = 0.0;

    std::unique_ptr<StreamAggEngine> per_record;
    for (size_t batch : kBatchSizes) {
      SCOPED_TRACE("batch=" + std::to_string(batch));
      auto a = RunEngine(trace, queries, baseline, batch);
      auto b = RunEngine(trace, queries, overload, batch);
      ASSERT_NE(a, nullptr);
      ASSERT_NE(b, nullptr);

      ExpectMatchesReference(*a, trace, queries, 2.0);
      ExpectMatchesReference(*b, trace, queries, 2.0);
      EXPECT_EQ(b->counters().shed_probes, 0u);
      EXPECT_TRUE(a->counters() == b->counters());
      if (batch == 1) {
        per_record = std::move(b);
        // The controller is on the record even when idle: the telemetry
        // section is present (enabled) with a zero realized fraction.
        const TelemetrySnapshot snapshot = per_record->telemetry();
        EXPECT_TRUE(snapshot.shedding.enabled);
        EXPECT_EQ(snapshot.shedding.shed_probes, 0u);
        EXPECT_DOUBLE_EQ(snapshot.shedding.shed_fraction, 0.0);
        EXPECT_FALSE(a->telemetry().shedding.enabled);
      } else {
        ExpectSameEngineRecord(*b, *per_record, "idle controller");
      }
    }
  }
}

TEST(OverloadDifferentialTest, ShedFloorDropsExactlyOnSerialEngine) {
  // min_shed_fraction = 0.5 (the engine_monitor --overload 2 floor) on the
  // serial path: every raw relation's error-diffusion accumulator drops
  // exactly floor(records / 2) probes, the raw tables' probes + drops close
  // to the record count, and the reported fraction IS the actual count —
  // not an estimate.
  const Trace trace = ZipfTrace(HarnessSeed() + 0x0d2);
  const std::vector<QueryDef> queries = TwoQueries(trace.schema());

  for (const TelemetryLevel level :
       {TelemetryLevel::kCounters, TelemetryLevel::kFull}) {
    std::unique_ptr<StreamAggEngine> per_record;
    for (size_t batch : kBatchSizes) {
      SCOPED_TRACE("level=" + std::to_string(static_cast<int>(level)) +
                   " batch=" + std::to_string(batch));
      StreamAggEngine::Options options = BaseOptions(1);
      options.telemetry_level = level;
      options.overload.enabled = true;
      options.overload.min_shed_fraction = 0.5;
      auto engine = RunEngine(trace, queries, options, batch);
      ASSERT_NE(engine, nullptr);

      const TelemetrySnapshot snapshot = engine->telemetry();
      const SheddingTelemetry& shedding = snapshot.shedding;
      ASSERT_TRUE(shedding.enabled);
      EXPECT_DOUBLE_EQ(shedding.target_fraction, 0.5);
      const uint64_t offered = shedding.offered_records;
      EXPECT_EQ(offered, trace.size());
      ASSERT_FALSE(shedding.relations.empty());

      uint64_t total_shed = 0;
      for (const SheddingRelationTelemetry& rel : shedding.relations) {
        // Numerator 512/1024 diffuses to exactly every second record.
        EXPECT_EQ(rel.shed_records, offered / 2) << rel.relation;
        EXPECT_DOUBLE_EQ(rel.shed_fraction, 0.5) << rel.relation;
        total_shed += rel.shed_records;
        // The books close at the raw table: offered = probed + shed.
        bool found = false;
        for (const TableTelemetry& table : snapshot.tables) {
          if (table.relation != rel.relation || table.parent >= 0) continue;
          EXPECT_EQ(table.probes + rel.shed_records, offered) << rel.relation;
          found = true;
        }
        EXPECT_TRUE(found) << "no raw table for " << rel.relation;
      }
      EXPECT_EQ(shedding.shed_probes, total_shed);
      EXPECT_EQ(engine->counters().shed_probes, total_shed);
      EXPECT_DOUBLE_EQ(
          shedding.shed_fraction,
          static_cast<double>(total_shed) /
              (static_cast<double>(offered) *
               static_cast<double>(shedding.relations.size())));

      // The shedding section survives the JSON round trip at both tiers.
      auto parsed = TelemetrySnapshot::FromJsonLine(snapshot.ToJsonLine());
      ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
      EXPECT_TRUE(parsed->shedding == shedding);
      if (batch == 1) {
        per_record = std::move(engine);
      } else {
        ExpectSameEngineRecord(*engine, *per_record, "shed floor");
      }
    }
  }
}

TEST(OverloadDifferentialTest, SustainedOverloadShedsAndAccountsExactly) {
  // The 2x-overload degradation scenario: small bounded queues, a 2x shed
  // floor, four threaded shards engaged. The engine must run to completion
  // (records shed at the probe; the driver is never wedged), and the reported
  // shed fraction must match the actual dropped-record count exactly, with
  // the per-relation drops summing to the engine counter across shards.
  const Trace trace = ZipfTrace(HarnessSeed() + 0x0d3);
  const std::vector<QueryDef> queries = TwoQueries(trace.schema());

  StreamAggEngine::Options options = BaseOptions(4);
  options.shard_queue_capacity = 64;
  options.telemetry_level = TelemetryLevel::kCounters;
  options.overload.enabled = true;
  options.overload.min_shed_fraction = 0.5;  // --overload 2: 1 - 1/2.
  options.overload.queue_blocked_fraction = 0.02;
  for (size_t batch : kBatchSizes) {
    SCOPED_TRACE("batch=" + std::to_string(batch));
    auto engine = RunEngine(trace, queries, options, batch);
    ASSERT_NE(engine, nullptr);
    EXPECT_EQ(engine->counters().records, trace.size());

    const SheddingTelemetry& shedding = engine->telemetry().shedding;
    ASSERT_TRUE(shedding.enabled);
    EXPECT_GT(shedding.shed_probes, 0u);
    EXPECT_GT(shedding.shed_fraction, 0.0);
    uint64_t total_shed = 0;
    for (const SheddingRelationTelemetry& rel : shedding.relations) {
      total_shed += rel.shed_records;
    }
    EXPECT_EQ(shedding.shed_probes, total_shed);
    EXPECT_EQ(engine->counters().shed_probes, total_shed);
    EXPECT_DOUBLE_EQ(
        shedding.shed_fraction,
        static_cast<double>(total_shed) /
            (static_cast<double>(shedding.offered_records) *
             static_cast<double>(shedding.relations.size())));
    // At a sustained 2x floor essentially half of every relation's probes
    // shed — each shard's accumulator floors independently, so the realized
    // fraction sits within one record per shard of 0.5.
    EXPECT_GT(shedding.shed_fraction, 0.499);
    EXPECT_LE(shedding.shed_fraction, 0.5);
  }
}

}  // namespace
}  // namespace streamagg
