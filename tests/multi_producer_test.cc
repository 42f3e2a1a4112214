// Multi-producer ingest correctness: for every producer/shard split the
// P x S front end must produce exactly the per-epoch aggregates of the
// serial runtime (equivalently, of the direct reference aggregation).
// Parallelism changes scheduling and collision patterns, never answers —
// the epoch-quiescence barrier reduces every interleaving a worker can see
// to a within-epoch permutation, and all supported aggregates are
// order-independent within an epoch.

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "core/configuration.h"
#include "core/engine.h"
#include "dsms/reference_aggregator.h"
#include "dsms/sharded_runtime.h"
#include "stream/flow_generator.h"
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

Trace FlowTrace(uint64_t seed) {
  FlowGeneratorOptions options;
  options.seed = seed;
  auto gen = std::move(FlowGenerator::MakePaperTrace(options)).value();
  return Trace::Generate(*gen, 60000, 12.0);
}

std::vector<RuntimeRelationSpec> SpecsFor(const Schema& schema,
                                          const std::string& config_text,
                                          double buckets_per_table = 128.0) {
  auto config = Configuration::Parse(schema, config_text);
  EXPECT_TRUE(config.ok()) << config_text;
  auto specs = config->ToRuntimeSpecs(
      std::vector<double>(config->num_nodes(), buckets_per_table));
  EXPECT_TRUE(specs.ok());
  return *specs;
}

/// The property at the heart of this test file: run `trace` through a
/// (P, S) front end and demand bit-identical per-epoch aggregates against
/// the reference for every query of the configuration.
void ExpectSplitMatchesReference(const Trace& trace,
                                 const std::string& config_text,
                                 double epoch_seconds, int num_producers,
                                 int num_shards) {
  const std::vector<RuntimeRelationSpec> specs =
      SpecsFor(trace.schema(), config_text);
  ShardedRuntime::Options options;
  options.num_shards = num_shards;
  options.num_producers = num_producers;
  auto sharded =
      ShardedRuntime::Make(trace.schema(), specs, epoch_seconds, options);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  (*sharded)->ProcessTrace(trace);

  auto config = Configuration::Parse(trace.schema(), config_text);
  const std::vector<QueryDef> queries = config->QueryDefs();
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const auto expected = ComputeReferenceAggregate(
        trace, queries[qi].group_by, epoch_seconds, queries[qi].metrics);
    std::string diagnostic;
    EXPECT_TRUE(AggregatesEqual(expected, (*sharded)->hfta(),
                                static_cast<int>(qi), &diagnostic))
        << config_text << " producers=" << num_producers
        << " shards=" << num_shards << " query " << qi << ": " << diagnostic;
  }
  // Record conservation: partitioning and striping lose or duplicate
  // nothing, for any split.
  EXPECT_EQ((*sharded)->counters().records, trace.size())
      << "producers=" << num_producers << " shards=" << num_shards;
}

TEST(MultiProducerTest, AllSplitsMatchReferenceOnZipfTrace) {
  const Trace trace = ZipfTrace(0xa11);
  for (int producers : {1, 2, 4}) {
    for (int shards : {1, 2, 4}) {
      ExpectSplitMatchesReference(trace, "ABCD(AB BCD(BC BD CD))", 3.0,
                                  producers, shards);
    }
  }
}

TEST(MultiProducerTest, AllSplitsMatchReferenceOnFlowTrace) {
  const Trace trace = FlowTrace(0xf2);
  for (int producers : {1, 2, 4}) {
    for (int shards : {1, 2, 4}) {
      ExpectSplitMatchesReference(trace, "ABCD(AB BCD(BC BD CD))", 3.0,
                                  producers, shards);
    }
  }
}

TEST(MultiProducerTest, SingleEpochStreamAcrossSplits) {
  // epoch_seconds == 0: one everlasting epoch, so the multi-producer path
  // never sees a boundary and the whole trace is one striped run.
  const Trace trace = ZipfTrace(0x5e);
  for (int producers : {1, 4}) {
    ExpectSplitMatchesReference(trace, "A B C D", 0.0, producers, 2);
  }
}

TEST(MultiProducerTest, MatchesSerialRuntimeEpochForEpoch) {
  // Against the serial runtime directly (not just the reference): same
  // epochs, same per-epoch results.
  const Trace trace = ZipfTrace(0x91c);
  const std::vector<RuntimeRelationSpec> specs =
      SpecsFor(trace.schema(), "ABCD(AB BCD(BC BD CD))");

  auto serial = ConfigurationRuntime::Make(trace.schema(), specs, 3.0);
  ASSERT_TRUE(serial.ok());
  (*serial)->ProcessTrace(trace);

  ShardedRuntime::Options options;
  options.num_shards = 2;
  options.num_producers = 4;
  auto sharded = ShardedRuntime::Make(trace.schema(), specs, 3.0, options);
  ASSERT_TRUE(sharded.ok());
  (*sharded)->ProcessTrace(trace);

  for (int qi = 0; qi < (*serial)->hfta().num_queries(); ++qi) {
    const std::vector<uint64_t> epochs = (*serial)->hfta().Epochs(qi);
    EXPECT_EQ(epochs, (*sharded)->hfta().Epochs(qi)) << "query " << qi;
    for (uint64_t epoch : epochs) {
      EXPECT_TRUE((*serial)->hfta().Result(qi, epoch) ==
                  (*sharded)->hfta().Result(qi, epoch))
          << "query " << qi << " epoch " << epoch;
    }
  }
}

TEST(MultiProducerTest, ProducerStatsConserveRecordsAndShareWork) {
  const Trace trace = ZipfTrace(0x7c0);
  const std::vector<RuntimeRelationSpec> specs =
      SpecsFor(trace.schema(), "ABCD(AB BCD(BC BD CD))");
  ShardedRuntime::Options options;
  options.num_shards = 2;
  options.num_producers = 4;
  auto sharded = ShardedRuntime::Make(trace.schema(), specs, 3.0, options);
  ASSERT_TRUE(sharded.ok());
  (*sharded)->ProcessTrace(trace);

  uint64_t by_producer = 0;
  int active_producers = 0;
  for (int p = 0; p < (*sharded)->num_producers(); ++p) {
    const ShardIngestStats stats = (*sharded)->producer_stats(p);
    by_producer += stats.records;
    if (stats.records > 0) ++active_producers;
  }
  uint64_t by_shard = 0;
  for (int s = 0; s < (*sharded)->num_shards(); ++s) {
    by_shard += (*sharded)->shard_stats(s).records;
  }
  // Row sums and column sums of the P x S matrix both total the trace.
  EXPECT_EQ(by_producer, trace.size());
  EXPECT_EQ(by_shard, trace.size());
  // A 60k-record trace striped over 4 producers engages all of them.
  EXPECT_EQ(active_producers, 4);
}

TEST(MultiProducerTest, PinnedThreadsProduceIdenticalResults) {
  // Affinity is an optimization: pinning (on whatever topology the test
  // machine has) must not change any answer.
  const Trace trace = ZipfTrace(0xaff);
  const std::vector<RuntimeRelationSpec> specs =
      SpecsFor(trace.schema(), "ABCD(AB BCD(BC BD CD))");
  ShardedRuntime::Options options;
  options.num_shards = 2;
  options.num_producers = 2;
  options.pin_threads = true;
  auto sharded = ShardedRuntime::Make(trace.schema(), specs, 3.0, options);
  ASSERT_TRUE(sharded.ok());
  // The planned layout is exposed for telemetry; sizes always match P and S.
  const AffinityLayout& layout = (*sharded)->layout();
  EXPECT_EQ(layout.producer_cpu.size(), 2u);
  EXPECT_EQ(layout.shard_cpu.size(), 2u);
  (*sharded)->ProcessTrace(trace);

  auto config = Configuration::Parse(trace.schema(), "ABCD(AB BCD(BC BD CD))");
  const std::vector<QueryDef> queries = config->QueryDefs();
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const auto expected = ComputeReferenceAggregate(
        trace, queries[qi].group_by, 3.0, queries[qi].metrics);
    std::string diagnostic;
    EXPECT_TRUE(AggregatesEqual(expected, (*sharded)->hfta(),
                                static_cast<int>(qi), &diagnostic))
        << "query " << qi << ": " << diagnostic;
  }
}

TEST(MultiProducerTest, EngineMultiProducerMatchesSerialEngine) {
  const Schema schema = *Schema::Default(4);
  const Trace trace = ZipfTrace(0xe9);

  auto run = [&](int num_producers, int num_shards) {
    std::vector<QueryDef> queries = {
        QueryDef(*schema.ParseAttributeSet("AB")),
        QueryDef(*schema.ParseAttributeSet("BC")),
        QueryDef(*schema.ParseAttributeSet("CD"))};
    StreamAggEngine::Options options;
    options.memory_words = 8000;
    options.sample_size = 10000;
    options.epoch_seconds = 3.0;
    options.clustered = false;
    options.num_shards = num_shards;
    options.num_producers = num_producers;
    auto engine =
        std::move(StreamAggEngine::FromQueryDefs(schema, queries, options))
            .value();
    // Batched feed: exercises the striped ProcessBatch path.
    const std::span<const Record> records = trace.records();
    for (size_t i = 0; i < records.size(); i += 1024) {
      EXPECT_TRUE(
          engine
              ->ProcessBatch(records.subspan(i,
                                             std::min<size_t>(
                                                 1024, records.size() - i)))
              .ok());
    }
    EXPECT_TRUE(engine->Finish().ok());
    return engine;
  };

  auto serial = run(1, 1);
  for (auto [producers, shards] : {std::pair{4, 1}, {2, 2}, {4, 4}}) {
    auto parallel = run(producers, shards);
    for (int qi = 0; qi < serial->num_queries(); ++qi) {
      const std::vector<uint64_t> epochs = serial->Epochs(qi);
      EXPECT_EQ(epochs, parallel->Epochs(qi))
          << "producers=" << producers << " shards=" << shards << " query "
          << qi;
      for (uint64_t epoch : epochs) {
        EXPECT_TRUE(serial->EpochResult(qi, epoch) ==
                    parallel->EpochResult(qi, epoch))
            << "producers=" << producers << " shards=" << shards << " query "
            << qi << " epoch " << epoch;
      }
    }
    EXPECT_EQ(serial->counters().records, parallel->counters().records);
  }
}

TEST(MultiProducerTest, EngineProducersOnlyEngagesShardedRuntime) {
  // num_producers > 1 with num_shards == 1 still runs the parallel front
  // end (one consumer fed by P queues) — and still matches the reference.
  const Schema schema = *Schema::Default(4);
  const Trace trace = ZipfTrace(0x1b);
  std::vector<QueryDef> queries = {QueryDef(*schema.ParseAttributeSet("AB"))};
  StreamAggEngine::Options options;
  options.memory_words = 8000;
  options.sample_size = 5000;
  options.epoch_seconds = 3.0;
  options.clustered = false;
  options.num_producers = 3;
  auto engine =
      std::move(StreamAggEngine::FromQueryDefs(schema, queries, options))
          .value();
  EXPECT_TRUE(engine->ProcessBatch(trace.records()).ok());
  EXPECT_TRUE(engine->Finish().ok());
  const TelemetrySnapshot snapshot = engine->telemetry();
  EXPECT_EQ(snapshot.num_producers, 3);
  EXPECT_EQ(snapshot.num_shards, 1);
  ASSERT_EQ(snapshot.producers.size(), 3u);

  const auto expected = ComputeReferenceAggregate(trace, queries[0].group_by,
                                                  3.0, queries[0].metrics);
  for (const auto& [epoch, groups] : expected) {
    EXPECT_TRUE(engine->EpochResult(0, epoch) == groups) << "epoch " << epoch;
  }
}

TEST(MultiProducerTest, ShardedTelemetryHistoryCapturesEpochBarriers) {
  // Satellite: telemetry_epoch_snapshots now works for sharded engines —
  // each epoch crossing quiesces the matrix at a FlushEpoch barrier and
  // records a merged snapshot.
  const Schema schema = *Schema::Default(4);
  const Trace trace = ZipfTrace(0x8d);
  std::vector<QueryDef> queries = {
      QueryDef(*schema.ParseAttributeSet("AB")),
      QueryDef(*schema.ParseAttributeSet("CD"))};
  StreamAggEngine::Options options;
  options.memory_words = 8000;
  options.sample_size = 5000;
  options.epoch_seconds = 3.0;
  options.clustered = false;
  options.num_shards = 2;
  options.num_producers = 2;
  options.telemetry_epoch_snapshots = true;
  auto engine =
      std::move(StreamAggEngine::FromQueryDefs(schema, queries, options))
          .value();
  // Chunked feed: the engine cuts each chunk at its epoch boundaries and
  // captures between the runs, so every boundary is captured.
  const std::span<const Record> records = trace.records();
  for (size_t i = 0; i < records.size(); i += 1024) {
    EXPECT_TRUE(
        engine
            ->ProcessBatch(records.subspan(
                i, std::min<size_t>(1024, records.size() - i)))
            .ok());
  }
  EXPECT_TRUE(engine->Finish().ok());

  // 12 seconds of trace at 3 s/epoch: boundaries were crossed.
  const auto& history = engine->telemetry_history();
  ASSERT_GE(history.size(), 2u);
  uint64_t last_epoch = 0;
  bool first = true;
  for (const TelemetrySnapshot& snapshot : history) {
    // Merged across both shards, with both producers reported.
    EXPECT_EQ(snapshot.num_shards, 2);
    EXPECT_EQ(snapshot.num_producers, 2);
    EXPECT_EQ(snapshot.shards.size(), 2u);
    EXPECT_EQ(snapshot.producers.size(), 2u);
    if (!first) {
      EXPECT_GT(snapshot.epoch, last_epoch);
    }
    last_epoch = snapshot.epoch;
    first = false;
  }
  // History snapshots are cumulative: the last one has seen more records
  // than the first (counters are lifetime totals).
  EXPECT_GT(history.back().counters.records, history.front().counters.records);
}

}  // namespace
}  // namespace streamagg
