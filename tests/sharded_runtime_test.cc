// Sharded-ingest correctness: any shard count must produce exactly the
// per-epoch aggregates of the serial runtime (and therefore of a direct
// group-by). Sharding changes collision patterns and cost, never answers —
// the same invariant the runtime matrix enforces for configurations. An
// engine reading a sharded runtime mid-stream serves each epoch complete or
// not at all (docs/runtime.md §4).

#include "dsms/sharded_runtime.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <iterator>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>

#include "core/configuration.h"
#include "core/engine.h"
#include "dsms/reference_aggregator.h"
#include "stream/flow_generator.h"
#include "stream/uniform_generator.h"
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

/// Builds runtime specs for a configuration text with uniform small tables
/// (small enough that collisions and the phantom cascade are exercised).
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

/// Runs the sharded runtime over `trace` and checks every query against the
/// direct reference aggregation. `batch` 0 feeds the whole trace in one
/// ProcessTrace call; otherwise it goes in ProcessBatch calls of `batch`
/// records, followed by the final epoch barrier.
void ExpectShardedMatchesReference(const Trace& trace,
                                   const std::string& config_text,
                                   double epoch_seconds, int num_shards,
                                   size_t batch = 0) {
  const std::vector<RuntimeRelationSpec> specs =
      SpecsFor(trace.schema(), config_text);
  ShardedRuntime::Options options;
  options.num_shards = num_shards;
  auto sharded = ShardedRuntime::Make(trace.schema(), specs, epoch_seconds,
                                      options);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  if (batch == 0) {
    (*sharded)->ProcessTrace(trace);
  } else {
    const std::span<const Record> records = trace.records();
    for (size_t i = 0; i < records.size(); i += batch) {
      (*sharded)->ProcessBatch(
          records.subspan(i, std::min(batch, records.size() - i)));
    }
    (*sharded)->FlushEpoch();
  }

  auto config = Configuration::Parse(trace.schema(), config_text);
  const std::vector<QueryDef> queries = config->QueryDefs();
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const auto expected = ComputeReferenceAggregate(
        trace, queries[qi].group_by, epoch_seconds, queries[qi].metrics);
    std::string diagnostic;
    EXPECT_TRUE(AggregatesEqual(expected, (*sharded)->hfta(),
                                static_cast<int>(qi), &diagnostic))
        << config_text << " shards=" << num_shards << " batch=" << batch
        << " query " << qi << ": " << diagnostic;
  }
  // Record conservation: partitioning loses or duplicates nothing.
  EXPECT_EQ((*sharded)->counters().records, trace.size())
      << "shards=" << num_shards << " batch=" << batch;
}

TEST(ShardedRuntimeTest, ZipfTraceIdenticalAcrossShardCounts) {
  const Trace trace = ZipfTrace(0x5a1);
  for (int shards : {1, 2, 4, 7}) {
    ExpectShardedMatchesReference(trace, "ABCD(AB BCD(BC BD CD))", 3.0,
                                  shards);
  }
}

TEST(ShardedRuntimeTest, FlowTraceIdenticalAcrossShardCounts) {
  const Trace trace = FlowTrace(0xf10);
  for (int shards : {1, 2, 4, 7}) {
    ExpectShardedMatchesReference(trace, "ABCD(AB BCD(BC BD CD))", 3.0,
                                  shards);
  }
}

TEST(ShardedRuntimeTest, FlatForestSingleEpoch) {
  // Multiple raw relations: the partition attrs are the union ABCD.
  const Trace trace = ZipfTrace(0x77);
  for (int shards : {1, 4}) {
    ExpectShardedMatchesReference(trace, "A B C D", 0.0, shards);
  }
}

// One driver feeds every shard, so how the stream is cut into calls never
// changes an answer: the whole trace at once, one record per call, or 64.
TEST(ShardedRuntimeTest, AllCallSplitsMatchReferenceOnZipfTrace) {
  const Trace trace = ZipfTrace(0xa11);
  for (int shards : {1, 2, 4}) {
    for (size_t batch : {size_t{0}, size_t{1}, size_t{64}}) {
      ExpectShardedMatchesReference(trace, "ABCD(AB BCD(BC BD CD))", 3.0,
                                    shards, batch);
    }
  }
}

TEST(ShardedRuntimeTest, AllCallSplitsMatchReferenceOnFlowTrace) {
  const Trace trace = FlowTrace(0xf2);
  for (int shards : {1, 2, 4}) {
    for (size_t batch : {size_t{0}, size_t{1}, size_t{64}}) {
      ExpectShardedMatchesReference(trace, "ABCD(AB BCD(BC BD CD))", 3.0,
                                    shards, batch);
    }
  }
}

TEST(ShardedRuntimeTest, SingleEpochStreamAcrossCallSplits) {
  // epoch_seconds == 0: one everlasting epoch, so no worker ever sees a
  // boundary and only the final barrier flushes.
  const Trace trace = ZipfTrace(0x5e);
  for (size_t batch : {size_t{0}, size_t{1}, size_t{64}}) {
    ExpectShardedMatchesReference(trace, "A B C D", 0.0, 2, batch);
  }
}

TEST(ShardedRuntimeTest, ThreadedRuntimeMatchesSerialEpochForEpoch) {
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
  auto sharded = ShardedRuntime::Make(trace.schema(), specs, 3.0, options);
  ASSERT_TRUE(sharded.ok());
  ASSERT_FALSE((*sharded)->runs_inline());
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

TEST(ShardedRuntimeTest, ShardStatsConserveRecordsAndShareWork) {
  const Trace trace = ZipfTrace(0x7c0);
  const std::vector<RuntimeRelationSpec> specs =
      SpecsFor(trace.schema(), "ABCD(AB BCD(BC BD CD))");
  ShardedRuntime::Options options;
  options.num_shards = 4;
  auto sharded = ShardedRuntime::Make(trace.schema(), specs, 3.0, options);
  ASSERT_TRUE(sharded.ok());
  (*sharded)->ProcessTrace(trace);

  uint64_t by_shard = 0;
  int active_shards = 0;
  for (int s = 0; s < (*sharded)->num_shards(); ++s) {
    const ShardIngestStats& stats = (*sharded)->shard_stats(s);
    by_shard += stats.records;
    if (stats.records > 0) ++active_shards;
  }
  // The shards' ingest tallies account for every record routed, and a
  // 60k-record trace over 800 groups reaches every shard.
  EXPECT_EQ(by_shard, trace.size());
  EXPECT_EQ(active_shards, 4);
}

TEST(ShardedRuntimeTest, MetricsSurviveShardMerge) {
  const Trace trace = FlowTrace(0x3c);
  const Schema& schema = trace.schema();
  auto base = Configuration::Parse(schema, "ABC(AB(A B) C) D");
  ASSERT_TRUE(base.ok());
  std::vector<QueryDef> defs = base->QueryDefs();
  for (QueryDef& def : defs) {
    def.metrics = {MetricSpec{AggregateOp::kSum, 0},
                   MetricSpec{AggregateOp::kMax, 3}};
  }
  auto config = Configuration::Make(schema, defs, base->PhantomSets());
  ASSERT_TRUE(config.ok());
  auto specs = config->ToRuntimeSpecs(
      std::vector<double>(config->num_nodes(), 128.0));
  ASSERT_TRUE(specs.ok());

  ShardedRuntime::Options options;
  options.num_shards = 4;
  auto sharded = ShardedRuntime::Make(schema, *specs, 3.0, options);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  (*sharded)->ProcessTrace(trace);
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

TEST(ShardedRuntimeTest, SingleShardMatchesSerialRuntimeExactly) {
  // One shard runs inline: the replica is the serial runtime, driven on the
  // caller's thread. Its hfta() and counters() are live, so they match the
  // serial runtime after every batch with no barrier in between — a
  // threaded runtime would still serve its last barrier's snapshot.
  const Trace trace = ZipfTrace(0x91);
  const std::vector<RuntimeRelationSpec> specs =
      SpecsFor(trace.schema(), "ABCD(AB BCD(BC BD CD))");

  auto serial = ConfigurationRuntime::Make(trace.schema(), specs, 3.0);
  ASSERT_TRUE(serial.ok());
  ShardedRuntime::Options options;
  options.num_shards = 1;
  auto sharded = ShardedRuntime::Make(trace.schema(), specs, 3.0, options);
  ASSERT_TRUE(sharded.ok());
  ASSERT_TRUE((*sharded)->runs_inline());

  const auto expect_same = [&](const std::string& label) {
    for (int qi = 0; qi < (*serial)->hfta().num_queries(); ++qi) {
      const std::vector<uint64_t> epochs = (*serial)->hfta().Epochs(qi);
      EXPECT_EQ(epochs, (*sharded)->hfta().Epochs(qi)) << label;
      for (uint64_t epoch : epochs) {
        EXPECT_TRUE((*serial)->hfta().Result(qi, epoch) ==
                    (*sharded)->hfta().Result(qi, epoch))
            << label << " query " << qi << " epoch " << epoch;
      }
    }
    // Identical record order through identical tables: identical counters.
    EXPECT_TRUE((*serial)->counters() == (*sharded)->counters()) << label;
  };
  const std::span<const Record> records(trace.records());
  for (size_t i = 0; i < records.size() && !HasFailure(); i += 997) {
    const std::span<const Record> batch =
        records.subspan(i, std::min<size_t>(997, records.size() - i));
    (*serial)->ProcessBatch(batch);
    (*sharded)->ProcessBatch(batch);
    expect_same("after record " + std::to_string(i + batch.size()));
  }
  (*serial)->FlushEpoch();
  (*sharded)->FlushEpoch();
  expect_same("after the final flush");
}

TEST(ShardedRuntimeTest, CountersAggregateAcrossShards) {
  const Trace trace = ZipfTrace(0xc0);
  const std::vector<RuntimeRelationSpec> specs =
      SpecsFor(trace.schema(), "ABCD(AB BCD(BC BD CD))");
  ShardedRuntime::Options options;
  options.num_shards = 4;
  auto sharded = ShardedRuntime::Make(trace.schema(), specs, 3.0, options);
  ASSERT_TRUE(sharded.ok());
  (*sharded)->ProcessTrace(trace);

  // The merged snapshot equals the field-wise sum over shard replicas.
  RuntimeCounters sum;
  for (int s = 0; s < (*sharded)->num_shards(); ++s) {
    sum.Add((*sharded)->shard(s).counters());
  }
  const RuntimeCounters& merged = (*sharded)->counters();
  EXPECT_EQ(merged.records, sum.records);
  EXPECT_EQ(merged.intra_probes, sum.intra_probes);
  EXPECT_EQ(merged.intra_transfers, sum.intra_transfers);
  EXPECT_EQ(merged.flush_probes, sum.flush_probes);
  EXPECT_EQ(merged.flush_transfers, sum.flush_transfers);
  EXPECT_EQ(merged.epochs_flushed, sum.epochs_flushed);

  // No record is lost or duplicated by the partitioning.
  EXPECT_EQ(merged.records, trace.size());
  // Every raw-relation probe happened on some shard.
  EXPECT_GE(merged.total_probes(), merged.records);
}

TEST(ShardedRuntimeTest, RuntimeCountersAddIsFieldWise) {
  RuntimeCounters a;
  a.records = 10;
  a.intra_probes = 20;
  a.intra_transfers = 3;
  a.flush_probes = 7;
  a.flush_transfers = 2;
  a.epochs_flushed = 1;
  RuntimeCounters b = a;
  b.records = 5;
  a.Add(b);
  EXPECT_EQ(a.records, 15u);
  EXPECT_EQ(a.intra_probes, 40u);
  EXPECT_EQ(a.intra_transfers, 6u);
  EXPECT_EQ(a.flush_probes, 14u);
  EXPECT_EQ(a.flush_transfers, 4u);
  EXPECT_EQ(a.epochs_flushed, 2u);
  EXPECT_EQ(a.total_probes(), 54u);
  EXPECT_EQ(a.total_transfers(), 10u);
}

TEST(ShardedRuntimeTest, RejectsInvalidOptions) {
  const Schema schema = *Schema::Default(4);
  const std::vector<RuntimeRelationSpec> specs =
      SpecsFor(schema, "AB(A B)");
  ShardedRuntime::Options options;
  options.num_shards = 0;
  EXPECT_FALSE(ShardedRuntime::Make(schema, specs, 0.0, options).ok());
  options.num_shards = 2;
  options.queue_capacity = 1;
  EXPECT_FALSE(ShardedRuntime::Make(schema, specs, 0.0, options).ok());
}

TEST(ShardedRuntimeTest, ValidationMessagesNameFieldAndValue) {
  // Status messages must point at the offending field with the value it
  // held, so a misconfigured deployment reads the fix off the error.
  const Schema schema = *Schema::Default(4);
  const std::vector<RuntimeRelationSpec> specs =
      SpecsFor(schema, "AB(A B)");
  ShardedRuntime::Options options;
  options.num_shards = -3;
  auto status = ShardedRuntime::Make(schema, specs, 0.0, options).status();
  EXPECT_NE(status.ToString().find("num_shards"), std::string::npos)
      << status.ToString();
  EXPECT_NE(status.ToString().find("-3"), std::string::npos)
      << status.ToString();

  options.num_shards = 2;
  options.queue_capacity = 1;
  status = ShardedRuntime::Make(schema, specs, 0.0, options).status();
  EXPECT_NE(status.ToString().find("queue_capacity"), std::string::npos)
      << status.ToString();
  EXPECT_NE(status.ToString().find("(got 1)"), std::string::npos)
      << status.ToString();
}

/// An engine over AB, BC and CD with `num_shards` shards, fed `trace` in
/// calls of `batch` records (1: per record through Process), then finished.
std::unique_ptr<StreamAggEngine> RunEngine(const Trace& trace, int num_shards,
                                           size_t batch) {
  const Schema& schema = trace.schema();
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
  auto engine =
      std::move(StreamAggEngine::FromQueryDefs(schema, queries, options))
          .value();
  const std::span<const Record> records = trace.records();
  for (size_t i = 0; i < records.size(); i += batch) {
    EXPECT_TRUE((batch == 1 ? engine->Process(records[i])
                            : engine->ProcessBatch(records.subspan(
                                  i, std::min(batch, records.size() - i))))
                    .ok());
  }
  EXPECT_TRUE(engine->Finish().ok());
  return engine;
}

/// Same epochs, same per-epoch results and the same record count.
void ExpectSameEngineResults(const StreamAggEngine& serial,
                             const StreamAggEngine& sharded,
                             const std::string& label) {
  for (int qi = 0; qi < serial.num_queries(); ++qi) {
    const std::vector<uint64_t> epochs = serial.Epochs(qi);
    EXPECT_EQ(epochs, sharded.Epochs(qi)) << label << " query " << qi;
    for (uint64_t epoch : epochs) {
      EXPECT_TRUE(serial.EpochResult(qi, epoch) ==
                  sharded.EpochResult(qi, epoch))
          << label << " query " << qi << " epoch " << epoch;
    }
  }
  // Both pipelines processed every record exactly once.
  EXPECT_EQ(serial.counters().records, sharded.counters().records) << label;
}

TEST(ShardedRuntimeTest, EngineShardedMatchesSerialEngine) {
  const Trace trace = ZipfTrace(0xe7);
  ExpectSameEngineResults(*RunEngine(trace, 1, 1), *RunEngine(trace, 4, 1),
                          "shards=4");
}

TEST(ShardedRuntimeTest, EngineBatchedFeedMatchesSerialEngine) {
  // 1024-record ProcessBatch calls: the driver stages each call's records
  // per shard, and the answers match the serial engine fed the same way.
  const Trace trace = ZipfTrace(0xe9);
  const auto serial = RunEngine(trace, 1, 1024);
  for (int shards : {2, 4}) {
    ExpectSameEngineResults(*serial, *RunEngine(trace, shards, 1024),
                            "shards=" + std::to_string(shards));
  }
}

TEST(ShardedRuntimeTest, EngineAcceptsAdaptiveSharding) {
  // Adaptive + sharded is a supported combination: the drift check and plan
  // swap run at the quiescence barrier (tests/adaptive_differential_test.cc
  // exercises the behavior; this covers the validation surface).
  const Schema schema = *Schema::Default(4);
  std::vector<QueryDef> queries = {QueryDef(*schema.ParseAttributeSet("AB"))};
  StreamAggEngine::Options options;
  options.num_shards = 4;
  options.adaptive = true;
  EXPECT_TRUE(StreamAggEngine::FromQueryDefs(schema, queries, options).ok());
  options.adaptive = false;
  options.num_shards = 0;
  EXPECT_FALSE(StreamAggEngine::FromQueryDefs(schema, queries, options).ok());
}

TEST(ShardedRuntimeTest, EngineValidationCoversShardCombinations) {
  const Schema schema = *Schema::Default(4);
  std::vector<QueryDef> queries = {QueryDef(*schema.ParseAttributeSet("AB"))};

  StreamAggEngine::Options options;
  options.shard_queue_capacity = 1;
  auto result = StreamAggEngine::FromQueryDefs(schema, queries, options);
  ASSERT_FALSE(result.ok());
  const std::string message = result.status().ToString();
  EXPECT_NE(message.find("shard_queue_capacity"), std::string::npos)
      << message;
  EXPECT_NE(message.find("(got 1)"), std::string::npos) << message;

  // Valid combinations construct: serial adaptive, and adaptive with
  // sharding, whose drift check and plan swap happen at the quiescence
  // barrier.
  options = {};
  options.adaptive = true;
  EXPECT_TRUE(StreamAggEngine::FromQueryDefs(schema, queries, options).ok());
  for (int shards : {2, 4}) {
    options = {};
    options.adaptive = true;
    options.num_shards = shards;
    EXPECT_TRUE(StreamAggEngine::FromQueryDefs(schema, queries, options).ok())
        << "shards=" << shards;
  }
}

TEST(ShardedRuntimeTest, ExternalResultsMatchInlineAtEveryBarrier) {
  // A four-shard runtime writes into a results HFTA it does not own: every
  // barrier drains the replicas into it, so after each epoch's FlushEpoch
  // it equals the inline runtime epoch for epoch, and the replicas hold no
  // rows.
  const Trace trace = ZipfTrace(0x5a);
  const std::vector<RuntimeRelationSpec> specs =
      SpecsFor(trace.schema(), "ABCD(AB BCD(BC BD CD))");
  auto inline_runtime = ShardedRuntime::Make(trace.schema(), specs, 3.0, {});
  ASSERT_TRUE(inline_runtime.ok());
  ASSERT_TRUE((*inline_runtime)->runs_inline());
  const int num_queries = (*inline_runtime)->hfta().num_queries();
  Hfta results(num_queries);
  ShardedRuntime::Options options;
  options.num_shards = 4;
  auto sharded =
      ShardedRuntime::Make(trace.schema(), specs, 3.0, options, &results);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  EXPECT_EQ(&(*sharded)->hfta(), &results);

  const std::span<const Record> records(trace.records());
  size_t begin = 0;
  while (begin < records.size() && !HasFailure()) {
    const auto epoch_of = [](const Record& r) {
      return static_cast<uint64_t>(r.timestamp / 3.0);
    };
    size_t end = begin;
    while (end < records.size() &&
           epoch_of(records[end]) == epoch_of(records[begin])) {
      ++end;
    }
    const std::span<const Record> run = records.subspan(begin, end - begin);
    (*inline_runtime)->ProcessBatch(run);
    (*inline_runtime)->FlushEpoch();
    (*sharded)->ProcessBatch(run);
    (*sharded)->FlushEpoch();
    const std::string label = "after epoch " + std::to_string(epoch_of(run[0]));
    const Hfta& expected = (*inline_runtime)->hfta();
    for (int q = 0; q < num_queries; ++q) {
      ASSERT_EQ(results.Epochs(q), expected.Epochs(q)) << label;
      for (uint64_t epoch : expected.Epochs(q)) {
        EXPECT_TRUE(results.Result(q, epoch) == expected.Result(q, epoch))
            << label << " query " << q << " epoch " << epoch;
      }
      for (int s = 0; s < (*sharded)->num_shards(); ++s) {
        EXPECT_EQ((*sharded)->shard(s).hfta().TotalGroups(q), 0u)
            << label << " shard " << s << " query " << q;
      }
    }
    // Every transfer any replica made has been drained, exactly once.
    EXPECT_EQ(results.transfers(),
              (*sharded)->counters().total_transfers())
        << label;
    begin = end;
  }
  EXPECT_GT(begin, 0u);
}

TEST(ShardedRuntimeTest, RejectsResultsWithOtherLayout) {
  const Trace trace = ZipfTrace(0x5b);
  std::vector<RuntimeRelationSpec> specs =
      SpecsFor(trace.schema(), "ABCD(AB BCD(BC BD CD))");
  // Query 2 sums and maxes D; the results list the two the other way round.
  const MetricSpec sum_d{AggregateOp::kSum, 3};
  const MetricSpec max_d{AggregateOp::kMax, 3};
  for (RuntimeRelationSpec& spec : specs) {
    spec.metrics = {sum_d, max_d};
    if (spec.is_query && spec.query_index == 2) {
      spec.query_metrics = {sum_d, max_d};
    }
  }
  std::vector<std::vector<MetricSpec>> swapped(4);
  swapped[2] = {max_d, sum_d};
  Hfta too_few(1);  // The configuration has four queries.
  Hfta misordered(swapped);
  for (int shards : {1, 2}) {
    ShardedRuntime::Options options;
    options.num_shards = shards;
    const Status count =
        ShardedRuntime::Make(trace.schema(), specs, 3.0, options, &too_few)
            .status();
    const Status layout =
        ShardedRuntime::Make(trace.schema(), specs, 3.0, options, &misordered)
            .status();
    for (const Status& status : {count, layout}) {
      EXPECT_NE(status.ToString().find("results HFTA must hold"),
                std::string::npos)
          << "shards=" << shards << ": " << status.ToString();
      EXPECT_NE(status.ToString().find("query_metrics"), std::string::npos)
          << "shards=" << shards << ": " << status.ToString();
    }
  }
  swapped[2] = {sum_d, max_d};
  Hfta matching(swapped);
  ShardedRuntime::Options options;
  options.num_shards = 2;
  EXPECT_TRUE(
      ShardedRuntime::Make(trace.schema(), specs, 3.0, options, &matching)
          .ok());
}

TEST(ShardedRuntimeTest, PinnedThreadsProduceIdenticalResults) {
  // Affinity is an optimization: pinning (on whatever topology the test
  // machine has) must not change any answer.
  const Trace trace = ZipfTrace(0xaff);
  const std::string config_text = "ABCD(AB BCD(BC BD CD))";
  const std::vector<RuntimeRelationSpec> specs =
      SpecsFor(trace.schema(), config_text);
  ShardedRuntime::Options options;
  options.num_shards = 2;
  options.pin_threads = true;
  auto sharded = ShardedRuntime::Make(trace.schema(), specs, 3.0, options);
  ASSERT_TRUE(sharded.ok());
  // The planned layout is exposed for telemetry: one entry per shard.
  EXPECT_EQ((*sharded)->layout().shard_cpu.size(), 2u);
  (*sharded)->ProcessTrace(trace);

  auto config = Configuration::Parse(trace.schema(), config_text);
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

TEST(ShardedRuntimeTest, ThreadedRuntimeStartsOneWorkerPerShard) {
#if defined(__linux__)
  // The driver feeds every shard itself: a threaded runtime adds exactly
  // one thread per shard, and an inline one adds none.
  const auto threads = [] {
    const std::filesystem::directory_iterator tasks("/proc/self/task");
    return std::distance(begin(tasks), end(tasks));
  };
  const Schema schema = *Schema::Default(4);
  const std::vector<RuntimeRelationSpec> specs = SpecsFor(schema, "AB(A B)");
  // A sanitizer may start a helper thread at the process's first thread
  // creation; create one first so the baseline counts it.
  std::thread([] {}).join();
  const auto before = threads();
  for (int shards : {1, 2, 4}) {
    ShardedRuntime::Options options;
    options.num_shards = shards;
    auto sharded = ShardedRuntime::Make(schema, specs, 1.0, options);
    ASSERT_TRUE(sharded.ok());
    EXPECT_EQ((*sharded)->runs_inline(), shards == 1);
    EXPECT_EQ(threads() - before, shards == 1 ? 0 : shards)
        << "shards=" << shards;
  }
#else
  GTEST_SKIP() << "thread counting reads /proc";
#endif
}

TEST(ShardedRuntimeTest, ShardedTelemetryHistoryCapturesEpochBarriers) {
  // telemetry_epoch_snapshots works for sharded engines: each epoch
  // crossing quiesces the shards at a barrier and records a merged
  // snapshot with one row per shard and no producer keys.
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
    EXPECT_EQ(snapshot.num_shards, 2);
    EXPECT_EQ(snapshot.shards.size(), 2u);
    EXPECT_EQ(snapshot.ToJsonLine().find("producer"), std::string::npos);
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

TEST(ShardedRuntimeTest, EngineServesEpochsCompleteOrNotAtAll) {
  // The read contract of docs/runtime.md §4, checked after every call. A
  // sharded engine's barriers drain the replicas mid-epoch (snapshot
  // captures quiesce at every boundary; AddQuery flushes mid-epoch), yet
  // every epoch Epochs() lists must be complete, and Finish completes them
  // all. One shard serves each closed epoch once the call that crossed its
  // end returns.
  constexpr size_t kEpochRecords = 20000;
  constexpr size_t kEpochs = 6;
  constexpr size_t kAddAt = 2 * kEpochRecords + kEpochRecords / 2;
  const Schema schema = *Schema::Default(4);
  auto gen = std::move(UniformGenerator::Make(schema, 2000, 0x5ea1)).value();
  Trace trace(schema);
  for (size_t i = 0; i < kEpochs * kEpochRecords; ++i) {
    Record r = gen->Next();
    r.timestamp = static_cast<double>(i) / kEpochRecords;
    trace.Append(r);
  }
  const QueryDef ab(*schema.ParseAttributeSet("AB"));
  const QueryDef cd(*schema.ParseAttributeSet("CD"));
  // Query 0 sees the whole trace, query 1 (added mid-epoch 2) the rest.
  Trace added(schema);
  for (size_t i = kAddAt; i < trace.size(); ++i) added.Append(trace.record(i));
  const std::map<uint64_t, EpochAggregate> reference[] = {
      ComputeReferenceAggregate(trace, ab.group_by, 1.0),
      ComputeReferenceAggregate(added, cd.group_by, 1.0)};
  const EpochAggregate none;
  const auto want = [&](int q, uint64_t e) -> const EpochAggregate& {
    auto it = reference[q].find(e);
    return it == reference[q].end() ? none : it->second;
  };

  for (int shards : {1, 2, 4}) {
    for (bool snapshots : {false, true}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " snapshots=" + std::to_string(snapshots));
      StreamAggEngine::Options options;
      options.memory_words = 4000;
      options.sample_size = 10000;
      options.epoch_seconds = 1.0;
      options.clustered = false;
      options.num_shards = shards;
      options.telemetry_epoch_snapshots = snapshots;
      auto engine = std::move(StreamAggEngine::FromQueryDefs(schema, {ab},
                                                             options))
                        .value();
      const auto expect_served = [&](size_t fed) {
        const uint64_t open = static_cast<uint64_t>(
            trace.record(fed - 1).timestamp);
        // Epochs that must be listed: at one shard every closed one; with
        // more, those below the AddQuery's flushing barrier once it ran.
        const uint64_t served = shards == 1      ? open
                                : fed > kAddAt ? kAddAt / kEpochRecords
                                               : 0;
        const int num_ids = engine->num_query_ids();
        for (int q = 0; q < num_ids; ++q) {
          const std::vector<uint64_t> epochs = engine->Epochs(q);
          for (uint64_t e : epochs) {
            if (shards == 1 && e >= open) continue;  // Open epoch: partial.
            EXPECT_TRUE(engine->EpochResult(q, e) == want(q, e))
                << "query " << q << " epoch " << e << " after " << fed;
          }
          for (const auto& [e, groups] : reference[q]) {
            if (e >= served) break;
            EXPECT_TRUE(std::binary_search(epochs.begin(), epochs.end(), e))
                << "query " << q << " closed epoch " << e << " unserved after "
                << fed;
          }
        }
      };
      for (size_t i = 0; i < trace.size() && !HasFailure();) {
        if (i == kAddAt) {
          ASSERT_TRUE(engine->AddQuery(cd).ok());
        }
        const size_t end = std::min({i + 64, trace.size(),
                                     i < kAddAt ? kAddAt : trace.size()});
        ASSERT_TRUE(engine
                        ->ProcessBatch(std::span<const Record>(
                            trace.records()).subspan(i, end - i))
                        .ok());
        i = end;
        if (engine->planned()) expect_served(i);
      }
      if (HasFailure()) return;
      ASSERT_TRUE(engine->Finish().ok());
      for (int q = 0; q < 2; ++q) {
        std::vector<uint64_t> all;
        for (const auto& [e, groups] : reference[q]) all.push_back(e);
        EXPECT_EQ(engine->Epochs(q), all) << "query " << q;
        for (uint64_t e : all) {
          EXPECT_TRUE(engine->EpochResult(q, e) == want(q, e))
              << "query " << q << " epoch " << e << " after Finish";
        }
      }
    }
  }
}

}  // namespace
}  // namespace streamagg
