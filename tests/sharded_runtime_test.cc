// Sharded-ingest correctness: any shard count must produce exactly the
// per-epoch aggregates of the serial runtime (and therefore of a direct
// group-by). Sharding changes collision patterns and cost, never answers —
// the same invariant the runtime matrix enforces for configurations.

#include "dsms/sharded_runtime.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>

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
/// direct reference aggregation.
void ExpectShardedMatchesReference(const Trace& trace,
                                   const std::string& config_text,
                                   double epoch_seconds, int num_shards) {
  const std::vector<RuntimeRelationSpec> specs =
      SpecsFor(trace.schema(), config_text);
  ShardedRuntime::Options options;
  options.num_shards = num_shards;
  auto sharded = ShardedRuntime::Make(trace.schema(), specs, epoch_seconds,
                                      options);
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
        << config_text << " shards=" << num_shards << " query " << qi << ": "
        << diagnostic;
  }
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
  // One shard and one producer run inline: the replica is the serial
  // runtime, driven on the caller's thread. Its hfta() and counters() are
  // live, so they match the serial runtime after every batch with no
  // barrier in between — a threaded runtime would still serve its last
  // barrier's snapshot.
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
  options.queue_capacity = 4096;
  options.num_producers = 0;
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
  options.num_producers = 0;
  status = ShardedRuntime::Make(schema, specs, 0.0, options).status();
  EXPECT_NE(status.ToString().find("num_producers"), std::string::npos)
      << status.ToString();
  EXPECT_NE(status.ToString().find("(got 0)"), std::string::npos)
      << status.ToString();

  options.num_producers = 1;
  options.queue_capacity = 1;
  status = ShardedRuntime::Make(schema, specs, 0.0, options).status();
  EXPECT_NE(status.ToString().find("queue_capacity"), std::string::npos)
      << status.ToString();
  EXPECT_NE(status.ToString().find("(got 1)"), std::string::npos)
      << status.ToString();
}

TEST(ShardedRuntimeTest, EngineShardedMatchesSerialEngine) {
  const Schema schema = *Schema::Default(4);
  const Trace trace = ZipfTrace(0xe7);

  auto run = [&](int num_shards) {
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
    for (const Record& r : trace.records()) {
      EXPECT_TRUE(engine->Process(r).ok());
    }
    EXPECT_TRUE(engine->Finish().ok());
    return engine;
  };

  auto serial = run(1);
  auto sharded = run(4);
  for (int qi = 0; qi < serial->num_queries(); ++qi) {
    const std::vector<uint64_t> epochs = serial->Epochs(qi);
    EXPECT_EQ(epochs, sharded->Epochs(qi)) << "query " << qi;
    for (uint64_t epoch : epochs) {
      EXPECT_TRUE(serial->EpochResult(qi, epoch) ==
                  sharded->EpochResult(qi, epoch))
          << "query " << qi << " epoch " << epoch;
    }
  }
  // Both pipelines processed every record exactly once.
  EXPECT_EQ(serial->counters().records, sharded->counters().records);
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

TEST(ShardedRuntimeTest, EngineValidationCoversProducerCombinations) {
  const Schema schema = *Schema::Default(4);
  std::vector<QueryDef> queries = {QueryDef(*schema.ParseAttributeSet("AB"))};

  auto expect_rejected = [&](StreamAggEngine::Options options,
                             const std::string& field,
                             const std::string& value) {
    auto result = StreamAggEngine::FromQueryDefs(schema, queries, options);
    ASSERT_FALSE(result.ok()) << field;
    const std::string message = result.status().ToString();
    EXPECT_NE(message.find(field), std::string::npos) << message;
    EXPECT_NE(message.find(value), std::string::npos) << message;
  };

  StreamAggEngine::Options options;
  options.num_producers = 0;
  expect_rejected(options, "num_producers", "(got 0)");

  options = {};
  options.num_producers = -2;
  expect_rejected(options, "num_producers", "(got -2)");

  options = {};
  options.shard_queue_capacity = 1;
  expect_rejected(options, "shard_queue_capacity", "(got 1)");

  // Valid combinations still construct.
  options = {};
  options.num_producers = 2;
  options.num_shards = 2;
  EXPECT_TRUE(StreamAggEngine::FromQueryDefs(schema, queries, options).ok());
  options = {};
  options.adaptive = true;  // Serial adaptive stays allowed.
  EXPECT_TRUE(StreamAggEngine::FromQueryDefs(schema, queries, options).ok());

  // Adaptive composes with sharding and parallel ingest: the drift check
  // and plan swap happen at the quiescence barrier.
  options = {};
  options.adaptive = true;
  options.num_shards = 2;
  EXPECT_TRUE(StreamAggEngine::FromQueryDefs(schema, queries, options).ok());
  options = {};
  options.adaptive = true;
  options.num_producers = 4;
  options.num_shards = 4;
  EXPECT_TRUE(StreamAggEngine::FromQueryDefs(schema, queries, options).ok());
}

TEST(ShardedRuntimeTest, ExternalResultsMatchInlineAtEveryBarrier) {
  // A 2 x 4 runtime writes into a results HFTA it does not own: every
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
  options.num_producers = 2;
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

}  // namespace
}  // namespace streamagg
