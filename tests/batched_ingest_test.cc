// Batched-ingest correctness: ProcessBatch over any batch split must be
// bit-identical to per-record ProcessRecord — same HFTA results, same
// counters — serial and sharded, on Zipf and flow traces. Also verifies the
// zero-allocation claim for the steady-state batched path by hooking the
// global allocator.

#include <atomic>
#include <cstdlib>
#include <new>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "core/configuration.h"
#include "core/engine.h"
#include "dsms/configuration_runtime.h"
#include "dsms/sharded_runtime.h"
#include "engine_parity.h"
#include "stream/flow_generator.h"
#include "stream/zipf_generator.h"
#include "util/random.h"

// ---------------------------------------------------------------------------
// Global allocation counter. Every operator new in this binary bumps it, so
// a scope that performs zero heap allocations shows a delta of zero.
// ---------------------------------------------------------------------------

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace streamagg {
namespace {

Trace ZipfTrace(uint64_t seed) {
  const Schema schema = *Schema::Default(4);
  auto universe = GroupUniverse::Uniform(schema, 800, {60, 60, 60, 60}, seed);
  auto gen =
      std::move(ZipfGenerator::Make(std::move(*universe), 1.0, seed + 1))
          .value();
  return Trace::Generate(*gen, 40000, 12.0);
}

Trace FlowTrace(uint64_t seed) {
  FlowGeneratorOptions options;
  options.seed = seed;
  auto gen = std::move(FlowGenerator::MakePaperTrace(options)).value();
  return Trace::Generate(*gen, 40000, 12.0);
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

int NumQueries(const std::vector<RuntimeRelationSpec>& specs) {
  int n = 0;
  for (const auto& s : specs) n += s.is_query ? 1 : 0;
  return n;
}

void ExpectCountersEqual(const RuntimeCounters& a, const RuntimeCounters& b,
                         const std::string& label) {
  EXPECT_EQ(a.records, b.records) << label;
  EXPECT_EQ(a.intra_probes, b.intra_probes) << label;
  EXPECT_EQ(a.intra_transfers, b.intra_transfers) << label;
  EXPECT_EQ(a.flush_probes, b.flush_probes) << label;
  EXPECT_EQ(a.flush_transfers, b.flush_transfers) << label;
  EXPECT_EQ(a.epochs_flushed, b.epochs_flushed) << label;
}

void ExpectHftaEqual(const Hfta& a, const Hfta& b, int num_queries,
                     const std::string& label) {
  for (int q = 0; q < num_queries; ++q) {
    const std::vector<uint64_t> epochs = a.Epochs(q);
    ASSERT_EQ(epochs, b.Epochs(q)) << label << " query " << q;
    for (uint64_t epoch : epochs) {
      EXPECT_TRUE(a.Result(q, epoch) == b.Result(q, epoch))
          << label << " query " << q << " epoch " << epoch;
    }
  }
}

/// Feeds `trace` in batches: deterministic size `batch` when > 0, random
/// sizes in [1, 97] when batch == 0.
void FeedInBatches(ConfigurationRuntime& runtime, const Trace& trace,
                   size_t batch, uint64_t split_seed = 0) {
  const std::vector<Record>& records = trace.records();
  Random rng(split_seed);
  size_t i = 0;
  while (i < records.size()) {
    const size_t want = batch > 0 ? batch : 1 + rng.Uniform(97);
    const size_t n = std::min(want, records.size() - i);
    runtime.ProcessBatch(std::span<const Record>(&records[i], n));
    i += n;
  }
  runtime.FlushEpoch();
}

void ExpectBatchSplitsBitIdentical(const Trace& trace,
                                   const std::string& config_text,
                                   double epoch_seconds) {
  const std::vector<RuntimeRelationSpec> specs =
      SpecsFor(trace.schema(), config_text);
  const int num_queries = NumQueries(specs);

  // Baseline: one record per ProcessRecord call.
  auto baseline =
      std::move(ConfigurationRuntime::Make(trace.schema(), specs,
                                           epoch_seconds))
          .value();
  for (const Record& r : trace.records()) baseline->ProcessRecord(r);
  baseline->FlushEpoch();

  for (size_t batch : {size_t{1}, size_t{7}, size_t{64}, trace.size(),
                       size_t{0} /* random splits */}) {
    auto runtime =
        std::move(ConfigurationRuntime::Make(trace.schema(), specs,
                                             epoch_seconds))
            .value();
    FeedInBatches(*runtime, trace, batch, /*split_seed=*/batch + 17);
    const std::string label =
        config_text + " batch=" + std::to_string(batch);
    ExpectCountersEqual(runtime->counters(), baseline->counters(), label);
    ExpectHftaEqual(runtime->hfta(), baseline->hfta(), num_queries, label);
  }
}

TEST(BatchedIngestTest, ZipfBatchSplitsBitIdentical) {
  ExpectBatchSplitsBitIdentical(ZipfTrace(0xba7c), "ABCD(AB BCD(BC BD CD))",
                                3.0);
}

TEST(BatchedIngestTest, FlowBatchSplitsBitIdentical) {
  ExpectBatchSplitsBitIdentical(FlowTrace(0xf33d), "ABCD(AB BCD(BC BD CD))",
                                3.0);
}

TEST(BatchedIngestTest, FlatForestUnboundedEpochBitIdentical) {
  // Multiple raw relations and no epoch switching inside batches.
  ExpectBatchSplitsBitIdentical(ZipfTrace(0x51), "A B C D", 0.0);
}

TEST(BatchedIngestTest, MetricsBatchSplitsBitIdentical) {
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
  const int num_queries = NumQueries(*specs);

  auto baseline =
      std::move(ConfigurationRuntime::Make(schema, *specs, 3.0)).value();
  for (const Record& r : trace.records()) baseline->ProcessRecord(r);
  baseline->FlushEpoch();
  for (size_t batch : {size_t{7}, size_t{64}}) {
    auto runtime =
        std::move(ConfigurationRuntime::Make(schema, *specs, 3.0)).value();
    FeedInBatches(*runtime, trace, batch);
    ExpectCountersEqual(runtime->counters(), baseline->counters(), "metrics");
    ExpectHftaEqual(runtime->hfta(), baseline->hfta(), num_queries, "metrics");
  }
}

TEST(BatchedIngestTest, ShardedBatchedMatchesShardedPerRecord) {
  const Trace trace = ZipfTrace(0x7e57);
  const std::string config_text = "ABCD(AB BCD(BC BD CD))";
  const std::vector<RuntimeRelationSpec> specs =
      SpecsFor(trace.schema(), config_text);
  const int num_queries = NumQueries(specs);
  for (int shards : {1, 2, 4, 7}) {
    ShardedRuntime::Options options;
    options.num_shards = shards;

    auto per_record = ShardedRuntime::Make(trace.schema(), specs, 3.0,
                                           options);
    ASSERT_TRUE(per_record.ok());
    for (const Record& r : trace.records()) (*per_record)->ProcessRecord(r);
    (*per_record)->FlushEpoch();

    auto batched = ShardedRuntime::Make(trace.schema(), specs, 3.0, options);
    ASSERT_TRUE(batched.ok());
    (*batched)->ProcessBatch(trace.records());
    (*batched)->FlushEpoch();

    const std::string label = "shards=" + std::to_string(shards);
    ExpectCountersEqual((*batched)->counters(), (*per_record)->counters(),
                        label);
    ExpectHftaEqual((*batched)->hfta(), (*per_record)->hfta(), num_queries,
                    label);
  }
}

TEST(BatchedIngestTest, EngineBatchedMatchesPerRecord) {
  // End to end through StreamAggEngine, including the sampling-phase
  // crossover landing mid-batch. Epoch snapshots are on: a batch that
  // straddles a boundary must still capture the completed epoch exactly as
  // per-record feeding does.
  const Trace trace = ZipfTrace(0xe6);
  const Schema& schema = trace.schema();
  std::vector<QueryDef> queries = {QueryDef(*schema.ParseAttributeSet("AB")),
                                   QueryDef(*schema.ParseAttributeSet("BC")),
                                   QueryDef(*schema.ParseAttributeSet("CD"))};
  StreamAggEngine::Options options;
  options.memory_words = 4000;
  options.sample_size = 5000;
  options.epoch_seconds = 3.0;
  options.clustered = false;
  options.telemetry_epoch_snapshots = true;

  auto per_record =
      std::move(StreamAggEngine::FromQueryDefs(schema, queries, options))
          .value();
  for (const Record& r : trace.records()) {
    ASSERT_TRUE(per_record->Process(r).ok());
  }
  ASSERT_TRUE(per_record->Finish().ok());

  for (size_t batch : {size_t{64}, size_t{997}}) {
    auto engine =
        std::move(StreamAggEngine::FromQueryDefs(schema, queries, options))
            .value();
    const std::vector<Record>& records = trace.records();
    for (size_t i = 0; i < records.size(); i += batch) {
      const size_t n = std::min(batch, records.size() - i);
      ASSERT_TRUE(
          engine->ProcessBatch(std::span<const Record>(&records[i], n)).ok());
    }
    ASSERT_TRUE(engine->Finish().ok());

    const std::string label = "engine batch=" + std::to_string(batch);
    ExpectCountersEqual(engine->counters(), per_record->counters(), label);
    ASSERT_FALSE(per_record->telemetry_history().empty());
    ExpectSameEngineRecord(*engine, *per_record, label);
    for (size_t q = 0; q < queries.size(); ++q) {
      const std::vector<uint64_t> epochs =
          engine->Epochs(static_cast<int>(q));
      ASSERT_EQ(epochs, per_record->Epochs(static_cast<int>(q))) << label;
      for (uint64_t epoch : epochs) {
        EXPECT_TRUE(engine->EpochResult(static_cast<int>(q), epoch) ==
                    per_record->EpochResult(static_cast<int>(q), epoch))
            << label << " query " << q << " epoch " << epoch;
      }
    }
  }
}

TEST(BatchedIngestAllocationTest, SteadyStateBatchedPathAllocatesNothing) {
  // Steady state = every probe updates a resident group (no evictions, no
  // HFTA traffic). Constructed exactly: warm the table, read back the
  // resident groups, and re-feed records that project onto them. The
  // batched path must then touch the heap zero times.
  const Schema schema = *Schema::Default(4);
  RuntimeRelationSpec spec;
  spec.attrs = *schema.ParseAttributeSet("AB");
  spec.num_buckets = 4096;
  spec.is_query = true;
  spec.query_index = 0;
  auto runtime =
      std::move(ConfigurationRuntime::Make(schema, {spec},
                                           /*epoch_seconds=*/0.0))
          .value();

  // Warm-up: 512 distinct-ish groups (collisions during warm-up are fine).
  std::vector<Record> warm(2048);
  Random rng(0xa110c);
  for (Record& r : warm) {
    r.values[0] = static_cast<uint32_t>(rng.Uniform(32));
    r.values[1] = static_cast<uint32_t>(rng.Uniform(16));
  }
  runtime->ProcessBatch(warm);

  // Steady-state batch: one record per resident group, repeated 16 times.
  std::vector<Record> steady;
  runtime->table(0).ForEach([&](const GroupKey& key, uint64_t) {
    Record r;
    r.values[0] = key.values[0];
    r.values[1] = key.values[1];
    steady.push_back(r);
  });
  ASSERT_FALSE(steady.empty());
  const uint64_t collisions_before = runtime->table(0).collisions();

  const uint64_t allocations_before =
      g_allocations.load(std::memory_order_relaxed);
  for (int pass = 0; pass < 16; ++pass) {
    runtime->ProcessBatch(steady);
  }
  const uint64_t allocations_after =
      g_allocations.load(std::memory_order_relaxed);

  // Sanity: the workload really was eviction-free steady state.
  EXPECT_EQ(runtime->table(0).collisions(), collisions_before);
  EXPECT_EQ(allocations_after - allocations_before, 0u)
      << "steady-state ProcessBatch allocated";
}

TEST(BatchedIngestAllocationTest, SteadyStateEngineBatchAllocatesNothing) {
  // The same steady state one layer up: a planned 1x1 StreamAggEngine in
  // one epoch, fed ProcessBatch(64) over resident groups only. The engine
  // layer (timestamp check, epoch cut, inline runtime) must add no
  // allocation to the batched path.
  const Schema schema = *Schema::Default(4);
  StreamAggEngine::Options options;
  options.memory_words = 40000;
  options.sample_size = 2048;
  options.clustered = false;
  const std::vector<QueryDef> queries = {
      QueryDef(*schema.ParseAttributeSet("AB"))};
  auto engine = std::move(StreamAggEngine::FromQueryDefs(schema, queries,
                                                         options))
                    .value();
  std::vector<Record> warm(options.sample_size);
  Random rng(0xe9a110c);
  for (Record& r : warm) {
    r.values[0] = static_cast<uint32_t>(rng.Uniform(32));
    r.values[1] = static_cast<uint32_t>(rng.Uniform(16));
  }
  ASSERT_TRUE(engine->ProcessBatch(warm).ok());
  ASSERT_TRUE(engine->planned());

  // The engine's replica is deterministic (same specs, seed and records),
  // so a rebuilt one reads back which groups stayed resident.
  auto replica = std::move(ConfigurationRuntime::Make(
                               schema, *engine->plan()->ToRuntimeSpecs(),
                               /*epoch_seconds=*/0.0))
                     .value();
  replica->ProcessBatch(warm);
  ASSERT_EQ(replica->num_relations(), 1);
  std::vector<Record> steady;
  replica->table(0).ForEach([&](const GroupKey& key, uint64_t) {
    Record r;
    r.values[0] = key.values[0];
    r.values[1] = key.values[1];
    steady.push_back(r);
  });
  ASSERT_GE(steady.size(), 64u);
  steady.resize(64);

  // The same passes fed as ProcessBatch(64) calls, then as 64 Process
  // calls each, which go through the engine's record buffer.
  for (const bool per_record : {false, true}) {
    SCOPED_TRACE(per_record ? "Process" : "ProcessBatch(64)");
    const RuntimeCounters before = engine->counters();
    const uint64_t allocations_before =
        g_allocations.load(std::memory_order_relaxed);
    for (int pass = 0; pass < 1024; ++pass) {
      if (per_record) {
        for (const Record& r : steady) ASSERT_TRUE(engine->Process(r).ok());
      } else {
        ASSERT_TRUE(engine->ProcessBatch(steady).ok());
      }
    }
    const uint64_t allocations_after =
        g_allocations.load(std::memory_order_relaxed);

    // Sanity: every record hit a resident group, with no eviction.
    const RuntimeCounters after = engine->counters();
    EXPECT_EQ(after.records - before.records, 1024u * steady.size());
    EXPECT_EQ(after.intra_transfers, before.intra_transfers);
    EXPECT_EQ(after.epochs_flushed, before.epochs_flushed);
    EXPECT_EQ(allocations_after - allocations_before, 0u)
        << "steady-state engine feeding allocated";
  }
}

}  // namespace
}  // namespace streamagg
