// Micro-benchmark (google-benchmark): end-to-end StreamAggEngine record
// rate — the number the deployment cares about: how many packets per second
// the whole pipeline (epoch tracking + phantom cascade + HFTA) sustains
// after planning — plus the shard-count sweep for the parallel ingest path
// (dsms/sharded_runtime.h; see docs/runtime.md).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "core/engine.h"
#include "dsms/configuration_runtime.h"
#include "dsms/lfta_hash_table.h"
#include "obs/trace.h"
#include "stream/uniform_generator.h"
#include "stream/zipf_generator.h"
#include "util/simd_hash.h"
#include "util/timer.h"

using namespace streamagg;

namespace {

/// Stamps `replay` with fresh timestamps that continue from `*t` in tiny
/// steps, so re-feeding the same records keeps the engine's timestamp
/// contract without leaving the current epoch. Call it outside the timed
/// region.
void Restamp(std::vector<Record>* replay, double* t) {
  for (Record& r : *replay) r.timestamp = (*t += 1e-12);
}

void BM_EngineRecordRate(benchmark::State& state) {
  const int num_queries = static_cast<int>(state.range(0));
  const Schema schema = *Schema::Default(4);
  auto gen = std::move(UniformGenerator::Make(schema, 2837, 3)).value();

  const char* kQuerySpecs[] = {"AB", "BC", "BD", "CD", "AC", "AD"};
  std::vector<QueryDef> queries;
  for (int q = 0; q < num_queries; ++q) {
    queries.push_back(QueryDef(*schema.ParseAttributeSet(kQuerySpecs[q])));
  }
  StreamAggEngine::Options options;
  options.memory_words = 40000;
  options.sample_size = 20000;
  options.epoch_seconds = 1.0;
  options.clustered = false;
  auto engine =
      std::move(StreamAggEngine::FromQueryDefs(schema, queries, options))
          .value();
  // Drive past the sampling phase so the loop measures steady state.
  double t = 0.0;
  for (size_t i = 0; i <= options.sample_size; ++i) {
    Record r = gen->Next();
    r.timestamp = t;
    (void)engine->Process(r);
  }
  for (auto _ : state) {
    Record r = gen->Next();
    t += 1e-5;  // ~100k records per epoch.
    r.timestamp = t;
    benchmark::DoNotOptimize(engine->Process(r));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EngineRecordRate)->Arg(2)->Arg(4)->Arg(6)->ArgNames({"queries"});

void BM_EngineAdaptiveOverhead(benchmark::State& state) {
  // Same loop with the adaptive controller armed: the epoch-boundary drift
  // check must be cheap relative to record processing. Batch 1 feeds one
  // Process call per record; larger batches go through ProcessBatch, which
  // cuts them at epoch boundaries and runs the controller between runs.
  const size_t batch_size = static_cast<size_t>(state.range(0));
  const Schema schema = *Schema::Default(4);
  auto gen = std::move(UniformGenerator::Make(schema, 2837, 5)).value();
  std::vector<QueryDef> queries = {
      QueryDef(*schema.ParseAttributeSet("AB")),
      QueryDef(*schema.ParseAttributeSet("BC")),
      QueryDef(*schema.ParseAttributeSet("CD"))};
  StreamAggEngine::Options options;
  options.memory_words = 40000;
  options.sample_size = 20000;
  options.epoch_seconds = 1.0;
  options.clustered = false;
  options.adaptive = true;
  auto engine =
      std::move(StreamAggEngine::FromQueryDefs(schema, queries, options))
          .value();
  double t = 0.0;
  for (size_t i = 0; i <= options.sample_size; ++i) {
    Record r = gen->Next();
    r.timestamp = t;
    (void)engine->Process(r);
  }
  std::vector<Record> batch(batch_size);
  for (auto _ : state) {
    for (Record& r : batch) {
      r = gen->Next();
      t += 1e-5;
      r.timestamp = t;
    }
    benchmark::DoNotOptimize(batch_size == 1 ? engine->Process(batch[0])
                                             : engine->ProcessBatch(batch));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(batch_size));
}
BENCHMARK(BM_EngineAdaptiveOverhead)->Arg(1)->Arg(64)->ArgNames({"batch"});

// End-to-end cost of a drift-triggered re-plan cycle: a calm phase long
// enough to plan and settle, then a 10x group blow-up that sustains the
// K-epoch trend and fires one subtree re-plan (see docs/runtime.md §4).
// Sweeps serial vs 4-shard so the Quiesce-barrier epoch checks and the
// barrier plan swap are priced next to the serial equivalents. Reports
// whole-run records/sec (sampling, trend checks and the re-plan included)
// plus the re-plans actually taken per run.
void BM_EngineAdaptiveReplanCycle(benchmark::State& state) {
  const int num_shards = static_cast<int>(state.range(0));
  const Schema schema = *Schema::Default(4);
  auto calm = std::move(UniformGenerator::Make(schema, 500, 17)).value();
  auto shifted = std::move(UniformGenerator::Make(schema, 5000, 19)).value();
  std::vector<Record> replay(1 << 18);
  for (size_t i = 0; i < replay.size(); ++i) {
    Record r = (i < replay.size() / 2) ? calm->Next() : shifted->Next();
    r.timestamp = 12.0 * static_cast<double>(i) /
                  static_cast<double>(replay.size());
    replay[i] = r;
  }
  std::vector<QueryDef> queries = {
      QueryDef(*schema.ParseAttributeSet("AB")),
      QueryDef(*schema.ParseAttributeSet("CD"))};
  StreamAggEngine::Options options;
  options.memory_words = 40000;
  options.sample_size = 20000;
  options.epoch_seconds = 1.0;
  options.clustered = false;
  options.adaptive = true;
  options.num_shards = num_shards;
  options.shard_queue_capacity = 1024;

  int64_t replans = 0;
  double total_millis = 0.0;
  for (auto _ : state) {
    auto engine =
        std::move(StreamAggEngine::FromQueryDefs(schema, queries, options))
            .value();
    double millis = 0.0;
    {
      ScopedTimer timer(&millis);
      for (const Record& r : replay) {
        benchmark::DoNotOptimize(engine->Process(r));
      }
      (void)engine->Finish();
    }
    replans += engine->reoptimizations();
    state.SetIterationTime(millis / 1000.0);
    total_millis += millis;
  }
  const double processed = static_cast<double>(state.iterations()) *
                           static_cast<double>(replay.size());
  state.SetItemsProcessed(static_cast<int64_t>(processed));
  state.counters["records_per_sec"] = processed / (total_millis / 1000.0);
  state.counters["replans_per_run"] =
      static_cast<double>(replans) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_EngineAdaptiveReplanCycle)
    ->Arg(1)
    ->Arg(4)
    ->ArgNames({"shards"})
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

// Shard-count sweep: the same engine with the parallel LFTA ingest path at
// 1/2/4/8 shards. Reports records/sec plus scaling vs the serial (1-shard)
// run and per-shard efficiency; run on a machine with >= as many cores as
// shards for meaningful scaling numbers. Timing is manual (ScopedTimer over
// each record batch) so per-iteration engine state never pollutes the rate.
void BM_EngineShardScaling(benchmark::State& state) {
  const int num_shards = static_cast<int>(state.range(0));
  const Schema schema = *Schema::Default(4);
  auto gen = std::move(UniformGenerator::Make(schema, 2837, 11)).value();
  std::vector<QueryDef> queries = {
      QueryDef(*schema.ParseAttributeSet("AB")),
      QueryDef(*schema.ParseAttributeSet("BC")),
      QueryDef(*schema.ParseAttributeSet("BD")),
      QueryDef(*schema.ParseAttributeSet("CD"))};
  StreamAggEngine::Options options;
  options.memory_words = 40000;
  options.sample_size = 20000;
  options.epoch_seconds = 1.0;
  options.clustered = false;
  options.num_shards = num_shards;
  // A modest queue bounds the driver/worker skew, so the measured rate
  // is end-to-end processing, not enqueue speed (residual skew <= 1024
  // records per shard out of each 256k batch).
  options.shard_queue_capacity = 1024;
  auto engine =
      std::move(StreamAggEngine::FromQueryDefs(schema, queries, options))
          .value();
  // Drive past the sampling phase so the loop measures steady state.
  double t = 0.0;
  for (size_t i = 0; i <= options.sample_size; ++i) {
    Record r = gen->Next();
    r.timestamp = t;
    (void)engine->Process(r);
  }
  // Pre-drawn batch so generator cost stays out of the timed region;
  // timestamps advance per replay (~100k records per epoch).
  std::vector<Record> batch(1 << 18);
  for (Record& r : batch) r = gen->Next();
  double total_millis = 0.0;
  for (auto _ : state) {
    double millis = 0.0;
    {
      ScopedTimer timer(&millis);
      for (Record r : batch) {
        t += 1e-5;
        r.timestamp = t;
        benchmark::DoNotOptimize(engine->Process(r));
      }
    }
    state.SetIterationTime(millis / 1000.0);
    total_millis += millis;
  }
  const double processed =
      static_cast<double>(state.iterations()) *
      static_cast<double>(batch.size());
  state.SetItemsProcessed(static_cast<int64_t>(processed));
  const double rate = processed / (total_millis / 1000.0);
  // The sweep runs in registration order, so the 1-shard run seeds the
  // baseline for the scaling/efficiency counters of the later runs.
  static double serial_rate = 0.0;
  if (num_shards == 1) serial_rate = rate;
  state.counters["records_per_sec"] = rate;
  if (serial_rate > 0.0) {
    state.counters["scaling_x"] = rate / serial_rate;
    state.counters["efficiency"] = rate / (serial_rate * num_shards);
  }
}
BENCHMARK(BM_EngineShardScaling)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->ArgNames({"shards"})
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

// Batch-size sweep for the allocation-free batched ingest path
// (StreamAggEngine::ProcessBatch -> ConfigurationRuntime::ProcessBatch).
// Batch 1 exercises the same plumbing one record at a time and doubles as
// the per-record baseline for the speedup counter; 16/64/256 amortize the
// projection-plan + prefetch pipeline across the chunked probe loop.
void BM_EngineBatchedIngest(benchmark::State& state) {
  const size_t batch_size = static_cast<size_t>(state.range(0));
  const Schema schema = *Schema::Default(4);
  auto gen = std::move(UniformGenerator::Make(schema, 2837, 7)).value();
  std::vector<QueryDef> queries = {
      QueryDef(*schema.ParseAttributeSet("AB")),
      QueryDef(*schema.ParseAttributeSet("BC")),
      QueryDef(*schema.ParseAttributeSet("BD")),
      QueryDef(*schema.ParseAttributeSet("CD"))};
  StreamAggEngine::Options options;
  options.memory_words = 40000;
  options.sample_size = 20000;
  options.epoch_seconds = 1.0;
  options.clustered = false;
  auto engine =
      std::move(StreamAggEngine::FromQueryDefs(schema, queries, options))
          .value();
  // Drive past the sampling phase so the loop measures steady state.
  double t = 0.0;
  for (size_t i = 0; i <= options.sample_size; ++i) {
    Record r = gen->Next();
    r.timestamp = t;
    (void)engine->Process(r);
  }
  // Pre-drawn, pre-timestamped replay buffer: the timed region is pure
  // ingest. All timestamps land inside the current epoch so results stay
  // identical across sweep points (no flush skew).
  std::vector<Record> replay(1 << 16);
  for (Record& r : replay) {
    r = gen->Next();
    t += 1e-7;
    r.timestamp = t;
  }
  double total_millis = 0.0;
  for (auto _ : state) {
    Restamp(&replay, &t);
    double millis = 0.0;
    {
      ScopedTimer timer(&millis);
      for (size_t base = 0; base < replay.size(); base += batch_size) {
        const size_t n = std::min(batch_size, replay.size() - base);
        (void)engine->ProcessBatch(
            std::span<const Record>(replay.data() + base, n));
      }
    }
    state.SetIterationTime(millis / 1000.0);
    total_millis += millis;
  }
  const double processed = static_cast<double>(state.iterations()) *
                           static_cast<double>(replay.size());
  state.SetItemsProcessed(static_cast<int64_t>(processed));
  const double rate = processed / (total_millis / 1000.0);
  // Sweep runs in registration order; batch 1 seeds the speedup baseline.
  static double per_record_rate = 0.0;
  if (batch_size == 1) per_record_rate = rate;
  state.counters["records_per_sec"] = rate;
  if (per_record_rate > 0.0) {
    state.counters["speedup_vs_batch1"] = rate / per_record_rate;
  }
}
BENCHMARK(BM_EngineBatchedIngest)
    ->Arg(1)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256)
    ->ArgNames({"batch"})
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

// Telemetry tier sweep at batch 64 (the acceptance gate for the obs layer:
// kFull vs kOff must stay within 2%). Same replay as BM_EngineBatchedIngest;
// only Options::telemetry_level varies — 0=kOff, 1=kCounters, 2=kFull.
// Note this A/Bs the *runtime* toggle inside a full-telemetry binary;
// compiling with -DSTREAMAGG_TELEMETRY_LEVEL=0 strips the remaining relaxed
// loads too.
void BM_EngineTelemetryOverhead(benchmark::State& state) {
  const size_t batch_size = 64;
  const auto level = static_cast<TelemetryLevel>(state.range(0));
  const Schema schema = *Schema::Default(4);
  auto gen = std::move(UniformGenerator::Make(schema, 2837, 7)).value();
  std::vector<QueryDef> queries = {
      QueryDef(*schema.ParseAttributeSet("AB")),
      QueryDef(*schema.ParseAttributeSet("BC")),
      QueryDef(*schema.ParseAttributeSet("BD")),
      QueryDef(*schema.ParseAttributeSet("CD"))};
  StreamAggEngine::Options options;
  options.memory_words = 40000;
  options.sample_size = 20000;
  options.epoch_seconds = 1.0;
  options.clustered = false;
  options.telemetry_level = level;
  auto engine =
      std::move(StreamAggEngine::FromQueryDefs(schema, queries, options))
          .value();
  // Drive past the sampling phase so the loop measures steady state.
  double t = 0.0;
  for (size_t i = 0; i <= options.sample_size; ++i) {
    Record r = gen->Next();
    r.timestamp = t;
    (void)engine->Process(r);
  }
  std::vector<Record> replay(1 << 16);
  for (Record& r : replay) {
    r = gen->Next();
    t += 1e-7;
    r.timestamp = t;
  }
  double total_millis = 0.0;
  for (auto _ : state) {
    Restamp(&replay, &t);
    double millis = 0.0;
    {
      ScopedTimer timer(&millis);
      for (size_t base = 0; base < replay.size(); base += batch_size) {
        const size_t n = std::min(batch_size, replay.size() - base);
        (void)engine->ProcessBatch(
            std::span<const Record>(replay.data() + base, n));
      }
    }
    state.SetIterationTime(millis / 1000.0);
    total_millis += millis;
  }
  const double processed = static_cast<double>(state.iterations()) *
                           static_cast<double>(replay.size());
  state.SetItemsProcessed(static_cast<int64_t>(processed));
  const double rate = processed / (total_millis / 1000.0);
  // Sweep runs in registration order; the kOff run seeds the baseline for
  // the overhead counter of the kCounters/kFull runs.
  static double off_rate = 0.0;
  if (level == TelemetryLevel::kOff) off_rate = rate;
  state.counters["records_per_sec"] = rate;
  if (off_rate > 0.0) {
    state.counters["overhead_pct"] = 100.0 * (off_rate - rate) / off_rate;
  }
}
BENCHMARK(BM_EngineTelemetryOverhead)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->ArgNames({"telemetry"})
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

// The flight-recorder gate (docs/tracing.md §4): the same batch-64 replay
// loop with FlightRecorder disabled (arg 0) vs enabled (arg 1). Event
// sites fire at epoch/barrier/flush cadence — never per record — so the
// enabled run must stay within noise (< 3%) of the disabled baseline;
// overhead_pct reports the measured regression against the arg-0 run.
void BM_EngineTraceOverhead(benchmark::State& state) {
  const size_t batch_size = 64;
  const bool tracing = state.range(0) != 0;
  FlightRecorder::Instance().Clear();
  FlightRecorder::Instance().set_enabled(tracing);
  const Schema schema = *Schema::Default(4);
  auto gen = std::move(UniformGenerator::Make(schema, 2837, 7)).value();
  std::vector<QueryDef> queries = {
      QueryDef(*schema.ParseAttributeSet("AB")),
      QueryDef(*schema.ParseAttributeSet("BC")),
      QueryDef(*schema.ParseAttributeSet("BD")),
      QueryDef(*schema.ParseAttributeSet("CD"))};
  StreamAggEngine::Options options;
  options.memory_words = 40000;
  options.sample_size = 20000;
  options.epoch_seconds = 1.0;
  options.clustered = false;
  auto engine =
      std::move(StreamAggEngine::FromQueryDefs(schema, queries, options))
          .value();
  // Drive past the sampling phase so the loop measures steady state.
  double t = 0.0;
  for (size_t i = 0; i <= options.sample_size; ++i) {
    Record r = gen->Next();
    r.timestamp = t;
    (void)engine->Process(r);
  }
  std::vector<Record> replay(1 << 16);
  for (Record& r : replay) {
    r = gen->Next();
    t += 1e-7;
    r.timestamp = t;
  }
  double total_millis = 0.0;
  for (auto _ : state) {
    Restamp(&replay, &t);
    double millis = 0.0;
    {
      ScopedTimer timer(&millis);
      for (size_t base = 0; base < replay.size(); base += batch_size) {
        const size_t n = std::min(batch_size, replay.size() - base);
        (void)engine->ProcessBatch(
            std::span<const Record>(replay.data() + base, n));
      }
    }
    state.SetIterationTime(millis / 1000.0);
    total_millis += millis;
  }
  const double processed = static_cast<double>(state.iterations()) *
                           static_cast<double>(replay.size());
  state.SetItemsProcessed(static_cast<int64_t>(processed));
  const double rate = processed / (total_millis / 1000.0);
  // Registration order runs arg 0 first; it seeds the baseline.
  static double off_rate = 0.0;
  if (!tracing) off_rate = rate;
  state.counters["records_per_sec"] = rate;
  if (off_rate > 0.0) {
    state.counters["overhead_pct"] = 100.0 * (off_rate - rate) / off_rate;
  }
  FlightRecorder::Instance().set_enabled(false);
  FlightRecorder::Instance().Clear();
}
BENCHMARK(BM_EngineTraceOverhead)
    ->Arg(0)
    ->Arg(1)
    ->ArgNames({"tracing"})
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

// Offered-load sweep for the overload controller (docs/overload.md): the
// batched-ingest loop with the cost-priced shedding floor pinned to the
// load factor the sweep point simulates — load_pct/100 = F, floor
// 1 - 1/F (the engine_monitor --overload convention), so 50%/100% shed
// nothing and 150%/200% shed 1/3 and 1/2 of every raw probe. Reports
// whole-run records/sec next to the realized shed fraction and the p99
// epoch-boundary gap, the three columns of the EXPERIMENTS.md overload
// table: throughput should *rise* with the shed fraction (dropped probes
// are cycles not spent) while the epoch gap stays flat.
void BM_EngineOverload(benchmark::State& state) {
  const size_t batch_size = 64;
  const double load = static_cast<double>(state.range(0)) / 100.0;
  const Schema schema = *Schema::Default(4);
  auto gen = std::move(UniformGenerator::Make(schema, 2837, 7)).value();
  std::vector<QueryDef> queries = {
      QueryDef(*schema.ParseAttributeSet("AB")),
      QueryDef(*schema.ParseAttributeSet("BC")),
      QueryDef(*schema.ParseAttributeSet("BD")),
      QueryDef(*schema.ParseAttributeSet("CD"))};
  StreamAggEngine::Options options;
  options.memory_words = 40000;
  options.sample_size = 20000;
  options.epoch_seconds = 1.0;
  options.clustered = false;
  options.overload.enabled = true;
  options.overload.min_shed_fraction = std::max(0.0, 1.0 - 1.0 / load);
  auto engine =
      std::move(StreamAggEngine::FromQueryDefs(schema, queries, options))
          .value();
  // Drive past the sampling phase so the loop measures steady state.
  double t = 0.0;
  for (size_t i = 0; i <= options.sample_size; ++i) {
    Record r = gen->Next();
    r.timestamp = t;
    (void)engine->Process(r);
  }
  std::vector<Record> replay(1 << 16);
  for (Record& r : replay) r = gen->Next();
  double total_millis = 0.0;
  for (auto _ : state) {
    double millis = 0.0;
    {
      ScopedTimer timer(&millis);
      for (size_t base = 0; base < replay.size(); base += batch_size) {
        const size_t n = std::min(batch_size, replay.size() - base);
        for (size_t i = 0; i < n; ++i) {
          t += 1e-5;  // ~100k records per epoch: boundaries stay in play.
          replay[base + i].timestamp = t;
        }
        (void)engine->ProcessBatch(
            std::span<const Record>(replay.data() + base, n));
      }
    }
    state.SetIterationTime(millis / 1000.0);
    total_millis += millis;
  }
  const double processed = static_cast<double>(state.iterations()) *
                           static_cast<double>(replay.size());
  state.SetItemsProcessed(static_cast<int64_t>(processed));
  state.counters["records_per_sec"] = processed / (total_millis / 1000.0);
  const TelemetrySnapshot snapshot = engine->telemetry();
  state.counters["shed_fraction"] = snapshot.shedding.shed_fraction;
  state.counters["p99_epoch_gap_ns"] = static_cast<double>(
      snapshot.epoch_gap_ns.Quantile(0.99));
}
BENCHMARK(BM_EngineOverload)
    ->Arg(50)
    ->Arg(100)
    ->Arg(150)
    ->Arg(200)
    ->ArgNames({"load_pct"})
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

// Probe-kernel sweep: one query table driven straight through
// ConfigurationRuntime::ProcessBatch at batch 64, with the bucket count
// pinned (1024) so the group-count sweep walks the paper's collision curve
// from cold (g/b = 1/4) to saturated (g/b = 16, where nearly every probe
// evicts a resident group). Uniform and Zipf(1.0) draws from the same group
// universe at every point — the methodology of the group-by study (arXiv
// 2411.13245); see EXPERIMENTS.md. Reports records/sec plus the observed
// collision rate.
void BM_EngineProbeKernel(benchmark::State& state) {
  const uint64_t groups = static_cast<uint64_t>(state.range(0));
  const double theta = static_cast<double>(state.range(1)) / 100.0;
  const Schema schema = *Schema::Default(4);
  auto universe = std::move(GroupUniverse::Uniform(
                                schema, groups,
                                {1 << 16, 1 << 16, 1 << 16, 1 << 16}, 23))
                      .value();
  std::unique_ptr<RecordGenerator> gen;
  if (theta == 0.0) {
    gen = std::make_unique<UniformGenerator>(std::move(universe), 29);
  } else {
    gen = std::move(ZipfGenerator::Make(std::move(universe), theta, 29))
              .value();
  }
  RuntimeRelationSpec spec;
  spec.attrs = *schema.ParseAttributeSet("AB");
  spec.num_buckets = 1024;
  spec.is_query = true;
  spec.query_index = 0;
  auto runtime =
      std::move(ConfigurationRuntime::Make(schema, {spec}, 1.0)).value();
  // Pre-drawn, pre-timestamped replay inside one epoch: the timed region
  // is the pure probe kernel plus its evictions (no flush mid-batch).
  std::vector<Record> replay(1 << 16);
  double t = 0.0;
  for (Record& r : replay) {
    r = gen->Next();
    t += 1e-7;
    r.timestamp = t;
  }
  double total_millis = 0.0;
  for (auto _ : state) {
    double millis = 0.0;
    {
      ScopedTimer timer(&millis);
      for (size_t base = 0; base < replay.size(); base += 64) {
        const size_t n = std::min<size_t>(64, replay.size() - base);
        runtime->ProcessBatch(
            std::span<const Record>(replay.data() + base, n));
      }
    }
    state.SetIterationTime(millis / 1000.0);
    total_millis += millis;
  }
  const double processed = static_cast<double>(state.iterations()) *
                           static_cast<double>(replay.size());
  state.SetItemsProcessed(static_cast<int64_t>(processed));
  state.counters["records_per_sec"] = processed / (total_millis / 1000.0);
  const LftaHashTable& table = runtime->table(0);
  state.counters["collision_rate"] =
      table.probes() > 0 ? static_cast<double>(table.collisions()) /
                               static_cast<double>(table.probes())
                         : 0.0;
  // CI's bench-smoke job greps this label to assert the SIMD dispatch the
  // build actually selected (docs/probe_kernel.md §2).
  state.SetLabel(std::string("simd:") + SimdTierName());
}
BENCHMARK(BM_EngineProbeKernel)
    ->Args({256, 0})
    ->Args({1024, 0})
    ->Args({4096, 0})
    ->Args({16384, 0})
    ->Args({256, 100})
    ->Args({1024, 100})
    ->Args({4096, 100})
    ->Args({16384, 100})
    ->ArgNames({"groups", "zipf_pct"})
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
