// End-to-end and per-layer benchmark for StreamAggEngine.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out PATH]
//
// Untraced (--trace 0): drives the engine through fresh passes over one
// seeded stream until S seconds are spent and prints the end-to-end
// metrics. Traced (--trace 1): alternates untraced passes with traced
// ones, in which every call into the engine is wrapped in a span and a
// shadow pipeline redoes the engine's work through each layer's public
// functions; prints the per-layer metrics and writes the spans of the
// first traced pass as Chrome trace-event JSON to PATH.
//
// Every answer is checked against a reference computed from the stream
// without the engine. The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. See README.md.

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/adaptive.h"
#include "core/collision_model.h"
#include "core/cost_model.h"
#include "core/engine.h"
#include "core/optimizer.h"
#include "core/query_language.h"
#include "core/relation_catalog.h"
#include "dsms/configuration_runtime.h"
#include "dsms/hfta.h"
#include "dsms/lfta_hash_table.h"
#include "dsms/overload_controller.h"
#include "dsms/sharded_runtime.h"
#include "obs/telemetry.h"
#include "stream/flow_generator.h"
#include "stream/trace.h"
#include "stream/trace_stats.h"
#include "stream/uniform_generator.h"

using namespace streamagg;
namespace pb = perfbench;

namespace {

constexpr size_t kEpochRecords = 100000;
constexpr uint64_t kEpochs = 40;
constexpr double kBudgetWords = 40000.0;
constexpr double kChurnReserve = 0.25;
// Record j of epoch e carries timestamp e + j / 2^17: exact in binary, so
// floor(timestamp) is the epoch with no rounding at the boundaries.
constexpr double kTick = 1.0 / 131072.0;
// The close-time tail is taken per window of three whole passes (39 closes
// each), so every window holds the same mix of boundaries — re-plans, churn
// epochs, scan phases — and only host speed differs between windows. With
// two passes, the tail rank left the re-plan closes on adaptive seeds that
// re-plan slowly only five times a pass, and their tail halved.
constexpr size_t kTailWindow = 3 * (kEpochs - 1);
// Eq 7's constants as bench_fig14 uses them.
constexpr double kC1 = 1.0;
constexpr double kC2 = 50.0;
// ConfigurationRuntime's default table seed and per-table stride, so a
// standalone table hashes exactly like the runtime's table of that index.
constexpr uint64_t kRuntimeSeed = 0x1f7a;
constexpr uint64_t kSeedStride = 0x9e3779b97f4a7c15ULL;

const char* const kInitialGroupings[] = {"AB", "BC", "BD", "CD"};

std::string QueryText(const std::string& grouping) {
  std::string cols;
  for (char c : grouping) {
    cols += c;
    cols += ", ";
  }
  return "select " + cols + "count(*) from R group by " + cols + "time/1";
}

std::vector<int> AttrIndices(const std::string& grouping) {
  std::vector<int> out;
  for (char c : grouping) out.push_back(c - 'A');
  std::sort(out.begin(), out.end());
  return out;
}

// ---------------------------------------------------------------------------
// Workloads.

struct ChurnStep {
  size_t at = 0;  ///< The call comes after records [0, at) were handed over.
  bool add = false;
  int query_id = -1;  ///< The id dropped, or the id the add must return.
  std::string grouping;
};

/// One query id's life: it accumulates records [from, to).
struct QueryLife {
  std::string grouping;
  size_t from = 0;
  size_t to = SIZE_MAX;
};

struct Workload {
  std::string name;
  Schema schema = *Schema::Default(4);
  std::vector<Record> records;
  size_t batch = 64;
  StreamAggEngine::Options options;
  std::vector<ChurnStep> churn;
  std::vector<QueryLife> queries;  ///< By query id.
  int shifts = 0;                  ///< Distribution shifts in the stream.
  /// Shadow a ShardedRuntime (the sharded_runtime layer's metrics).
  bool shadow_sharded = false;
  /// reference[id][epoch]: the exact answer of query `id` for `epoch`.
  std::vector<std::map<uint64_t, pb::RefGroups>> reference;
};

void Stamp(Record* r, size_t index) {
  const size_t e = index / kEpochRecords;
  const size_t j = index % kEpochRecords;
  r->timestamp = static_cast<double>(e) + static_cast<double>(j) * kTick;
}

// The group universes are fixed properties of the workloads (the paper's
// projection counts, engine_monitor's scan); the seed draws the stream from
// them. Seeded universes would change the plan, and with it the work done,
// from one seed to the next.
constexpr uint64_t kUniverseSeed = 42;
constexpr uint64_t kScanUniverseSeed = 77;

GroupUniverse PaperUniverse(const Schema& schema) {
  return std::move(GroupUniverse::Hierarchical(schema, {552, 1846, 2117, 2837},
                                               kUniverseSeed))
      .value();
}

void GenerateFlows(Workload* w, uint64_t seed, bool scan_phases) {
  FlowGeneratorOptions options;
  options.seed = seed;
  FlowGenerator flows(PaperUniverse(w->schema), options);
  std::unique_ptr<UniformGenerator> scan;
  if (scan_phases) {
    auto base = std::move(UniformGenerator::Make(w->schema, 18000,
                                                 kScanUniverseSeed))
                    .value();
    scan = std::make_unique<UniformGenerator>(base->universe(), seed);
  }
  const size_t n = kEpochs * kEpochRecords;
  w->records.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const bool in_scan = scan_phases && (i / kEpochRecords / 10) % 2 == 1;
    w->records[i] = in_scan ? scan->Next() : flows.Next();
    Stamp(&w->records[i], i);
  }
  if (scan_phases) w->shifts = static_cast<int>(kEpochs / 10) - 1;
}

void GenerateUniformChurn(Workload* w, uint64_t seed) {
  UniformGenerator gen(PaperUniverse(w->schema), seed);
  const size_t n = kEpochs * kEpochRecords;
  w->records.resize(n);
  for (size_t i = 0; i < n; ++i) {
    w->records[i] = gen.Next();
    Stamp(&w->records[i], i);
  }
  // The query sequence is fixed so that every seed does the same planning
  // work: the live count climbs from 4 to 8, falls to 3, climbs to 8, falls
  // to 3 and ends at 4. Adds take the next non-live grouping from a list
  // that mixes 1-, 2- and 3-attribute groupings; drops retire the oldest
  // live query. The seed places each call inside its epoch.
  const char* const kPool[] = {"A",  "AC", "ABD", "D",  "AD",  "BCD", "C",
                               "BC", "ACD", "B",  "CD", "ABC", "BD",  "AB"};
  const char kPattern[] = "++++-----+++++-----+";
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ULL + 0xc4u);
  std::vector<int> live;
  for (int id = 0; id < static_cast<int>(w->queries.size()); ++id) {
    live.push_back(id);
  }
  size_t next = 0;
  for (uint64_t e = 1, k = 0; e < kEpochs; e += 2, ++k) {
    ChurnStep step;
    step.at = e * kEpochRecords + 1 + rng() % (kEpochRecords - 2);
    step.add = kPattern[k] == '+';
    if (step.add) {
      for (;; next = (next + 1) % std::size(kPool)) {
        bool is_live = false;
        for (int id : live) is_live |= w->queries[id].grouping == kPool[next];
        if (!is_live) break;
      }
      step.grouping = kPool[next];
      next = (next + 1) % std::size(kPool);
      step.query_id = static_cast<int>(w->queries.size());
      w->queries.push_back(QueryLife{step.grouping, step.at, SIZE_MAX});
      live.push_back(step.query_id);
    } else {
      step.query_id = live.front();
      step.grouping = w->queries[step.query_id].grouping;
      w->queries[step.query_id].to = step.at;
      live.erase(live.begin());
    }
    w->churn.push_back(step);
  }
}

void ComputeReference(Workload* w) {
  w->reference.assign(w->queries.size(), {});
  const size_t n = w->records.size();
  for (size_t id = 0; id < w->queries.size(); ++id) {
    const QueryLife& q = w->queries[id];
    const std::vector<int> attrs = AttrIndices(q.grouping);
    const size_t to = std::min(q.to, n);
    for (size_t begin = q.from; begin < to;) {
      const uint64_t epoch = begin / kEpochRecords;
      const size_t end = std::min(to, (epoch + 1) * kEpochRecords);
      pb::ReferenceAggregate(w->records, begin, end, attrs,
                             &w->reference[id][epoch]);
      begin = end;
    }
  }
}

Result<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  Workload w;
  w.name = name;
  w.options.memory_words = kBudgetWords;
  for (const char* g : kInitialGroupings) w.queries.push_back(QueryLife{g});
  if (name == "flows_plain") {
    GenerateFlows(&w, seed, /*scan_phases=*/false);
    w.shadow_sharded = true;
  } else if (name == "flows_scan_adaptive") {
    GenerateFlows(&w, seed, /*scan_phases=*/true);
    w.options.adaptive = true;
    w.options.overload.enabled = true;  // No floor: sheds nothing serially.
  } else if (name == "uniform_churn") {
    GenerateUniformChurn(&w, seed);
    w.batch = 1;
    w.options.churn_reserve_fraction = kChurnReserve;
  } else {
    return Status::InvalidArgument("unknown workload " + name);
  }
  ComputeReference(&w);
  return w;
}

std::vector<std::string> InitialTexts() {
  std::vector<std::string> texts;
  for (const char* g : kInitialGroupings) texts.push_back(QueryText(g));
  return texts;
}

bool Matches(const EpochAggregate& got, const pb::RefGroups& want) {
  if (got.size() != want.size()) return false;
  GroupKey key;
  for (const auto& [k, count] : want) {
    key.size = k.size;
    for (uint8_t i = 0; i < k.size; ++i) key.values[i] = k.values[i];
    auto it = got.find(key);
    if (it == got.end() || it->second.count != count) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// The shadow pipeline: redoes the engine's work through each layer's public
// functions, one span per call, on the records the engine was handed.

class Shadow {
 public:
  Shadow(const Workload& w, pb::Tracer* tracer)
      : w_(w),
        tracer_(tracer),
        collision_model_(
            MakeCollisionModel(w.options.optimizer.collision_model)),
        optimizer_(w.options.optimizer) {
    for (size_t id = 0; id < std::size(kInitialGroupings); ++id) {
      dense_ids_.push_back(static_cast<int>(id));
    }
  }

  /// Setup: parse the query set, measure statistics and optimize on the
  /// engine's sample, then take over the engine's live plan and catch up
  /// with the `consumed` records the engine has been handed.
  Status Setup(const StreamAggEngine& engine, size_t consumed, int parent) {
    int s = tracer_->Begin("query_language.ParseQuerySet", 0, parent);
    auto parsed = ParseQuerySet(w_.schema, InitialTexts());
    tracer_->End(s);
    STREAMAGG_RETURN_NOT_OK(parsed.status());
    std::vector<QueryDef> defs;
    for (const ParsedQuery& q : *parsed) defs.push_back(q.def);

    sample_ = std::make_unique<Trace>(w_.schema);
    const size_t n = std::min(w_.options.sample_size, w_.records.size());
    sample_->Reserve(n);
    for (size_t i = 0; i < n; ++i) sample_->Append(w_.records[i]);
    s = tracer_->Begin("optimizer.TraceStats", 0, parent);
    stats_ = std::make_unique<TraceStats>(sample_.get());
    catalog_ = std::make_unique<RelationCatalog>(
        RelationCatalog::FromTrace(stats_.get(), w_.options.clustered));
    // The catalog measures lazily; force every statistic the optimizer can
    // ask for so that Optimize below times planning alone.
    for (uint32_t mask = 1; mask < (1u << w_.schema.num_attributes()); ++mask) {
      catalog_->GroupCount(AttributeSet(mask));
      catalog_->FlowLength(AttributeSet(mask));
    }
    tracer_->End(s);
    s = tracer_->Begin("optimizer.Optimize", 0, parent);
    auto plan = optimizer_.Optimize(
        *catalog_, defs,
        w_.options.memory_words * (1.0 - w_.options.churn_reserve_fraction));
    tracer_->End(s);
    STREAMAGG_RETURN_NOT_OK(plan.status());
    cost_model_ = std::make_unique<CostModel>(
        catalog_.get(), collision_model_.get(), w_.options.optimizer.cost);
    if (w_.options.overload.enabled) {
      overload_ = std::make_unique<OverloadController>(w_.options.overload);
    }
    accumulated_ = std::make_unique<Hfta>(static_cast<int>(defs.size()));
    STREAMAGG_RETURN_NOT_OK(Rebuild(*engine.plan()));
    Feed(std::span<const Record>(w_.records.data(), consumed), 0, parent);
    return Status::OK();
  }

  void Feed(std::span<const Record> records, uint64_t epoch, int parent) {
    if (records.empty()) return;
    const RuntimeCounters before = runtime_->counters();
    int s = tracer_->Begin("configuration_runtime.ProcessBatch", epoch, parent);
    runtime_->ProcessBatch(records);
    tracer_->End(s);
    // An epoch run after an explicit FlushEpoch makes the runtime flush its
    // (empty) tables once more when it sees the new epoch: same probes and
    // transfers, one more epochs_flushed. Count it so the totals compare.
    const RuntimeCounters delta = runtime_->counters().Since(before);
    if (delta.flush_probes == 0 && delta.flush_transfers == 0) {
      empty_flushes_ += delta.epochs_flushed;
    } else {
      unexpected_flush_ = true;
    }

    s = tracer_->Begin("lfta_hash_table.Probe", epoch, parent);
    GroupKey evicted_key;
    AggregateState evicted_state;
    const AggregateState one = AggregateState::FromCount(1);
    for (RawTable& raw : raw_tables_) {
      for (const Record& r : records) {
        raw.table->ProbeState(GroupKey::Project(r, raw.attrs), one,
                              &evicted_key, &evicted_state);
      }
    }
    tracer_->End(s);

    if (sharded_ != nullptr) {
      s = tracer_->Begin("sharded_runtime.ProcessBatch", epoch, parent);
      sharded_->ProcessBatch(records);
      tracer_->End(s);
    }
    records_ += records.size();
    model_cost_sum_ +=
        plan_->per_record_cost * static_cast<double>(records.size());
  }

  /// The engine's epoch boundary after `closed_epoch`: snapshot and
  /// controllers (when the engine runs them), then the flush; a re-plan
  /// retires the runtime and takes over the engine's new plan.
  Status Boundary(uint64_t closed_epoch, const OptimizedPlan* replanned,
                  int parent) {
    const bool controllers = w_.options.adaptive || w_.options.overload.enabled;
    if (controllers) {
      int s = tracer_->Begin("telemetry.BuildTelemetrySnapshot", closed_epoch,
                             parent);
      TelemetrySnapshot snapshot = BuildTelemetrySnapshot(*runtime_, w_.schema);
      tracer_->End(s);
      snapshot.epoch = closed_epoch;
      s = tracer_->Begin("telemetry.ToJsonLine", closed_epoch, parent);
      const std::string json = snapshot.ToJsonLine();
      tracer_->End(s);
      history_.push_back(std::move(snapshot));
      if (history_.size() > w_.options.telemetry_history_cap) {
        history_.erase(history_.begin());
      }
      const std::span<const TelemetrySnapshot> history(history_);
      if (w_.options.adaptive) {
        s = tracer_->Begin("adaptive.AssessTrend", closed_epoch, parent);
        AdaptiveController controller(cost_model_.get(), plan_.get(),
                                      w_.options.adaptive_options);
        (void)controller.AssessTrend(history);
        tracer_->End(s);
      }
      if (overload_ != nullptr) {
        s = tracer_->Begin("overload_controller.UpdateShedPlan", closed_epoch,
                           parent);
        overload_->UpdateShedPlan(history);
        tracer_->End(s);
      }
    }
    Flush(closed_epoch, parent);
    if (replanned != nullptr) {
      Retire(closed_epoch, parent);
      return Rebuild(*replanned);
    }
    return Status::OK();
  }

  /// The engine's AddQuery/DropQuery barrier: plan the change, flush the
  /// epoch in flight, retire the runtime and take over the engine's plan.
  Status Churn(const ChurnStep& step, uint64_t epoch,
               const OptimizedPlan& next, int parent) {
    // The live queries after the change, in dense order, for the full
    // Optimize the engine falls back to when surgery fails.
    std::vector<QueryDef> after;
    for (int id : dense_ids_) {
      if (step.add || id != step.query_id) {
        after.push_back(QueryDef(*w_.schema.ParseAttributeSet(
            w_.queries[static_cast<size_t>(id)].grouping)));
      }
    }
    bool planned = true;
    if (step.add) {
      after.push_back(QueryDef(*w_.schema.ParseAttributeSet(step.grouping)));
      int s = tracer_->Begin("optimizer.GraftQueries", epoch, parent);
      planned = optimizer_
                    .GraftQueries(*catalog_, *plan_, {after.back()},
                                  w_.options.memory_words)
                    .ok();
      tracer_->End(s);
    } else {
      int s = tracer_->Begin("optimizer.PruneQueries", epoch, parent);
      planned = optimizer_
                    .PruneQueries(*catalog_, *plan_, {DenseOf(step.query_id)})
                    .ok();
      tracer_->End(s);
    }
    if (!planned) {
      int s = tracer_->Begin("optimizer.Optimize (churn fallback)", epoch,
                             parent);
      auto fallback = optimizer_.Optimize(
          *catalog_, after,
          w_.options.memory_words * (1.0 - w_.options.churn_reserve_fraction));
      tracer_->End(s);
      STREAMAGG_RETURN_NOT_OK(fallback.status());
    }
    Flush(epoch, parent);
    Retire(epoch, parent);
    // Mirror the engine's dense-slot bookkeeping on the accumulated HFTA.
    std::vector<int> source;
    if (step.add) {
      for (size_t d = 0; d < dense_ids_.size(); ++d) {
        source.push_back(static_cast<int>(d));
      }
      source.push_back(-1);
      dense_ids_.push_back(step.query_id);
    } else {
      const int dense = DenseOf(step.query_id);
      for (size_t d = 0; d < dense_ids_.size(); ++d) {
        if (static_cast<int>(d) != dense) source.push_back(static_cast<int>(d));
      }
      dense_ids_.erase(dense_ids_.begin() + dense);
    }
    accumulated_->Remap(
        std::vector<std::vector<MetricSpec>>(dense_ids_.size()), source);
    return Rebuild(next);
  }

  void Finish(uint64_t epoch, int parent) {
    Flush(epoch, parent);
    if (sharded_ != nullptr) {
      // Like the engine's sharded path, whose only barrier is Finish():
      // the workers flush each epoch themselves when they see the next.
      const int s = tracer_->Begin("sharded_runtime.FlushEpoch", epoch, parent);
      sharded_->FlushEpoch();
      tracer_->End(s);
    }
    Retire(epoch, parent);
  }

  /// Counters summed over every runtime the shadow built, less the empty
  /// re-flushes Feed counted.
  RuntimeCounters counters() const {
    RuntimeCounters total = retired_counters_;
    if (runtime_ != nullptr) total.Add(runtime_->counters());
    total.epochs_flushed -= empty_flushes_;
    return total;
  }
  bool unexpected_flush() const { return unexpected_flush_; }
  uint64_t records() const { return records_; }
  double model_cost_per_record() const {
    return records_ == 0 ? 0.0
                         : model_cost_sum_ / static_cast<double>(records_);
  }
  uint64_t raw_probes() const { return raw_probes_ + LiveRaw(false); }
  uint64_t raw_collisions() const { return raw_collisions_ + LiveRaw(true); }
  /// Standalone raw tables must collide exactly like the runtime's.
  bool raw_tables_agree() const { return raw_agree_ && LiveRawAgree(); }
  const std::vector<uint64_t>& shard_records() const { return shard_records_; }
  uint64_t blocked_pushes() const { return blocked_pushes_; }

 private:
  struct RawTable {
    int index = 0;  ///< Spec index in the runtime.
    AttributeSet attrs;
    std::unique_ptr<LftaHashTable> table;
  };

  int DenseOf(int query_id) const {
    for (size_t d = 0; d < dense_ids_.size(); ++d) {
      if (dense_ids_[d] == query_id) return static_cast<int>(d);
    }
    return -1;
  }

  void Flush(uint64_t epoch, int parent) {
    int s = tracer_->Begin("configuration_runtime.FlushEpoch", epoch, parent);
    runtime_->FlushEpoch();
    tracer_->End(s);
    for (RawTable& raw : raw_tables_) {
      raw.table->FlushState([](const GroupKey&, const AggregateState&) {});
    }
  }

  void Retire(uint64_t epoch, int parent) {
    int s = tracer_->Begin("hfta.MergeFrom", epoch, parent);
    accumulated_->MergeFrom(runtime_->hfta());
    tracer_->End(s);
    retired_counters_.Add(runtime_->counters());
    raw_agree_ = raw_agree_ && LiveRawAgree();
    raw_probes_ += LiveRaw(false);
    raw_collisions_ += LiveRaw(true);
    if (sharded_ != nullptr) {
      shard_records_.resize(static_cast<size_t>(sharded_->num_shards()), 0);
      for (int i = 0; i < sharded_->num_shards(); ++i) {
        const ShardIngestStats stats = sharded_->shard_stats(i);
        shard_records_[static_cast<size_t>(i)] += stats.records;
        blocked_pushes_ += stats.blocked_pushes;
      }
    }
    runtime_.reset();
    sharded_.reset();
    raw_tables_.clear();
  }

  Status Rebuild(const OptimizedPlan& plan) {
    plan_ = std::make_unique<OptimizedPlan>(plan);
    STREAMAGG_ASSIGN_OR_RETURN(std::vector<RuntimeRelationSpec> specs,
                               plan_->ToRuntimeSpecs());
    raw_tables_.clear();
    for (size_t i = 0; i < specs.size(); ++i) {
      if (specs[i].parent >= 0) continue;
      RawTable raw;
      raw.index = static_cast<int>(i);
      raw.attrs = specs[i].attrs;
      raw.table = std::make_unique<LftaHashTable>(
          specs[i].num_buckets, specs[i].attrs.Count(), specs[i].metrics,
          kRuntimeSeed + kSeedStride * (i + 1));
      raw_tables_.push_back(std::move(raw));
    }
    if (w_.shadow_sharded) {
      // Two pinned shards: three threads, within the 4 vCPUs of the
      // reference host.
      ShardedRuntime::Options options;
      options.num_shards = 2;
      options.pin_threads = true;
      STREAMAGG_ASSIGN_OR_RETURN(
          sharded_, ShardedRuntime::Make(w_.schema, specs, 1.0, options));
    }
    STREAMAGG_ASSIGN_OR_RETURN(
        runtime_, ConfigurationRuntime::Make(w_.schema, std::move(specs), 1.0));
    if (overload_ != nullptr) {
      overload_->PriceRelations(cost_model_.get(), *plan_, w_.schema);
    }
    return Status::OK();
  }

  uint64_t LiveRaw(bool collisions) const {
    uint64_t total = 0;
    for (const RawTable& raw : raw_tables_) {
      total += collisions ? raw.table->collisions() : raw.table->probes();
    }
    return total;
  }
  bool LiveRawAgree() const {
    for (const RawTable& raw : raw_tables_) {
      const LftaHashTable& mine = runtime_->table(raw.index);
      if (mine.probes() != raw.table->probes() ||
          mine.collisions() != raw.table->collisions()) {
        return false;
      }
    }
    return true;
  }

  const Workload& w_;
  pb::Tracer* tracer_;
  std::unique_ptr<CollisionModel> collision_model_;
  Optimizer optimizer_;
  std::unique_ptr<Trace> sample_;
  std::unique_ptr<TraceStats> stats_;
  std::unique_ptr<RelationCatalog> catalog_;
  std::unique_ptr<CostModel> cost_model_;
  std::unique_ptr<OverloadController> overload_;
  std::unique_ptr<OptimizedPlan> plan_;
  std::unique_ptr<ConfigurationRuntime> runtime_;
  std::unique_ptr<ShardedRuntime> sharded_;
  std::vector<RawTable> raw_tables_;
  std::unique_ptr<Hfta> accumulated_;
  std::vector<int> dense_ids_;  ///< Query id per dense HFTA slot.
  std::vector<TelemetrySnapshot> history_;
  RuntimeCounters retired_counters_;
  uint64_t empty_flushes_ = 0;
  bool unexpected_flush_ = false;
  uint64_t records_ = 0;
  double model_cost_sum_ = 0.0;
  uint64_t raw_probes_ = 0;
  uint64_t raw_collisions_ = 0;
  bool raw_agree_ = true;
  std::vector<uint64_t> shard_records_;
  uint64_t blocked_pushes_ = 0;
};

// ---------------------------------------------------------------------------
// One pass: a fresh engine over the whole stream.

struct Pass {
  double setup_ns = 0.0;
  double ingest_ns = 0.0;  ///< Record-carrying calls after planning.
  uint64_t ingest_records = 0;
  std::vector<double> close_ns;
  std::vector<double> churn_ns;
  std::vector<double> calibration_ns;
  double heap_peak_bytes = 0.0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t failed_reads = 0;
  bool final_ok = true;
  std::string digest;
  std::string error;  ///< First failure, for the log.
  double speed = 1.0;

  // Traced passes only.
  size_t span_begin = 0;  ///< This pass's spans in the tracer.
  size_t span_end = 0;
  double stretch_ns = 0.0;  ///< Ingest stretches (close calls excluded).
  uint64_t stretch_records = 0;
  std::vector<double> boundary_ns;  ///< Close call minus the shadow flush.
  std::vector<double> churn_overhead_ns;
  std::vector<double> read_ns;
  std::vector<double> telemetry_ns;
  double max_abs_drift = 0.0;
  RuntimeCounters engine_counters;
  bool counters_match = true;
  bool raw_tables_agree = true;
  int replans = 0;
  int adds = 0;
  int grafted = 0;
  double shed_fraction = 0.0;
  uint64_t groups_held = 0;  ///< Result rows served after Finish().
  double model_cost_per_record = 0.0;
  uint64_t raw_probes = 0;
  uint64_t raw_collisions = 0;
  std::vector<uint64_t> shard_records;
  uint64_t blocked_pushes = 0;
  uint64_t shadow_records = 0;
};

std::string DigestOf(const StreamAggEngine& engine) {
  pb::Digest d;
  const RuntimeCounters c = engine.counters();
  for (uint64_t v : {c.records, c.intra_probes, c.intra_transfers,
                     c.flush_probes, c.flush_transfers, c.epochs_flushed,
                     c.shed_probes}) {
    d.Add(v);
  }
  const TelemetrySnapshot t = engine.telemetry();
  for (const TableTelemetry& table : t.tables) {
    d.Add(table.relation);
    d.Add(table.probes);
    d.Add(table.collisions);
  }
  for (uint64_t g : t.hfta_groups) d.Add(g);
  d.Add(static_cast<uint64_t>(engine.reoptimizations()));
  for (const ReplanEvent& r : t.replans) {
    d.Add(r.epoch);
    d.Add(r.trigger_relation);
    d.Add(static_cast<uint64_t>(r.pinned_nodes));
    d.Add(static_cast<uint64_t>(r.replanned_nodes));
  }
  for (const QueryChurnEvent& e : engine.churn_events()) {
    d.Add(e.epoch);
    d.Add(e.add ? 1 : 0);
    d.Add(static_cast<uint64_t>(e.query_id));
    d.Add(e.relation);
    d.Add(e.grafted ? 1 : 0);
    d.Add(e.aliased ? 1 : 0);
    d.Add(static_cast<uint64_t>(e.replanned_nodes));
    d.Add(static_cast<uint64_t>(e.pinned_nodes));
  }
  return d.Hex();
}

Pass RunPass(const Workload& w, bool traced, pb::Tracer* tracer) {
  Pass p;
  if (traced) p.span_begin = tracer->spans().size();
  const size_t n = w.records.size();
  p.close_ns.reserve(kEpochs);
  p.churn_ns.reserve(w.churn.size());
  p.calibration_ns.reserve(kEpochs + 1);
  p.calibration_ns.push_back(pb::CalibrationKernel());

  const auto note = [&p](const std::string& what) {
    ++p.failed;
    if (p.error.empty()) p.error = what;
  };
  const double heap_before = pb::HeapInUseBytes();
  const auto sample_heap = [&] {
    p.heap_peak_bytes =
        std::max(p.heap_peak_bytes, pb::HeapInUseBytes() - heap_before);
  };

  std::unique_ptr<Shadow> shadow;
  int root = -1;
  const auto begin = [&](const char* name, uint64_t epoch) {
    return traced ? tracer->Begin(name, epoch, root) : -1;
  };
  const auto end = [&](int span) {
    if (traced) tracer->End(span);
  };
  const auto span_ns = [&](int span) {
    return tracer->spans()[static_cast<size_t>(span)].duration_ns();
  };

  root = begin("setup", 0);
  const uint64_t setup_start = pb::NowNs();
  auto made = StreamAggEngine::FromQueryTexts(w.schema, InitialTexts(),
                                              w.options);
  if (!made.ok()) {
    p.error = made.status().ToString();
    p.final_ok = false;
    return p;
  }
  std::unique_ptr<StreamAggEngine> engine = std::move(made).value();

  size_t i = 0;
  size_t next_churn = 0;
  const auto call_end = [&](size_t from) {
    size_t to = std::min(n, from + w.batch);
    if (next_churn < w.churn.size() && w.churn[next_churn].at > from) {
      to = std::min(to, w.churn[next_churn].at);
    }
    return to;
  };
  const auto call = [&](size_t from, size_t to) {
    ++p.attempted;
    const Status s =
        w.batch == 1
            ? engine->Process(w.records[from])
            : engine->ProcessBatch(
                  std::span<const Record>(w.records.data() + from, to - from));
    if (!s.ok()) note(s.ToString());
  };

  // Sampling and planning: calls until the engine reports a live plan.
  while (i < n && !engine->planned()) {
    const size_t to = call_end(i);
    call(i, to);
    i = to;
  }
  p.setup_ns = static_cast<double>(pb::NowNs() - setup_start);
  end(root);
  if (!engine->planned() || i >= kEpochRecords) {
    p.error = "engine did not plan within the first epoch";
    p.final_ok = false;
    return p;
  }
  if (traced) {
    shadow = std::make_unique<Shadow>(w, tracer);
    root = begin("shadow.setup", 0);
    const Status s = shadow->Setup(*engine, i, root);
    end(root);
    if (!s.ok()) note("shadow setup: " + s.ToString());
  }
  sample_heap();

  size_t stretch_from = i;
  uint64_t epoch = i / kEpochRecords;
  root = begin("epoch", epoch);
  int stretch = begin("engine.ingest", epoch);
  uint64_t stretch_start = pb::NowNs();
  const auto close_stretch = [&](size_t upto) {
    const uint64_t now = pb::NowNs();
    end(stretch);
    p.ingest_ns += static_cast<double>(now - stretch_start);
    p.ingest_records += upto - stretch_from;
    if (traced) {
      p.stretch_ns += span_ns(stretch);
      p.stretch_records += upto - stretch_from;
      shadow->Feed(std::span<const Record>(w.records.data() + stretch_from,
                                           upto - stretch_from),
                   epoch, root);
    }
    stretch_from = upto;
  };
  const auto open_stretch = [&] {
    stretch = begin("engine.ingest", epoch);
    stretch_start = pb::NowNs();
  };

  while (i < n) {
    if (next_churn < w.churn.size() && w.churn[next_churn].at == i) {
      const ChurnStep& step = w.churn[next_churn];
      close_stretch(i);
      const int span = begin(step.add ? "engine.AddQuery" : "engine.DropQuery",
                             epoch);
      const uint64_t t0 = pb::NowNs();
      ++p.attempted;
      if (step.add) {
        auto id = engine->AddQuery(QueryText(step.grouping));
        if (!id.ok()) {
          note("AddQuery: " + id.status().ToString());
        } else if (*id != step.query_id) {
          note("AddQuery returned an unexpected id");
        }
      } else {
        const Status s = engine->DropQuery(step.query_id);
        if (!s.ok()) note("DropQuery: " + s.ToString());
      }
      p.churn_ns.push_back(static_cast<double>(pb::NowNs() - t0));
      end(span);
      ++next_churn;
      if (traced) {
        const size_t shadow_spans = tracer->spans().size();
        const Status s = shadow->Churn(step, epoch, *engine->plan(), root);
        if (!s.ok()) note("shadow churn: " + s.ToString());
        double planning = 0.0;
        for (size_t k = shadow_spans; k < tracer->spans().size(); ++k) {
          const pb::Span& sp = tracer->spans()[k];
          if (sp.name == "optimizer.GraftQueries" ||
              sp.name == "optimizer.PruneQueries" ||
              sp.name == "optimizer.Optimize (churn fallback)") {
            planning += sp.duration_ns();
          }
        }
        p.churn_overhead_ns.push_back(span_ns(span) - planning);
      }
      sample_heap();
      open_stretch();
      continue;
    }
    size_t to = call_end(i);
    const size_t boundary = (epoch + 1) * kEpochRecords;
    if (boundary < n && to >= boundary) {
      // The call carrying the epoch's last record starts the close; the
      // call carrying the next epoch's first record ends it.
      close_stretch(i);
      const size_t region_from = i;
      const int span = begin("engine.close", epoch);
      const uint64_t t0 = pb::NowNs();
      const int replans_before = engine->reoptimizations();
      call(i, to);
      if (to == boundary) {
        i = to;
        to = call_end(i);
        call(i, to);
      }
      const uint64_t t1 = pb::NowNs();
      end(span);
      i = to;
      p.close_ns.push_back(static_cast<double>(t1 - t0));
      p.ingest_ns += static_cast<double>(t1 - t0);
      p.ingest_records += i - region_from;
      stretch_from = i;
      const uint64_t closed = epoch;
      if (traced) {
        shadow->Feed(std::span<const Record>(w.records.data() + region_from,
                                             boundary - region_from),
                     closed, root);
        const size_t shadow_spans = tracer->spans().size();
        const bool replanned = engine->reoptimizations() != replans_before;
        const Status s = shadow->Boundary(
            closed, replanned ? engine->plan() : nullptr, root);
        if (!s.ok()) note("shadow boundary: " + s.ToString());
        double flush = 0.0;
        for (size_t k = shadow_spans; k < tracer->spans().size(); ++k) {
          const pb::Span& sp = tracer->spans()[k];
          if (sp.name == "configuration_runtime.FlushEpoch") {
            flush += sp.duration_ns();
          }
        }
        p.boundary_ns.push_back(span_ns(span) - flush);
        shadow->Feed(std::span<const Record>(w.records.data() + boundary,
                                             i - boundary),
                     closed + 1, root);
      }
      // Read every answer of the closed epoch right away.
      for (size_t id = 0; id < w.reference.size(); ++id) {
        auto want = w.reference[id].find(closed);
        if (want == w.reference[id].end()) continue;
        const int rs = begin("engine.EpochResult", closed);
        const EpochAggregate& got =
            engine->EpochResult(static_cast<int>(id), closed);
        end(rs);
        if (traced) p.read_ns.push_back(span_ns(rs));
        ++p.attempted;
        if (!Matches(got, want->second)) {
          ++p.failed_reads;
          note("read of query " + std::to_string(id) + " epoch " +
               std::to_string(closed) + " differs from the reference");
        }
      }
      if (traced) {
        const int ts = begin("engine.telemetry", closed);
        const TelemetrySnapshot snapshot = engine->telemetry();
        end(ts);
        p.telemetry_ns.push_back(span_ns(ts));
        for (const TableTelemetry& t : snapshot.tables) {
          if (t.has_prediction() && t.probes > 0) {
            p.max_abs_drift = std::max(p.max_abs_drift, std::abs(t.drift()));
          }
        }
      }
      sample_heap();
      const int cs = begin("calibration", closed);
      p.calibration_ns.push_back(pb::CalibrationKernel());
      end(cs);
      end(root);
      epoch = closed + 1;
      root = begin("epoch", epoch);
      open_stretch();
      continue;
    }
    call(i, to);
    i = to;
  }
  close_stretch(n);
  const int fs = begin("engine.Finish", epoch);
  ++p.attempted;
  const Status finished = engine->Finish();
  end(fs);
  if (!finished.ok()) note("Finish: " + finished.ToString());
  if (traced) shadow->Finish(epoch, root);
  end(root);

  // Final answers: every (query, epoch) must now match exactly.
  for (size_t id = 0; id < w.reference.size(); ++id) {
    std::vector<uint64_t> want_epochs;
    for (const auto& [e, groups] : w.reference[id]) {
      want_epochs.push_back(e);
      ++p.attempted;
      if (!Matches(engine->EpochResult(static_cast<int>(id), e), groups)) {
        ++p.failed;
        p.final_ok = false;
        if (p.error.empty()) {
          p.error = "final result of query " + std::to_string(id) +
                    " epoch " + std::to_string(e) + " is wrong";
        }
      }
    }
    if (engine->Epochs(static_cast<int>(id)) != want_epochs) {
      p.final_ok = false;
      if (p.error.empty()) {
        p.error = "query " + std::to_string(id) + " serves the wrong epochs";
      }
    }
  }
  p.digest = DigestOf(*engine);
  p.speed = pb::SpeedFactor(p.calibration_ns);

  if (traced) {
    p.engine_counters = engine->counters();
    p.counters_match = !shadow->unexpected_flush() &&
                       shadow->counters() == p.engine_counters;
    if (!p.counters_match) {
      const RuntimeCounters mine = shadow->counters();
      const RuntimeCounters& e = p.engine_counters;
      std::fprintf(stderr,
                   "perfbench: counters engine/shadow: records %" PRIu64
                   "/%" PRIu64 " intra_probes %" PRIu64 "/%" PRIu64
                   " intra_transfers %" PRIu64 "/%" PRIu64
                   " flush_probes %" PRIu64 "/%" PRIu64
                   " flush_transfers %" PRIu64 "/%" PRIu64
                   " epochs_flushed %" PRIu64 "/%" PRIu64 "\n",
                   e.records, mine.records, e.intra_probes, mine.intra_probes,
                   e.intra_transfers, mine.intra_transfers, e.flush_probes,
                   mine.flush_probes, e.flush_transfers, mine.flush_transfers,
                   e.epochs_flushed, mine.epochs_flushed);
    }
    p.raw_tables_agree = shadow->raw_tables_agree();
    p.replans = engine->reoptimizations();
    for (const QueryChurnEvent& e : engine->churn_events()) {
      if (!e.add) continue;
      ++p.adds;
      p.grafted += e.grafted ? 1 : 0;
    }
    p.shed_fraction = engine->telemetry().shedding.shed_fraction;
    for (size_t id = 0; id < w.reference.size(); ++id) {
      for (const auto& entry : w.reference[id]) {
        p.groups_held += engine->EpochResult(static_cast<int>(id), entry.first)
                             .size();
      }
    }
    p.model_cost_per_record = shadow->model_cost_per_record();
    p.raw_probes = shadow->raw_probes();
    p.raw_collisions = shadow->raw_collisions();
    p.shard_records = shadow->shard_records();
    p.blocked_pushes = shadow->blocked_pushes();
    p.shadow_records = shadow->records();
    p.span_end = tracer->spans().size();
  }
  return p;
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string FormatJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[256];
  for (size_t k = 0; k < metrics.size(); ++k) {
    const double v = std::isfinite(metrics[k].value) ? metrics[k].value : 0.0;
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  k == 0 ? "" : ", ", metrics[k].name.c_str(), v,
                  metrics[k].unit.c_str());
    out += buf;
  }
  out += "}}";
  return out;
}

double Share(double part, double whole) {
  return whole == 0.0 ? 0.0 : part / whole;
}

std::vector<Metric> EndToEnd(const std::vector<Pass>& passes) {
  std::vector<double> throughput, raw_throughput, setup, raw_setup, heap,
      speeds;
  std::vector<double> close_ms, raw_close_ms;
  for (const Pass& p : passes) {
    const double raw =
        static_cast<double>(p.ingest_records) / (p.ingest_ns / 1e9);
    raw_throughput.push_back(raw);
    throughput.push_back(pb::ScaleRate(raw, p.speed));
    setup.push_back(pb::ScaleTime(p.setup_ns, p.speed) / 1e9);
    raw_setup.push_back(p.setup_ns / 1e9);
    heap.push_back(p.heap_peak_bytes / (1024.0 * 1024.0));
    speeds.push_back(p.speed);
    for (double v : p.close_ns) {
      close_ms.push_back(pb::ScaleTime(v, p.speed) / 1e6);
      raw_close_ms.push_back(v / 1e6);
    }
  }
  const pb::Tail tail = pb::WindowedTail(close_ms, kTailWindow);
  std::printf("calibration: speed factor median %.4f over %zu passes "
              "(reference %.0f ns)\n",
              pb::Median(speeds), passes.size(), pb::kReferenceCalibrationNs);
  std::printf("throughput_rps: %.6g scaled, %.6g raw (median over passes)\n",
              pb::Median(throughput), pb::Median(raw_throughput));
  std::printf("epoch_close_ms: p50 %.6g scaled (%.6g raw) over %zu samples; "
              "tail p%.1f %.6g scaled (%.6g raw), median over windows of %zu "
              "closes with %zu beyond each\n",
              pb::Percentile(close_ms, 50), pb::Percentile(raw_close_ms, 50),
              tail.samples, tail.percentile, tail.value,
              pb::WindowedTail(raw_close_ms, kTailWindow).value, kTailWindow,
              tail.beyond);
  std::printf("setup_s: %.6g scaled, %.6g raw (median over %zu setups)\n",
              pb::Median(setup), pb::Median(raw_setup), setup.size());
  return {
      {"throughput_rps", pb::Median(throughput), "rec/s"},
      {"epoch_close_ms_p50", pb::Percentile(close_ms, 50), "ms"},
      {"epoch_close_ms_tail", tail.value, "ms"},
      {"setup_s", pb::Median(setup), "s"},
      {"engine_heap_mb", pb::Median(heap), "MiB"},
  };
}

std::vector<Metric> PerLayer(const Workload& w, const std::vector<Pass>& plain,
                             const std::vector<Pass>& traced,
                             const pb::Tracer& tracer) {
  // Pooled over traced passes, each scaled by its own speed factor.
  std::vector<double> intra, probe, ingest, overhead, boundary, snap, json,
      assess, update, merge, flush, read, graft, prune, churn_over, churn,
      parse, stats, optimize, telemetry, sharded, speeds;
  double flush_probes = 0, flush_transfers = 0, epochs_flushed = 0;
  double records = 0, intra_probes = 0, intra_transfers = 0;
  double model = 0, raw_probes = 0, raw_collisions = 0, drift = 0;
  double replans = 0, adds = 0, grafted = 0, shed = 0, groups = 0;
  double transfers = 0, blocked = 0, shard_total = 0;
  std::vector<double> skew;
  const auto add_spans = [&](std::vector<double>* out, const char* name,
                             const Pass& p, double unit) {
    for (size_t k = p.span_begin; k < p.span_end; ++k) {
      const pb::Span& s = tracer.spans()[k];
      if (s.name == name) {
        out->push_back(pb::ScaleTime(s.duration_ns(), p.speed) / unit);
      }
    }
  };
  for (const Pass& p : traced) {
    const double sp = p.speed;
    speeds.push_back(sp);
    const auto total = [&](const char* name) {
      double sum = 0.0;
      for (size_t k = p.span_begin; k < p.span_end; ++k) {
        const pb::Span& s = tracer.spans()[k];
        if (s.name == name) sum += s.duration_ns();
      }
      return pb::ScaleTime(sum, sp);
    };
    const double shadow_records = static_cast<double>(p.shadow_records);
    const double intra_ns =
        total("configuration_runtime.ProcessBatch") / shadow_records;
    intra.push_back(intra_ns);
    probe.push_back(total("lfta_hash_table.Probe") / shadow_records);
    const double ingest_ns = pb::ScaleTime(p.stretch_ns, sp) /
                             static_cast<double>(p.stretch_records);
    ingest.push_back(ingest_ns);
    overhead.push_back(ingest_ns - intra_ns);
    if (w.shadow_sharded) {
      sharded.push_back((total("sharded_runtime.ProcessBatch") +
                         total("sharded_runtime.FlushEpoch")) /
                        shadow_records);
    }
    for (double v : p.boundary_ns) {
      boundary.push_back(pb::ScaleTime(v, sp) / 1e6);
    }
    for (double v : p.churn_overhead_ns) {
      churn_over.push_back(pb::ScaleTime(v, sp) / 1e6);
    }
    for (double v : p.read_ns) read.push_back(pb::ScaleTime(v, sp) / 1e3);
    for (double v : p.telemetry_ns) {
      telemetry.push_back(pb::ScaleTime(v, sp) / 1e3);
    }
    add_spans(&snap, "telemetry.BuildTelemetrySnapshot", p, 1e3);
    add_spans(&json, "telemetry.ToJsonLine", p, 1e3);
    add_spans(&assess, "adaptive.AssessTrend", p, 1e3);
    add_spans(&update, "overload_controller.UpdateShedPlan", p, 1e3);
    add_spans(&merge, "hfta.MergeFrom", p, 1e6);
    add_spans(&flush, "configuration_runtime.FlushEpoch", p, 1e6);
    add_spans(&graft, "optimizer.GraftQueries", p, 1e6);
    add_spans(&prune, "optimizer.PruneQueries", p, 1e6);
    add_spans(&parse, "query_language.ParseQuerySet", p, 1e3);
    add_spans(&stats, "optimizer.TraceStats", p, 1e6);
    add_spans(&optimize, "optimizer.Optimize", p, 1e6);

    const RuntimeCounters& c = p.engine_counters;
    flush_probes += static_cast<double>(c.flush_probes);
    flush_transfers += static_cast<double>(c.flush_transfers);
    epochs_flushed += static_cast<double>(c.epochs_flushed);
    records += static_cast<double>(c.records);
    intra_probes += static_cast<double>(c.intra_probes);
    intra_transfers += static_cast<double>(c.intra_transfers);
    transfers += static_cast<double>(c.total_transfers());
    model += p.model_cost_per_record;
    raw_probes += static_cast<double>(p.raw_probes);
    raw_collisions += static_cast<double>(p.raw_collisions);
    drift = std::max(drift, p.max_abs_drift);
    replans += p.replans;
    adds += p.adds;
    grafted += p.grafted;
    shed += p.shed_fraction;
    groups += static_cast<double>(p.groups_held);
    blocked += static_cast<double>(p.blocked_pushes);
    if (!p.shard_records.empty()) {
      double most = 0.0, sum = 0.0;
      for (uint64_t r : p.shard_records) {
        most = std::max(most, static_cast<double>(r));
        sum += static_cast<double>(r);
      }
      shard_total += sum;
      skew.push_back(
          Share(most, sum / static_cast<double>(p.shard_records.size())));
    }
  }
  const double np = static_cast<double>(traced.size());
  const double measured_cost =
      (kC1 * intra_probes + kC2 * intra_transfers) / records;
  const double model_cost = model / np;

  // Trace overhead: the engine's record-carrying time, traced vs. not.
  // Churn calls are timed in the untraced passes, which carry no shadow.
  std::vector<double> plain_ns, traced_ns;
  for (const Pass& p : plain) {
    plain_ns.push_back(pb::ScaleTime(p.ingest_ns, p.speed));
    for (double v : p.churn_ns) {
      churn.push_back(pb::ScaleTime(v, p.speed) / 1e6);
    }
  }
  for (const Pass& p : traced) {
    traced_ns.push_back(pb::ScaleTime(p.ingest_ns, p.speed));
  }
  const double plain_med = pb::Median(plain_ns);
  const double overhead_pct =
      plain_med > 0.0 ? 100.0 * (pb::Median(traced_ns) / plain_med - 1.0) : 0.0;

  const pb::Tail churn_tail = pb::TailPercentile(churn);
  const double shifts = static_cast<double>(w.shifts) * np;
  return {
      {"configuration_runtime.intra_ns_per_record", pb::Median(intra), "ns"},
      {"lfta_hash_table.probe_ns_per_record", pb::Median(probe), "ns"},
      {"engine.ingest_ns_per_record", pb::Median(ingest), "ns"},
      {"engine.overhead_ns_per_record", pb::Median(overhead), "ns"},
      {"engine.boundary_ms_p50", pb::Percentile(boundary, 50), "ms"},
      {"telemetry.snapshot_us_p50", pb::Percentile(snap, 50), "us"},
      {"telemetry.json_us_p50", pb::Percentile(json, 50), "us"},
      {"adaptive.assess_us_p50", pb::Percentile(assess, 50), "us"},
      {"overload_controller.update_us_p50", pb::Percentile(update, 50), "us"},
      {"hfta.merge_ms", pb::Percentile(merge, 50), "ms"},
      {"configuration_runtime.flush_ms_p50", pb::Percentile(flush, 50), "ms"},
      {"configuration_runtime.flush_probes_per_epoch",
       Share(flush_probes, epochs_flushed), "count"},
      {"configuration_runtime.flush_transfers_per_epoch",
       Share(flush_transfers, epochs_flushed), "count"},
      {"configuration_runtime.intra_probes_per_record",
       Share(intra_probes, records), "count"},
      {"configuration_runtime.intra_transfers_per_record",
       Share(intra_transfers, records), "count"},
      {"configuration_runtime.cost_per_record", measured_cost, "c1"},
      {"lfta_hash_table.raw_collision_rate", Share(raw_collisions, raw_probes),
       "ratio"},
      {"hfta.transfers_per_group", Share(transfers, groups), "count"},
      {"hfta.groups_held", groups / np, "count"},
      {"engine.result_read_us_p50", pb::Percentile(read, 50), "us"},
      {"optimizer.graft_ms_p50", pb::Percentile(graft, 50), "ms"},
      {"optimizer.prune_ms_p50", pb::Percentile(prune, 50), "ms"},
      {"optimizer.graft_share", Share(grafted, adds), "ratio"},
      {"engine.churn_overhead_ms_p50", pb::Percentile(churn_over, 50), "ms"},
      {"churn_call_ms_p50", pb::Percentile(churn, 50), "ms"},
      {"churn_call_ms_tail", churn_tail.value, "ms"},
      {"query_language.parse_us", pb::Median(parse), "us"},
      {"optimizer.statistics_ms", pb::Median(stats), "ms"},
      {"optimizer.optimize_ms", pb::Median(optimize), "ms"},
      {"optimizer.model_cost_per_record", model_cost, "c1"},
      {"optimizer.model_error",
       model_cost > 0.0 ? std::abs(measured_cost / model_cost - 1.0) : 0.0,
       "ratio"},
      {"lfta_hash_table.max_abs_drift", drift, "ratio"},
      {"adaptive.replans", replans / np, "count"},
      {"adaptive.replans_per_shift", Share(replans, shifts), "ratio"},
      {"overload_controller.shed_fraction", shed / np, "ratio"},
      {"sharded_runtime.ingest_ns_per_record", pb::Median(sharded), "ns"},
      {"sharded_runtime.shard_skew", pb::Median(skew), "ratio"},
      {"sharded_runtime.blocked_push_share", Share(blocked, shard_total),
       "ratio"},
      {"engine.telemetry_us_p50", pb::Percentile(telemetry, 50), "us"},
      {"trace.overhead_pct", overhead_pct, "%"},
      {"calibration.speed_factor", pb::Median(speeds), "ratio"},
  };
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace-out PATH]\n"
               "workloads: flows_plain flows_scan_adaptive uniform_churn\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string trace_out;
  for (int a = 1; a + 1 < argc; a += 2) {
    const std::string flag = argv[a];
    const char* value = argv[a + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::atof(value);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || workload.empty() || !(seconds > 0.0) ||
      (trace != 0 && trace != 1)) {
    return Usage();
  }

  const uint64_t gen_start = pb::NowNs();
  Result<Workload> made = MakeWorkload(workload, seed);
  if (!made.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", made.status().ToString().c_str());
    return Usage();
  }
  const Workload w = std::move(made).value();
  std::printf("workload %s seed %" PRIu64 ": %zu records, %zu churn events, "
              "inputs and reference in %.2f s\n",
              w.name.c_str(), seed, w.records.size(), w.churn.size(),
              static_cast<double>(pb::NowNs() - gen_start) / 1e9);

  // Passes until the time is spent; a traced run alternates plain and
  // traced passes so the trace overhead compares like with like.
  std::vector<Pass> plain, traced;
  pb::Tracer tracer;
  const uint64_t deadline =
      pb::NowNs() + static_cast<uint64_t>(seconds * 1e9);
  do {
    plain.push_back(RunPass(w, false, nullptr));
    if (trace == 1) traced.push_back(RunPass(w, true, &tracer));
  } while (pb::NowNs() < deadline);

  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t failed_reads = 0;
  std::set<std::string> digests;
  const auto tally = [&](const Pass& p) {
    attempted += p.attempted;
    failed += p.failed;
    failed_reads += p.failed_reads;
    correct = correct && p.final_ok;
    digests.insert(p.digest);
    if (!p.error.empty()) {
      std::fprintf(stderr, "perfbench: %s\n", p.error.c_str());
    }
  };
  for (const Pass& p : plain) tally(p);
  for (const Pass& p : traced) tally(p);
  if (digests.size() != 1) {
    std::fprintf(stderr, "perfbench: passes disagree on the digest\n");
    correct = false;
  }
  std::printf("digest %s\n", digests.begin()->c_str());
  std::printf("reads: %" PRIu64 " failed of %" PRIu64 " attempts in %zu "
              "passes\n",
              failed_reads, attempted, plain.size() + traced.size());

  std::vector<Metric> metrics;
  if (trace == 0) {
    metrics = EndToEnd(plain);
  } else {
    bool counters_match = true;
    bool raw_agree = true;
    for (const Pass& p : traced) {
      counters_match = counters_match && p.counters_match;
      raw_agree = raw_agree && p.raw_tables_agree;
    }
    std::printf("shadow counters %s the engine's; standalone raw tables %s "
                "the runtime's\n",
                counters_match ? "equal" : "DIFFER from",
                raw_agree ? "agree with" : "DIFFER from");
    correct = correct && counters_match && raw_agree;
    metrics = PerLayer(w, plain, traced, tracer);
    if (!trace_out.empty()) {
      // The first traced pass starts at span 0, so its parent links hold.
      const std::vector<pb::Span> spans(
          tracer.spans().begin(),
          tracer.spans().begin() + static_cast<long>(traced.front().span_end));
      std::FILE* out = std::fopen(trace_out.c_str(), "w");
      if (out == nullptr) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", trace_out.c_str());
        return 1;
      }
      const std::string json = pb::ToChromeTraceJson(
          spans, spans.empty() ? 0 : spans.front().start_ns);
      std::fwrite(json.data(), 1, json.size(), out);
      std::fclose(out);
      std::printf("spans: %zu written to %s\n", spans.size(),
                  trace_out.c_str());
    }
  }
  std::printf("%s\n", FormatJson(correct, attempted, failed, metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
