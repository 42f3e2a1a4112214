#include "core/engine.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <set>

#include "core/feeding_graph.h"
#include "obs/trace.h"
#include "stream/trace_stats.h"
#include "util/timer.h"

namespace streamagg {

#if STREAMAGG_TELEMETRY_LEVEL >= 1
namespace {

/// Records a kShedPlanInstall instant for the controller's current plan,
/// called wherever a plan is pushed into a runtime (runtime install and
/// boundary updates alike) so the trace shows every install, not just the
/// changed-at-boundary ones.
void TraceShedPlanInstall(const OverloadController& controller,
                          uint64_t epoch) {
  const ShedPlan& plan = controller.shed_plan();
  uint32_t shedding_relations = 0;
  for (uint32_t n : plan.numerators) {
    if (n > 0) ++shedding_relations;
  }
  FlightRecorder::Instance().RecordInstant(
      TraceEventType::kShedPlanInstall, epoch,
      static_cast<uint32_t>(
          std::clamp(controller.target_fraction(), 0.0, 1.0) * 1000.0),
      shedding_relations);
}

}  // namespace
#endif

Status StreamAggEngine::ValidateOptions(const Options& options) {
  if (!(options.memory_words > 0.0)) {
    return Status::InvalidArgument("Options::memory_words must be > 0 (got " +
                                   std::to_string(options.memory_words) + ")");
  }
  if (!(options.epoch_seconds >= 0.0)) {
    return Status::InvalidArgument(
        "Options::epoch_seconds must be >= 0 (got " +
        std::to_string(options.epoch_seconds) + ")");
  }
  if (options.num_shards < 1) {
    return Status::InvalidArgument(
        "Options::num_shards must be >= 1 (got " +
        std::to_string(options.num_shards) + ")");
  }
  if (options.shard_queue_capacity < 2) {
    return Status::InvalidArgument(
        "Options::shard_queue_capacity must be >= 2 (got " +
        std::to_string(options.shard_queue_capacity) + ")");
  }
  if (options.adaptive_options.trend_epochs < 1) {
    return Status::InvalidArgument(
        "Options::adaptive_options.trend_epochs must be >= 1 (got " +
        std::to_string(options.adaptive_options.trend_epochs) + ")");
  }
  if (!(options.adaptive_options.widening_slack >= 0.0 &&
        options.adaptive_options.widening_slack <= 1.0)) {
    return Status::InvalidArgument(
        "Options::adaptive_options.widening_slack must be in [0, 1] (got " +
        std::to_string(options.adaptive_options.widening_slack) + ")");
  }
  STREAMAGG_RETURN_NOT_OK(OverloadController::ValidateOptions(options.overload));
  if (options.overload.enabled &&
      options.telemetry_level == TelemetryLevel::kOff) {
    // The controller's pressure signals are the kCounters-tier tallies;
    // kOff compiles it out of the loop entirely.
    return Status::InvalidArgument(
        "Options::overload.enabled requires Options::telemetry_level above "
        "kOff (got kOff)");
  }
  if (!(options.churn_reserve_fraction >= 0.0 &&
        options.churn_reserve_fraction <= 0.9)) {
    char value[32];
    std::snprintf(value, sizeof(value), "%g", options.churn_reserve_fraction);
    return Status::InvalidArgument(
        "Options::churn_reserve_fraction must be in [0, 0.9] (got " +
        std::string(value) + ")");
  }
  // adaptive composes with num_shards: the drift check runs
  // at the runtime's quiescence barrier and the swap at its epoch flush.
  // Query churn composes with all of the above — AddQuery/DropQuery swap
  // at the same flush — so no combination involving it is rejected here.
  return Status::OK();
}

Result<std::unique_ptr<StreamAggEngine>> StreamAggEngine::FromQueryTexts(
    const Schema& schema, const std::vector<std::string>& queries,
    Options options) {
  STREAMAGG_ASSIGN_OR_RETURN(std::vector<ParsedQuery> parsed,
                             ParseQuerySet(schema, queries));
  std::vector<QueryDef> defs;
  defs.reserve(parsed.size());
  for (const ParsedQuery& q : parsed) defs.push_back(q.def);
  if (parsed.front().epoch_seconds > 0.0) {
    options.epoch_seconds = parsed.front().epoch_seconds;
  }
  // Validated after the queries' time/N, which overrides the option.
  STREAMAGG_RETURN_NOT_OK(ValidateOptions(options));
  return std::unique_ptr<StreamAggEngine>(new StreamAggEngine(
      schema, std::move(defs), std::move(parsed), options));
}

Result<std::unique_ptr<StreamAggEngine>> StreamAggEngine::FromQueryDefs(
    const Schema& schema, std::vector<QueryDef> queries, Options options) {
  STREAMAGG_RETURN_NOT_OK(ValidateOptions(options));
  if (queries.empty()) return Status::InvalidArgument("no queries");
  for (QueryDef& q : queries) {
    if (q.group_by.empty() || !q.group_by.IsSubsetOf(schema.AllAttributes())) {
      return Status::InvalidArgument("query attributes invalid for schema");
    }
    STREAMAGG_ASSIGN_OR_RETURN(q.metrics, UnionMetrics(q.metrics, {}));
  }
  return std::unique_ptr<StreamAggEngine>(new StreamAggEngine(
      schema, std::move(queries), {}, options));
}

Result<std::unique_ptr<StreamAggEngine>> StreamAggEngine::FromPinnedPlan(
    const Schema& schema, OptimizedPlan plan,
    std::map<uint32_t, uint64_t> catalog_counts, Options options) {
  std::vector<QueryDef> queries = plan.config.QueryDefs();
  if (queries.empty()) return Status::InvalidArgument("plan has no queries");
  STREAMAGG_ASSIGN_OR_RETURN(
      std::unique_ptr<StreamAggEngine> engine,
      FromQueryDefs(schema, std::move(queries), options));
  // Statistics snapshot for model predictions, churn and the adaptive path.
  // A catalog cannot be derived from the plan itself, so adaptivity
  // requires counts; counts that are given must make a valid catalog.
  if (options.adaptive && catalog_counts.empty()) {
    return Status::InvalidArgument(
        "Options::adaptive requires catalog counts for pinned-plan "
        "engines (got adaptive=true with 0 catalog counts)");
  }
  if (!catalog_counts.empty()) {
    STREAMAGG_ASSIGN_OR_RETURN(
        RelationCatalog catalog,
        RelationCatalog::Synthetic(schema, std::move(catalog_counts)));
    engine->catalog_ = std::make_unique<RelationCatalog>(std::move(catalog));
  }
  engine->plan_ = std::make_unique<OptimizedPlan>(std::move(plan));
  STREAMAGG_RETURN_NOT_OK(engine->InstallRuntime());
  engine->sample_.reset();  // No sampling phase.
  return engine;
}

namespace {

/// A ParsedQuery stand-in for def-built queries: the grouping attributes,
/// count(*) and the declared metrics as outputs, no filter, no relation.
/// Keeps parsed_queries() one-per-id regardless of how queries arrived.
ParsedQuery SynthesizeParsed(const Schema& schema, const QueryDef& def) {
  ParsedQuery q;
  q.def = def;
  for (int attr : def.group_by.Indices()) {
    QueryOutput out;
    out.kind = QueryOutput::Kind::kGroupAttr;
    out.attr = attr;
    out.name = schema.name(attr);
    q.outputs.push_back(std::move(out));
  }
  QueryOutput count;
  count.kind = QueryOutput::Kind::kCount;
  count.name = "cnt";
  q.outputs.push_back(std::move(count));
  for (const MetricSpec& m : def.metrics) {
    QueryOutput out;
    out.kind = m.op == AggregateOp::kSum   ? QueryOutput::Kind::kSum
               : m.op == AggregateOp::kMin ? QueryOutput::Kind::kMin
                                           : QueryOutput::Kind::kMax;
    out.attr = m.attr;
    out.name = std::string(m.op == AggregateOp::kSum   ? "sum_"
                           : m.op == AggregateOp::kMin ? "min_"
                                                       : "max_") +
               schema.name(m.attr);
    q.outputs.push_back(std::move(out));
  }
  return q;
}

/// True when `record` passes every shared where-clause predicate.
bool PassesFilters(const std::vector<AttributePredicate>& filters,
                   const Record& record) {
  for (const AttributePredicate& f : filters) {
    if (!f.Matches(record)) return false;
  }
  return true;
}

/// One metric list per query, in query order: an HFTA's slot layout.
std::vector<std::vector<MetricSpec>> MetricsOf(
    const std::vector<QueryDef>& queries) {
  std::vector<std::vector<MetricSpec>> metrics;
  metrics.reserve(queries.size());
  for (const QueryDef& q : queries) metrics.push_back(q.metrics);
  return metrics;
}

}  // namespace

StreamAggEngine::StreamAggEngine(const Schema& schema,
                                 std::vector<QueryDef> queries,
                                 std::vector<ParsedQuery> parsed,
                                 Options options)
    : schema_(schema),
      queries_(std::move(queries)),
      parsed_(std::move(parsed)),
      options_(options),
      optimizer_(options.optimizer),
      collision_model_(
          MakeCollisionModel(options.optimizer.collision_model)),
      sample_(std::make_unique<Trace>(schema)),
      results_(MetricsOf(queries_)) {
  sample_->Reserve(options_.sample_size);
  // Initial queries take ids 0..n-1, each owning its dense slot.
  handles_.resize(queries_.size());
  dense_refcount_.assign(queries_.size(), 1);
  for (size_t i = 0; i < handles_.size(); ++i) {
    handles_[i] = static_cast<int>(i);
  }
  if (!parsed_.empty()) {
    shared_filters_ = parsed_.front().filters;
    relation_name_ = parsed_.front().relation;
  } else {
    parsed_.reserve(queries_.size());
    for (const QueryDef& q : queries_) {
      parsed_.push_back(SynthesizeParsed(schema_, q));
    }
  }
}

Status StreamAggEngine::PlanFromSample() {
  sample_stats_ = std::make_unique<TraceStats>(sample_.get());
  catalog_ = std::make_unique<RelationCatalog>(
      RelationCatalog::FromTrace(sample_stats_.get(), options_.clustered));
  STREAMAGG_ASSIGN_OR_RETURN(
      OptimizedPlan plan,
      optimizer_.Optimize(*catalog_, queries_, PlanningBudget()));
  last_optimize_millis_ = plan.optimize_millis;
  plan_ = std::make_unique<OptimizedPlan>(std::move(plan));
  STREAMAGG_RETURN_NOT_OK(InstallRuntime());
  // Replay the buffered sample — its records were never processed — as one
  // batch.
  runtime_->ProcessBatch(sample_->records());
  return Status::OK();
}

Status StreamAggEngine::InstallRuntime() {
  STREAMAGG_ASSIGN_OR_RETURN(std::vector<RuntimeRelationSpec> specs,
                             plan_->ToRuntimeSpecs());
  // Model predictions for the incoming runtime's tables: the cost model's
  // collision rate per configuration node, under the same statistics the
  // plan was optimized for. ToRuntimeSpecs preserves node order, so
  // planned_rates_[i] lines up with the runtime's table(i).
  planned_rates_.clear();
  if (catalog_ != nullptr) {
    CostModel cost_model(catalog_.get(), collision_model_.get(),
                         options_.optimizer.cost);
    planned_rates_ = cost_model.CollisionRates(plan_->config, plan_->buckets);
  }
  // The incoming runtime's counters start at zero; reset the accumulation
  // baseline with them (see RetireRuntime).
  live_counter_baseline_ = RuntimeCounters{};
  // The overload controller outlives runtime swaps; each new plan only
  // re-prices its raw relations (and re-derives the shed plan, so the shed
  // floor stays in force on the fresh runtime).
  if (options_.overload.enabled) {
    if (overload_controller_ == nullptr) {
      overload_controller_ =
          std::make_unique<OverloadController>(options_.overload);
    }
    if (catalog_ != nullptr) {
      CostModel cost_model(catalog_.get(), collision_model_.get(),
                           options_.optimizer.cost);
      overload_controller_->PriceRelations(&cost_model, *plan_, schema_);
    } else {
      // Pinned plan without statistics: uniform pricing keeps the shed
      // floor (and the watermark trend logic) in force.
      overload_controller_->PriceRelations(nullptr, *plan_, schema_);
    }
  }
  ShardedRuntime::Options runtime_options;
  runtime_options.num_shards = options_.num_shards;
  runtime_options.queue_capacity = options_.shard_queue_capacity;
  runtime_options.pin_threads = options_.pin_threads;
  STREAMAGG_ASSIGN_OR_RETURN(
      std::unique_ptr<ShardedRuntime> runtime,
      ShardedRuntime::Make(schema_, std::move(specs), options_.epoch_seconds,
                           runtime_options, &results_));
  runtime_ = std::move(runtime);
  runtime_->set_telemetry_level(options_.telemetry_level);
  if (overload_controller_ != nullptr) {
    STREAMAGG_RETURN_NOT_OK(
        runtime_->SetShedPlan(overload_controller_->shed_plan()));
    STREAMAGG_TRACE(
        TraceShedPlanInstall(*overload_controller_, current_epoch_));
  }
  return Status::OK();
}

double StreamAggEngine::RetireRuntime() {
  Timer timer;
  runtime_->FlushEpoch();
  flushed_epoch_ = current_epoch_;
  // Fold in only the counter growth since the baseline: a retire repeated
  // on the same runtime (e.g. after a failed re-plan mid-swap) can never
  // double-count. InstallRuntime zeroes the baseline alongside the fresh
  // runtime's counters.
  const RuntimeCounters& live = runtime_->counters();
  total_counters_.Add(live.Since(live_counter_baseline_));
  live_counter_baseline_ = live;
  return timer.ElapsedMillis();
}

Status StreamAggEngine::EpochBoundary(
    [[maybe_unused]] uint64_t next_epoch) {
  STREAMAGG_TRACE(FlightRecorder::Instance().RecordInstant(
      TraceEventType::kEpochBoundary, current_epoch_,
      static_cast<uint32_t>(next_epoch)));
  // Capture. The history sees the completed epoch's tables as the stream
  // left them: the capture quiesces the runtime without flushing it (it
  // flushes when the next run starts), so the tables are safe to read and
  // still hold the epoch's groups.
  CaptureEpochSnapshot(current_epoch_);
  const std::span<const TelemetrySnapshot> history(telemetry_history_);

  // Drift check and re-plan. The trend window ends at the epoch whose
  // boundary this is; a single noisy epoch cannot trigger, only
  // trend_epochs consecutive drifted ones can.
  if (options_.adaptive) {
    CostModel cost_model(catalog_.get(), collision_model_.get(),
                         options_.optimizer.cost);
    AdaptiveController controller(&cost_model, plan_.get(),
                                  options_.adaptive_options);
    const AdaptiveController::TrendVerdict verdict =
        controller.AssessTrend(history);
    STREAMAGG_TRACE(FlightRecorder::Instance().RecordInstant(
        TraceEventType::kTrendAssess, current_epoch_,
        verdict.should_replan ? 1u : 0u,
        static_cast<uint32_t>(std::max(verdict.max_table, 0)),
        static_cast<uint32_t>(std::clamp(verdict.max_drift, 0.0, 4.0) *
                              1000.0)));
    if (verdict.should_replan) {
      STREAMAGG_TRACE(const uint64_t replan_start =
                          FlightRecorder::Instance().enabled()
                              ? TelemetryNowNanos()
                              : 0);

      const Configuration& config = plan_->config;
      // The drifted tables condemn their whole feeding trees (verdict
      // indices line up with configuration nodes — ToRuntimeSpecs preserves
      // order).
      std::vector<int> tree_root(static_cast<size_t>(config.num_nodes()));
      for (int i = 0; i < config.num_nodes(); ++i) {
        int r = i;
        while (config.node(r).parent >= 0) r = config.node(r).parent;
        tree_root[static_cast<size_t>(i)] = r;
      }
      std::set<int> drifted_roots;
      for (int t : verdict.drifted_tables) {
        if (t >= 0 && t < config.num_nodes()) {
          drifted_roots.insert(tree_root[static_cast<size_t>(t)]);
        }
      }
      std::set<uint32_t> drifted_masks;
      int pinned_nodes = 0;
      for (int i = 0; i < config.num_nodes(); ++i) {
        if (drifted_roots.count(tree_root[static_cast<size_t>(i)]) > 0) {
          drifted_masks.insert(config.node(i).attrs.mask());
        } else {
          ++pinned_nodes;
        }
      }

      // Fresh statistics from live (pre-flush) table occupancy — the
      // capture above quiesced the runtime without flushing it. Only the
      // drifted trees' relations take fresh estimates: the pinned trees must
      // re-cost exactly as before, and the rest of the catalog keeps its
      // prior statistics.
      const std::map<uint32_t, uint64_t> estimates =
          controller.EstimateGroupCounts(*runtime_);
      std::vector<AttributeSet> group_bys;
      for (const QueryDef& q : queries_) group_bys.push_back(q.group_by);
      STREAMAGG_ASSIGN_OR_RETURN(FeedingGraph graph,
                                 FeedingGraph::Build(schema_, group_bys));
      std::set<AttributeSet> interesting(group_bys.begin(), group_bys.end());
      for (AttributeSet p : graph.phantoms()) interesting.insert(p);
      for (int i = 0; i < schema_.num_attributes(); ++i) {
        interesting.insert(AttributeSet::Single(i));
      }
      std::map<uint32_t, uint64_t> counts;
      for (AttributeSet set : interesting) {
        auto it = estimates.find(set.mask());
        const bool fresh =
            drifted_masks.count(set.mask()) > 0 && it != estimates.end();
        counts[set.mask()] = fresh ? it->second : catalog_->GroupCount(set);
      }
      const double flow_length =
          catalog_->FlowLength(schema_.AllAttributes());
      STREAMAGG_ASSIGN_OR_RETURN(
          RelationCatalog next_catalog,
          RelationCatalog::Synthetic(schema_, std::move(counts), flow_length));

      // Retire the current runtime at the boundary, then swap in the
      // re-planned configuration. The retire flush is timed into the
      // event's merge_millis — the swap-latency companion to
      // optimize_millis (docs/observability.md).
      const double merge_millis = RetireRuntime();

      catalog_ = std::make_unique<RelationCatalog>(std::move(next_catalog));
      std::vector<int> drifted_nodes(verdict.drifted_tables.begin(),
                                     verdict.drifted_tables.end());
      STREAMAGG_ASSIGN_OR_RETURN(
          OptimizedPlan plan,
          optimizer_.ReplanSubtrees(*catalog_, *plan_, drifted_nodes,
                                    PlanningBudget()));
      last_optimize_millis_ = plan.optimize_millis;
      ++reoptimizations_;

      ReplanEvent event;
      event.epoch = current_epoch_;
      if (verdict.max_table >= 0 && verdict.max_table < config.num_nodes()) {
        event.trigger_relation =
            schema_.FormatAttributeSet(config.node(verdict.max_table).attrs);
      }
      event.drift = verdict.max_drift;
      event.pinned_nodes = pinned_nodes;
      event.replanned_nodes =
          std::max(0, plan.config.num_nodes() - pinned_nodes);
      event.optimize_millis = plan.optimize_millis;
      event.merge_millis = merge_millis;
      replan_events_.push_back(std::move(event));

      plan_ = std::make_unique<OptimizedPlan>(std::move(plan));
      STREAMAGG_RETURN_NOT_OK(InstallRuntime());
      STREAMAGG_TRACE(if (replan_start != 0) {
        // Covers the whole swap: retire flush, re-estimate,
        // re-optimize, and runtime rebuild — the replan latency a Chrome
        // trace shows as one block at the epoch boundary.
        FlightRecorder::Instance().RecordSpan(
            TraceEventType::kReplanSwap, replan_start, current_epoch_,
            static_cast<uint32_t>(replan_events_.back().replanned_nodes),
            static_cast<uint32_t>(replan_events_.back().pinned_nodes));
      });
    }
  }

  // Shed plan, against whatever runtime the re-plan left in place. The
  // runtime is still quiescent behind the capture's barrier: SetShedPlan is
  // a driver-only operation specified for exactly this point.
  if (overload_controller_ == nullptr) return Status::OK();
  if (overload_controller_->UpdateShedPlan(history)) {
    STREAMAGG_RETURN_NOT_OK(
        runtime_->SetShedPlan(overload_controller_->shed_plan()));
    STREAMAGG_TRACE(
        TraceShedPlanInstall(*overload_controller_, current_epoch_));
  }
  return Status::OK();
}

Status StreamAggEngine::CheckTimestamps(std::span<const Record> records) {
  // One compare per record against the running maximum. NaN fails every
  // compare and a negative time fails against the initial 0, so only those
  // and genuine decreases reach the epoch arithmetic. +inf (and a time
  // whose epoch would overflow the uint64 cast) passes the compare; it is
  // caught once, from the maximum, after the loop.
  const double limit = options_.epoch_seconds > 0.0
                           ? options_.epoch_seconds * 0x1p63
                           : std::numeric_limits<double>::infinity();
  double latest = latest_timestamp_;
  size_t bad = records.size();
  for (size_t i = 0; i < records.size(); ++i) {
    const double ts = records[i].timestamp;
    if (ts >= latest) {
      latest = ts;
      continue;
    }
    if (!(latest < limit)) break;
    if (!(ts >= 0.0) || (options_.epoch_seconds > 0.0 &&
                         EpochOf(ts) < EpochOf(latest))) {
      bad = i;
      break;
    }
  }
  if (!(latest < limit)) {
    bad = static_cast<size_t>(
        std::find_if(records.begin(), records.end(),
                     [&](const Record& r) { return !(r.timestamp < limit); }) -
        records.begin());
  }
  if (bad == records.size()) {
    latest_timestamp_ = latest;
    return Status::OK();
  }
  double before = latest_timestamp_;
  for (size_t i = 0; i < bad; ++i) {
    before = std::max(before, records[i].timestamp);
  }
  char message[192];
  std::snprintf(message, sizeof(message),
                "record %zu has timestamp %g; timestamps must be finite, "
                "non-negative, in an epoch below 2^63 and must not go back "
                "an epoch (current epoch %llu)",
                bad, records[bad].timestamp,
                static_cast<unsigned long long>(
                    options_.epoch_seconds > 0.0 ? EpochOf(before) : 0));
  return Status::InvalidArgument(message);
}

Status StreamAggEngine::Sample(const Record& record) {
  sample_->Append(record);
  // Track epochs during sampling too, so boundaries line up later.
  if (options_.epoch_seconds > 0.0) current_epoch_ = EpochOf(record.timestamp);
  saw_record_ = true;
  if (sample_->size() < options_.sample_size) return Status::OK();
  return PlanFromSample();
}

Status StreamAggEngine::Ingest(std::span<const Record> records) {
  size_t i = 0;
  while (i < records.size()) {
    size_t end = records.size();
    if (options_.epoch_seconds > 0.0) {
      const uint64_t epoch = EpochOf(records[i].timestamp);
      if (saw_record_ && epoch != current_epoch_) {
        STREAMAGG_RETURN_NOT_OK(EpochBoundary(epoch));
      }
      current_epoch_ = epoch;
      // Epochs never decrease (CheckTimestamps), so the run is a prefix.
      if (EpochOf(records.back().timestamp) != epoch) {
        end = static_cast<size_t>(
            std::partition_point(records.begin() + static_cast<long>(i),
                                 records.end(),
                                 [&](const Record& r) {
                                   return EpochOf(r.timestamp) == epoch;
                                 }) -
            records.begin());
      }
    }
    saw_record_ = true;
    runtime_->ProcessBatch(records.subspan(i, end - i));
    i = end;
  }
  return Status::OK();
}

Status StreamAggEngine::CheckNotFinished() const {
  if (!finished_) return Status::OK();
  return Status::FailedPrecondition(
      "the engine has finished; it takes no more records or queries");
}

void StreamAggEngine::DrainPending() const {
  if (num_pending_ == 0) return;
  const size_t n = num_pending_;
  num_pending_ = 0;
  runtime_->ProcessBatch(std::span<const Record>(pending_.data(), n));
}

Status StreamAggEngine::Process(const Record& record) {
  STREAMAGG_RETURN_NOT_OK(CheckNotFinished());
  const std::span<const Record> one(&record, 1);
  STREAMAGG_RETURN_NOT_OK(CheckTimestamps(one));
  // The shared where clause filters records before any table sees them
  // (the F of the LFTA's Filter-Transform-Aggregate); filtered records are
  // also excluded from statistics.
  if (!PassesFilters(shared_filters_, record)) return Status::OK();
  if (!planned()) return Sample(record);
  // The engine's first record and a record of a new epoch go to Ingest with
  // the buffer. Ingest sets current_epoch_ and, for a new epoch, runs the
  // boundary step between the buffered records and this one. So the buffer
  // only ever holds records of current_epoch_, and DrainPending needs no
  // boundary step.
  const bool opens_epoch =
      options_.epoch_seconds > 0.0 &&
      (!saw_record_ || EpochOf(record.timestamp) != current_epoch_);
  pending_[num_pending_++] = record;
  if (num_pending_ < pending_.size() && !opens_epoch) return Status::OK();
  const std::span<const Record> run(pending_.data(), num_pending_);
  // Empty the buffer before Ingest: the boundary step's capture reads
  // counters(), which drains.
  num_pending_ = 0;
  return Ingest(run);
}

Status StreamAggEngine::ProcessBatch(std::span<const Record> records) {
  STREAMAGG_RETURN_NOT_OK(CheckNotFinished());
  STREAMAGG_RETURN_NOT_OK(CheckTimestamps(records));
  DrainPending();
  // Sampling buffers record by record; planning may land mid-batch.
  size_t i = 0;
  for (; i < records.size() && !planned(); ++i) {
    if (PassesFilters(shared_filters_, records[i])) {
      STREAMAGG_RETURN_NOT_OK(Sample(records[i]));
    }
  }
  const std::span<const Record> rest = records.subspan(i);
  if (shared_filters_.empty()) return Ingest(rest);
  // Shared where clause: filter chunk-wise through a stack buffer so the
  // batched path below stays allocation-free.
  std::array<Record, 256> buffer;
  size_t n = 0;
  for (const Record& record : rest) {
    if (!PassesFilters(shared_filters_, record)) continue;
    buffer[n++] = record;
    if (n == buffer.size()) {
      STREAMAGG_RETURN_NOT_OK(
          Ingest(std::span<const Record>(buffer.data(), n)));
      n = 0;
    }
  }
  return Ingest(std::span<const Record>(buffer.data(), n));
}

Status StreamAggEngine::Finish() {
  if (finished_) return Status::OK();
  DrainPending();
  if (!planned() && sample_ != nullptr && sample_->size() > 0) {
    // Short stream: plan from whatever was collected.
    STREAMAGG_RETURN_NOT_OK(PlanFromSample());
  }
  if (planned()) {
    RetireRuntime();
    // Preserve the final state before teardown so telemetry() keeps
    // answering after the stream ends (streamagg_cli --stats). Post-flush
    // the runtime is quiescent, so snapshotting it is safe.
    final_snapshot_ = std::make_unique<TelemetrySnapshot>(telemetry());
    runtime_.reset();
  }
  finished_ = true;
  return Status::OK();
}

Result<int> StreamAggEngine::AddQuery(const std::string& text) {
  DrainPending();
  STREAMAGG_RETURN_NOT_OK(CheckNotFinished());
  QueryParseContext context;
  if (!relation_name_.empty()) context.relations.push_back(relation_name_);
  STREAMAGG_ASSIGN_OR_RETURN(ParsedQuery parsed,
                             ParseQuery(schema_, text, context));
  if (parsed.epoch_seconds > 0.0) {
    if (options_.epoch_seconds > 0.0 &&
        parsed.epoch_seconds != options_.epoch_seconds) {
      char buffer[96];
      std::snprintf(buffer, sizeof(buffer),
                    "query epoch %gs disagrees with the engine's %gs",
                    parsed.epoch_seconds, options_.epoch_seconds);
      return Status::InvalidArgument(buffer);
    }
    if (options_.epoch_seconds == 0.0) {
      if (saw_record_ || planned()) {
        return Status::FailedPrecondition(
            "cannot introduce an epoch after records have flowed; the "
            "engine runs epochless");
      }
      options_.epoch_seconds = parsed.epoch_seconds;
    }
  }
  if (!(parsed.filters == shared_filters_)) {
    return Status::InvalidArgument(
        "query where clause must equal the engine's shared filter (phantom "
        "sharing requires one record filter upstream of every query)");
  }
  if (relation_name_.empty()) relation_name_ = parsed.relation;
  return AddParsedQuery(std::move(parsed));
}

Result<int> StreamAggEngine::AddQuery(QueryDef def) {
  DrainPending();
  STREAMAGG_RETURN_NOT_OK(CheckNotFinished());
  if (def.group_by.empty() ||
      !def.group_by.IsSubsetOf(schema_.AllAttributes())) {
    return Status::InvalidArgument("query attributes invalid for schema");
  }
  STREAMAGG_ASSIGN_OR_RETURN(def.metrics, UnionMetrics(def.metrics, {}));
  return AddParsedQuery(SynthesizeParsed(schema_, def));
}

Result<int> StreamAggEngine::AddParsedQuery(ParsedQuery parsed) {
  const QueryDef def = parsed.def;  // parsed is moved below; copy first.
  // A configuration cannot hold the same attribute set twice, so a
  // group-by match with a live query either aliases it (identical metrics
  // — share the slot, zero plan change) or is rejected. Both lists are
  // sorted and deduplicated (parser and AddQuery alike).
  for (size_t d = 0; d < queries_.size(); ++d) {
    if (!(queries_[d].group_by == def.group_by)) continue;
    if (queries_[d].metrics != def.metrics) {
      return Status::InvalidArgument(
          "query groups by " + schema_.FormatAttributeSet(def.group_by) +
          " like a live query but asks for different metrics; drop the "
          "existing query first");
    }
    const int id = num_query_ids();
    handles_.push_back(static_cast<int>(d));
    ++dense_refcount_[d];
    parsed_.push_back(std::move(parsed));
    QueryChurnEvent event;
    event.epoch = current_epoch_;
    event.query_id = id;
    event.relation = schema_.FormatAttributeSet(def.group_by);
    event.aliased = true;
    RecordChurnEvent(std::move(event));
    return id;
  }
  // Extends results_ with a fresh slot: identity for the existing dense
  // slots, -1 (empty) for the newcomer.
  const auto extend_hfta = [&]() {
    std::vector<int> source;
    for (size_t i = 0; i + 1 < queries_.size(); ++i) {
      source.push_back(static_cast<int>(i));
    }
    source.push_back(-1);
    results_.Remap(MetricsOf(queries_), source);
  };
  if (!planned()) {
    // Sampling phase: structural append — the newcomer joins the initial
    // optimization (and sees the whole buffered sample on replay).
    const int id = num_query_ids();
    const int dense = static_cast<int>(queries_.size());
    queries_.push_back(def);
    dense_refcount_.push_back(1);
    handles_.push_back(dense);
    parsed_.push_back(std::move(parsed));
    extend_hfta();
    QueryChurnEvent event;
    event.epoch = current_epoch_;
    event.query_id = id;
    event.relation = schema_.FormatAttributeSet(def.group_by);
    RecordChurnEvent(std::move(event));
    return id;
  }
  if (catalog_ == nullptr) {
    return Status::FailedPrecondition(
        "online AddQuery needs statistics; give the pinned-plan engine "
        "catalog counts or let the engine sample first");
  }
  // Plan before touching anything: grafting and the full-Optimize fallback
  // are pure, so a planning failure leaves the engine exactly as it was.
  // Grafts may spend the churn reserve (PlanningBudget(false)); the
  // fallback re-plans everything, so it re-establishes the reserve.
  int replanned_nodes = 0;
  int pinned_nodes = 0;
  bool grafted = true;
  Result<OptimizedPlan> next =
      optimizer_.GraftQueries(*catalog_, *plan_, {def}, PlanningBudget(false),
                              &replanned_nodes, &pinned_nodes);
  if (!next.ok()) {
    grafted = false;
    std::vector<QueryDef> all = queries_;
    all.push_back(def);
    next = optimizer_.Optimize(*catalog_, all, PlanningBudget());
    STREAMAGG_RETURN_NOT_OK(next.status());
    replanned_nodes = next->config.num_nodes();
    pinned_nodes = 0;
  }
  // Retire: the epoch in flight is flushed into results_ for the
  // pre-existing queries, then the re-planned runtime takes over. The
  // newcomer accumulates from here on.
  const double merge_millis = RetireRuntime();
  const int id = num_query_ids();
  const int dense = static_cast<int>(queries_.size());
  queries_.push_back(def);
  dense_refcount_.push_back(1);
  handles_.push_back(dense);
  parsed_.push_back(std::move(parsed));
  extend_hfta();
  last_optimize_millis_ = next->optimize_millis;
  plan_ = std::make_unique<OptimizedPlan>(std::move(*next));
  STREAMAGG_RETURN_NOT_OK(InstallRuntime());
  QueryChurnEvent event;
  event.epoch = current_epoch_;
  event.query_id = id;
  event.relation = schema_.FormatAttributeSet(def.group_by);
  event.grafted = grafted;
  event.replanned_nodes = replanned_nodes;
  event.pinned_nodes = pinned_nodes;
  event.optimize_millis = plan_->optimize_millis;
  event.merge_millis = merge_millis;
  RecordChurnEvent(std::move(event));
  return id;
}

Status StreamAggEngine::DropQuery(int query_id) {
  DrainPending();
  STREAMAGG_RETURN_NOT_OK(CheckNotFinished());
  if (query_id < 0 || query_id >= num_query_ids()) {
    return Status::InvalidArgument("unknown query id " +
                                   std::to_string(query_id));
  }
  int& handle = handles_[static_cast<size_t>(query_id)];
  if (handle < 0) {
    return Status::FailedPrecondition(
        "query id " + std::to_string(query_id) + " was already dropped");
  }
  const auto live = std::count_if(handles_.begin(), handles_.end(),
                                  [](int dense) { return dense >= 0; });
  if (live <= 1) {
    return Status::FailedPrecondition(
        "cannot drop the last live query; an engine cannot run queryless");
  }
  const int dense = handle;
  QueryChurnEvent event;
  event.epoch = current_epoch_;
  event.add = false;
  event.query_id = query_id;
  event.relation = schema_.FormatAttributeSet(queries_[dense].group_by);

  if (dense_refcount_[static_cast<size_t>(dense)] > 1) {
    // Alias release: the dense slot lives on for the other ids, so the
    // plan is untouched. Flush the epoch in flight into results_, then copy
    // the slot into the archive.
    Timer timer;
    if (planned()) RetireRuntime();
    EpochResults& archive = retired_[query_id];
    for (uint64_t e : results_.Epochs(dense)) {
      archive[e] = results_.Result(dense, e);
    }
    event.merge_millis = timer.ElapsedMillis();
    event.aliased = true;
    --dense_refcount_[static_cast<size_t>(dense)];
    handle = -1;
    RecordChurnEvent(std::move(event));
    return Status::OK();
  }

  if (!planned()) {
    // Sampling phase: structural removal before any plan exists.
    retired_[query_id] = results_.TakeQuery(dense);
    RemoveDenseSlot(dense);
    handle = -1;
    RecordChurnEvent(std::move(event));
    return Status::OK();
  }
  if (catalog_ == nullptr) {
    return Status::FailedPrecondition(
        "online DropQuery needs statistics; give the pinned-plan engine "
        "catalog counts or let the engine sample first");
  }
  // Prune first (pure surgery; full Optimize of the survivors only if the
  // surgery errors), then run the barrier and swap.
  int pinned_nodes = 0;
  Result<OptimizedPlan> next =
      optimizer_.PruneQueries(*catalog_, *plan_, {dense}, &pinned_nodes);
  if (!next.ok()) {
    std::vector<QueryDef> rest;
    for (size_t i = 0; i < queries_.size(); ++i) {
      if (static_cast<int>(i) != dense) rest.push_back(queries_[i]);
    }
    next = optimizer_.Optimize(*catalog_, rest, PlanningBudget());
    STREAMAGG_RETURN_NOT_OK(next.status());
    pinned_nodes = 0;
  }
  event.merge_millis = RetireRuntime();
  // results_ now holds everything up to the drop; move the slot into the
  // archive before RemoveDenseSlot remaps it away.
  retired_[query_id] = results_.TakeQuery(dense);
  RemoveDenseSlot(dense);
  handle = -1;
  event.pinned_nodes = pinned_nodes;
  event.optimize_millis = next->optimize_millis;
  last_optimize_millis_ = next->optimize_millis;
  plan_ = std::make_unique<OptimizedPlan>(std::move(*next));
  const Status installed = InstallRuntime();
  if (!installed.ok()) {
    // The old runtime's numbering no longer fits results_: end the engine
    // rather than let it write past the last slot.
    runtime_.reset();
    finished_ = true;
    return installed;
  }
  RecordChurnEvent(std::move(event));
  return Status::OK();
}

void StreamAggEngine::RemoveDenseSlot(int dense) {
  queries_.erase(queries_.begin() + dense);
  dense_refcount_.erase(dense_refcount_.begin() + dense);
  for (int& h : handles_) {
    if (h > dense) --h;
  }
  std::vector<int> source;
  for (size_t i = 0; i < queries_.size(); ++i) {
    source.push_back(static_cast<int>(i) < dense ? static_cast<int>(i)
                                                 : static_cast<int>(i) + 1);
  }
  // Also resets every Add target: a stale one would keep accumulating a
  // dropped query's groups.
  results_.Remap(MetricsOf(queries_), source);
}

void StreamAggEngine::RecordChurnEvent(QueryChurnEvent event) {
  STREAMAGG_TRACE(FlightRecorder::Instance().RecordInstant(
      TraceEventType::kQueryChurn, event.epoch, event.add ? 1u : 0u,
      static_cast<uint32_t>(event.query_id), event.grafted ? 1u : 0u));
  churn_events_.push_back(std::move(event));
}

std::string StreamAggEngine::ConfigurationText() const {
  return plan_ != nullptr ? plan_->config.ToString() : std::string();
}

const EpochAggregate& StreamAggEngine::EpochResult(int query_index,
                                              uint64_t epoch) const {
  DrainPending();
  // query_index is a stable id; translate to the dense slot the plan and
  // HFTA hold. Dropped ids serve their archived results.
  if (query_index < 0 || query_index >= num_query_ids()) {
    return empty_aggregate_;
  }
  const int dense = handles_[static_cast<size_t>(query_index)];
  if (dense < 0) {
    auto rid = retired_.find(query_index);
    if (rid == retired_.end()) return empty_aggregate_;
    auto it = rid->second.find(epoch);
    return it == rid->second.end() ? empty_aggregate_ : it->second;
  }
  return Unsealed(epoch) ? empty_aggregate_ : results_.Result(dense, epoch);
}

std::vector<uint64_t> StreamAggEngine::Epochs(int query_index) const {
  DrainPending();
  if (query_index < 0 || query_index >= num_query_ids()) return {};
  const int dense = handles_[static_cast<size_t>(query_index)];
  if (dense >= 0) {
    std::vector<uint64_t> epochs = results_.Epochs(dense);
    epochs.erase(std::find_if(epochs.begin(), epochs.end(),
                              [&](uint64_t e) { return Unsealed(e); }),
                 epochs.end());
    return epochs;
  }
  std::vector<uint64_t> epochs;
  auto rid = retired_.find(query_index);
  if (rid != retired_.end()) {
    for (const auto& [e, agg] : rid->second) epochs.push_back(e);
  }
  return epochs;
}

RuntimeCounters StreamAggEngine::counters() const {
  DrainPending();
  // total_counters_ may already include part of the live runtime's history
  // (a retire whose swap then failed); add only the remainder. A sharded
  // runtime's counters are its last barrier's snapshot.
  RuntimeCounters total = total_counters_;
  if (runtime_ != nullptr) {
    total.Add(runtime_->counters().Since(live_counter_baseline_));
  }
  return total;
}

TelemetrySnapshot StreamAggEngine::telemetry() const {
  DrainPending();
  if (runtime_ == nullptr) {
    // Finished, or still sampling with nothing to report yet.
    return final_snapshot_ != nullptr ? *final_snapshot_ : TelemetrySnapshot{};
  }
  TelemetrySnapshot snapshot = BuildTelemetrySnapshot(*runtime_, schema_);
  AnnotateSnapshot(&snapshot);
  snapshot.replans = replan_events_;
  snapshot.query_churn = churn_events_;
  return snapshot;
}

void StreamAggEngine::AnnotateSnapshot(TelemetrySnapshot* snapshot) const {
  snapshot->counters = counters();
  snapshot->reoptimizations = reoptimizations_;
  snapshot->epoch = current_epoch_;
  for (size_t i = 0;
       i < snapshot->tables.size() && i < planned_rates_.size(); ++i) {
    snapshot->tables[i].predicted_collision_rate = planned_rates_[i];
  }
  if (overload_controller_ != nullptr) {
    SheddingTelemetry& shed = snapshot->shedding;
    shed.enabled = true;
    shed.target_fraction = overload_controller_->target_fraction();
    // counters() is swap-accumulated, so both tallies are lifetime-exact:
    // shed_fraction here is the realized drop rate, not the plan's target.
    shed.offered_records = snapshot->counters.records;
    shed.shed_probes = snapshot->counters.shed_probes;
    const std::vector<OverloadController::RelationPrice>& prices =
        overload_controller_->prices();
    const ShedPlan& shed_plan = overload_controller_->shed_plan();
    const size_t live_raw =
        static_cast<size_t>(runtime_->shard(0).num_raw_relations());
    shed.relations.clear();
    shed.relations.reserve(prices.size());
    for (size_t i = 0; i < prices.size(); ++i) {
      SheddingRelationTelemetry relation;
      relation.relation = prices[i].relation;
      relation.price = prices[i].cycles_per_record;
      relation.shed_fraction =
          i < shed_plan.numerators.size()
              ? static_cast<double>(shed_plan.numerators[i]) /
                    static_cast<double>(ShedPlan::kDenominator)
              : 0.0;
      // Per-relation drop counts are the live runtime's (they reset at a
      // swap; the lifetime total above never does).
      if (i < live_raw) {
        relation.shed_records = runtime_->shed_count(static_cast<int>(i));
      }
      shed.relations.push_back(std::move(relation));
    }
    shed.shed_fraction =
        shed.offered_records == 0 || prices.empty()
            ? 0.0
            : static_cast<double>(shed.shed_probes) /
                  (static_cast<double>(shed.offered_records) *
                   static_cast<double>(prices.size()));
    shed.accuracy_loss = overload_controller_->accuracy_loss();
    shed.cycles_saved_per_record =
        overload_controller_->cycles_saved_per_record();
  }
}

void StreamAggEngine::CaptureEpochSnapshot(uint64_t completed_epoch) {
  // Adaptive and overload engines always capture: their epoch-boundary
  // judgments read the history.
  if (!options_.telemetry_epoch_snapshots && !options_.adaptive &&
      !options_.overload.enabled) {
    return;
  }
  // A sharded snapshot mid-stream would race the workers, so quiesce first:
  // the barrier drains every shard's queue and leaves the workers parked —
  // reading their tables (and the merged HFTA/counters) is then race-free;
  // inline it is a no-op. Quiesce, not FlushEpoch: the snapshot shows the
  // completed epoch's tables as the stream left them (occupancy is the
  // adaptive path's group-count signal). The epoch flush itself happens as
  // usual: each replica flushes when it sees the next epoch's timestamps.
  // The barrier also drains that epoch's rows transferred so far, which is
  // why a sharded engine serves it only after a flushing barrier
  // (Unsealed).
  runtime_->Quiesce();
  // Without the event lists, which telemetry() carries, a capture costs the
  // same at every epoch of an unbounded run.
  TelemetrySnapshot snapshot = BuildTelemetrySnapshot(*runtime_, schema_);
  AnnotateSnapshot(&snapshot);
  snapshot.epoch = completed_epoch;
  telemetry_history_.push_back(std::move(snapshot));
  size_t limit = options_.telemetry_history_cap;
  if (options_.adaptive) {
    // The trend window needs trend_epochs observations plus the preceding
    // snapshot for the oldest delta.
    const size_t need =
        static_cast<size_t>(options_.adaptive_options.trend_epochs) + 1;
    limit = std::max(limit, need);
  }
  if (options_.overload.enabled) {
    // Same shape for the overload controller's pressure window.
    const size_t need =
        static_cast<size_t>(options_.overload.trend_epochs) + 1;
    limit = std::max(limit, need);
  }
  while (telemetry_history_.size() > limit) {
    telemetry_history_.erase(telemetry_history_.begin());
  }
}

}  // namespace streamagg
