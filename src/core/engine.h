#ifndef STREAMAGG_CORE_ENGINE_H_
#define STREAMAGG_CORE_ENGINE_H_

#include <array>
#include <cmath>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/adaptive.h"
#include "core/optimizer.h"
#include "core/query_language.h"
#include "dsms/overload_controller.h"
#include "dsms/sharded_runtime.h"
#include "obs/telemetry.h"
#include "stream/trace_stats.h"

namespace streamagg {

/// The one-object entry point a monitoring deployment uses: give it a
/// schema, the queries (in the paper's GSQL-like syntax or as QueryDefs)
/// and an LFTA memory budget; feed it records; read per-epoch results.
///
/// Lifecycle:
///   1. *Sampling* — the first `sample_size` records are buffered and used
///      to measure group counts and flow lengths.
///   2. *Planning* — the optimizer chooses phantoms and allocates memory;
///      the buffered records are replayed into the runtime.
///   3. *Running* — records flow through the batched kernel (Process
///      gathers them in a 64-record buffer first). At every epoch boundary
///      the engine (optionally) checks the AdaptiveController and, on
///      drift, re-plans from statistics estimated out of the live tables —
///      never storing the stream.
///
/// An engine is externally synchronized: one thread at a time may call it,
/// the `const` reads included, because those drain Process's buffer into
/// the runtime before they answer.
class StreamAggEngine {
 public:
  struct Options {
    double memory_words = 40000.0;
    /// Records buffered for the initial statistics pass.
    size_t sample_size = 50000;
    /// Epoch length; overridden by the queries' time/N grouping when the
    /// engine is built from query texts.
    double epoch_seconds = 0.0;
    /// Enable drift-triggered re-planning at epoch boundaries: the engine
    /// keeps per-epoch telemetry snapshots (epoch snapshots are forced on)
    /// and asks AdaptiveController::AssessTrend for a sustained drift trend
    /// — `adaptive_options.trend_epochs` consecutive epochs of a table
    /// colliding beyond plan. On a trigger it re-estimates statistics from
    /// table occupancy and re-plans only the drifted feeding trees
    /// (Optimizer::ReplanSubtrees), swapping the runtime at the epoch
    /// boundary. Works for any num_shards: sharded engines run the check at
    /// a Quiesce barrier, where the queues are drained but the tables still
    /// hold the epoch's groups.
    bool adaptive = false;
    AdaptiveController::Options adaptive_options;
    OptimizerOptions optimizer;
    /// Treat the stream as clustered (estimate flow lengths) during the
    /// sampling pass.
    bool clustered = true;
    /// LFTA shards of the engine's runtime (dsms/sharded_runtime.h). With
    /// 1 (default) the runtime runs inline on the caller's thread, with no
    /// threads or queues. N > 1 partitions records on the caller's thread
    /// across N runtime replicas driven by worker threads, one queue each,
    /// and merges their HFTA outputs at barriers; the LFTA memory budget is
    /// split N ways so the total footprint (and the cost model's per-table
    /// sizing) stays honest. Composes with `adaptive`: drift checks and plan
    /// swaps happen at the quiescence barrier.
    int num_shards = 1;
    /// Per-shard record queue capacity, in envelopes; unused at one shard.
    size_t shard_queue_capacity = 4096;
    /// Fraction of the LFTA budget held back from the initial plan (and
    /// from adaptive re-plans and full-Optimize churn fallbacks) so that
    /// online AddQuery grafts have headroom to place new tables without
    /// forcing a from-scratch rebuild (docs/query_frontend.md §4). Grafts
    /// plan against the full budget. 0 (default) reserves nothing.
    double churn_reserve_fraction = 0.0;
    /// Pin shard workers to CPUs chosen by the affinity planner
    /// (util/cpu_topology.h), which fills the caller's NUMA node first.
    /// Best-effort; ignored at one shard, which starts no threads.
    bool pin_threads = false;
    /// Runtime telemetry tier (obs/metrics.h), within whatever the binary
    /// compiled in via STREAMAGG_TELEMETRY_LEVEL. kFull adds per-batch and
    /// per-flush wall-clock histograms; kCounters keeps only integer
    /// tallies; kOff disables everything beyond the load-bearing
    /// probe/collision counters.
    TelemetryLevel telemetry_level = TelemetryLevel::kFull;
    /// Record a TelemetrySnapshot each time the engine's epoch advances
    /// (telemetry_history()). Off by default: capture allocates, so it is
    /// opt-in for dashboards (examples/engine_monitor.cpp), never on the
    /// zero-allocation path — except under `adaptive`, which needs the
    /// history for its trend check and forces capture on. Capture runs at a
    /// Quiesce barrier, before the epoch flush: the tables still hold the
    /// completed epoch's groups. For sharded engines the barrier drains the
    /// queues and parks the workers, so the capture is race-free and merged
    /// across shards; at one shard it costs nothing.
    bool telemetry_epoch_snapshots = false;
    /// Bound on telemetry_history(): oldest snapshots are dropped first.
    /// Adaptive engines keep at least trend_epochs + 1 snapshots.
    size_t telemetry_history_cap = 64;
    /// Overload controller (dsms/overload_controller.h, docs/overload.md):
    /// cost-priced load shedding at the raw-relation probes, judged at
    /// epoch boundaries from the telemetry history (epoch snapshots are
    /// forced on, like `adaptive`). Requires telemetry_level above kOff —
    /// the controller reads the blocked-push counters that tier maintains.
    /// Composes with `adaptive` and any num_shards.
    OverloadController::Options overload;
  };

  /// Builds an engine from queries in the paper's query language. The
  /// epoch comes from their time/N grouping (if any).
  static Result<std::unique_ptr<StreamAggEngine>> FromQueryTexts(
      const Schema& schema, const std::vector<std::string>& queries,
      Options options);

  /// Builds an engine from explicit query definitions. Metric lists are
  /// sorted and deduplicated (at most kMaxMetrics): EpochResult's layout.
  static Result<std::unique_ptr<StreamAggEngine>> FromQueryDefs(
      const Schema& schema, std::vector<QueryDef> queries, Options options);

  /// Builds an engine around a pre-made (pinned) plan — e.g. one restored
  /// with core/plan_io.h — skipping the sampling phase entirely: the first
  /// record flows straight into the runtime. The plan's query definitions
  /// become the engine's queries. Adaptive re-planning, if enabled, needs
  /// statistics; they are taken from `catalog_counts` (AttributeSet mask ->
  /// group count; may be empty when adaptivity is off).
  static Result<std::unique_ptr<StreamAggEngine>> FromPinnedPlan(
      const Schema& schema, OptimizedPlan plan,
      std::map<uint32_t, uint64_t> catalog_counts, Options options);

  /// Feeds one record. The finished, timestamp, filter and sampling checks
  /// run at the call (a rejected record changes nothing). Once planned, the
  /// record is appended to a buffer that holds up to 63 records of the
  /// current epoch; the buffer goes to the batched path when it is full or
  /// when a record opens a new epoch, so the boundary step runs in the call
  /// that carries the new epoch's first record and the closed epoch is
  /// served when it returns (docs/runtime.md §4). Every other call drains
  /// the buffer first, so no caller sees it.
  Status Process(const Record& record);

  /// Feeds a batch of records. Timestamps must be finite, non-negative and
  /// never go back an epoch; a batch that breaks this is rejected whole
  /// with InvalidArgument before any state changes. Once planned, the batch
  /// is cut at epoch boundaries, the boundary step (snapshot capture,
  /// adaptive re-plan, overload controller) runs between the runs, and each
  /// run goes to the live runtime's batched path. Any split of the stream
  /// into Process and ProcessBatch calls gives the results, counters and
  /// events of per-record feeding. Other errors are internal planning
  /// failures (e.g. the budget cannot host the tables).
  Status ProcessBatch(std::span<const Record> records);

  /// Completes the current epoch (call at end of stream). A finished
  /// engine serves results and telemetry but rejects Process, ProcessBatch,
  /// AddQuery and DropQuery with FailedPrecondition; a second Finish() does
  /// nothing.
  Status Finish();

  /// Registers a new standing query online (docs/query_frontend.md §4).
  /// The text is parsed against the engine's schema (and live relation
  /// name, when known); its where clause must equal the engine's shared
  /// filter and its epoch (if it names one) must agree with the engine's.
  /// Returns a stable query id for EpochResult/Epochs/DropQuery — ids are
  /// never reused, so they stay valid across later churn. While the plan
  /// is live, the new query is grafted into the feeding forest
  /// (Optimizer::GraftQueries) and swapped in at one epoch-flush barrier,
  /// falling back to a full re-optimize when grafting fails; a query whose
  /// (group-by, metrics) exactly matches a live query becomes an alias —
  /// zero plan change — while a group-by match with different metrics is
  /// rejected.
  /// Results accumulate from the swap onward (the epoch in flight is
  /// flushed for the pre-existing queries first).
  Result<int> AddQuery(const std::string& text);

  /// Same, from an explicit definition (no text, no filter, engine epoch);
  /// metrics are sorted and deduplicated as in FromQueryDefs.
  Result<int> AddQuery(QueryDef def);

  /// Unregisters query `query_id` at one epoch-flush barrier. Its results
  /// up to the drop are archived and stay readable through
  /// EpochResult/Epochs under the same id; its groups stop accumulating
  /// immediately. Dropping the last live query is rejected — an engine
  /// cannot run queryless. Non-aliased drops prune the plan
  /// (Optimizer::PruneQueries), move the slot's results into the archive
  /// and swap the runtime; alias drops copy them and release the reference.
  /// If the pruned runtime fails to install, the engine ends as if
  /// finished (results up to the drop stay readable) and the error returns.
  Status DropQuery(int query_id);

  /// Query ids handed out so far (initial queries get 0..n-1). Ids of
  /// dropped queries stay valid for result reads.
  int num_query_ids() const { return static_cast<int>(handles_.size()); }
  /// True while `query_id` is registered (accumulating results).
  bool IsLive(int query_id) const {
    return query_id >= 0 && query_id < num_query_ids() &&
           handles_[static_cast<size_t>(query_id)] >= 0;
  }
  /// Every add/drop so far, oldest first (also exported via telemetry as
  /// the `query_churn` section).
  const std::vector<QueryChurnEvent>& churn_events() const {
    return churn_events_;
  }

  /// The engine's epoch length in seconds (0 while epochless). Reflects
  /// any epoch adopted from query texts, so churn drivers can translate
  /// epoch numbers into record timestamps.
  double epoch_seconds() const { return options_.epoch_seconds; }

  /// True once the sampling phase is over and a plan is live (false again
  /// after Finish()).
  bool planned() const { return runtime_ != nullptr; }
  /// The live configuration ("" while still sampling).
  std::string ConfigurationText() const;
  /// The live plan (nullptr while still sampling); serialize it with
  /// core/plan_io.h to pin the configuration across runs.
  const OptimizedPlan* plan() const { return plan_.get(); }

  /// Final aggregate of query `query_index` for `epoch` (empty if none).
  /// Results survive adaptive runtime swaps and query churn: the index is
  /// a stable query id (initial queries are 0..n-1), and dropped queries
  /// keep serving their archived results. Drains Process's buffer first.
  /// Which epochs are served follows the read contract of docs/runtime.md
  /// §4: one shard serves each closed epoch once the call that crossed its
  /// end returns; more shards serve an epoch complete or not at all. The
  /// reference stays valid until the next call that feeds records, changes
  /// queries or finishes.
  const EpochAggregate& EpochResult(int query_index, uint64_t epoch) const;
  /// Epochs with results for `query_index`, ascending, under the same read
  /// contract. Drains Process's buffer first.
  std::vector<uint64_t> Epochs(int query_index) const;

  /// Aggregated operation counters across all runtimes so far. Drains
  /// Process's buffer first, so every accepted record is counted.
  RuntimeCounters counters() const;

  /// Point-in-time telemetry: per-table occupancy/collision stats paired
  /// with the cost model's predicted collision rates for the live plan
  /// (the paper's model-vs-actual comparison), engine-total counters, and
  /// latency histograms. Drains Process's buffer first, so tables and
  /// counters agree. While sampling, returns an empty snapshot; after
  /// Finish(), returns the final pre-teardown snapshot. A sharded engine
  /// must be quiescent (after Finish()); a one-shard engine answers any
  /// time.
  TelemetrySnapshot telemetry() const;
  /// Per-epoch snapshots captured when Options::telemetry_epoch_snapshots
  /// is set; each is labeled with the epoch it completed. Their `replans`
  /// and `query_churn` lists are empty, so a capture does not grow with run
  /// length: telemetry() and churn_events() carry every event.
  const std::vector<TelemetrySnapshot>& telemetry_history() const {
    return telemetry_history_;
  }
  int reoptimizations() const { return reoptimizations_; }
  double last_optimize_millis() const { return last_optimize_millis_; }
  /// One ParsedQuery per query id (synthesized for def-built queries:
  /// grouping attributes, count(*), and the sorted metrics as outputs).
  const std::vector<ParsedQuery>& parsed_queries() const { return parsed_; }
  /// Live (planned-for) queries — the dense count the plan and HFTA hold.
  /// Aliased ids share one slot, so this can be below the live id count.
  int num_queries() const { return static_cast<int>(queries_.size()); }

 private:
  StreamAggEngine(const Schema& schema, std::vector<QueryDef> queries,
                  std::vector<ParsedQuery> parsed, Options options);

  /// Ends the sampling phase: measures statistics, plans, replays buffer.
  Status PlanFromSample();

  /// The boundary step, run once between the last run of an epoch and the
  /// first run of `next_epoch`, in this order:
  ///  1. capture — CaptureEpochSnapshot appends the completed epoch's
  ///     snapshot and quiesces the runtime without flushing it, so the
  ///     tables still hold the epoch's groups and are safe to read;
  ///  2. drift check and re-plan (adaptive only) — AdaptiveController::
  ///     AssessTrend judges the history; on a sustained trend the drifted
  ///     feeding trees get fresh group counts from live table occupancy,
  ///     the runtime retires (results and counters carried over), the
  ///     drifted subtrees are re-planned with the rest pinned, a ReplanEvent
  ///     is recorded and the new runtime installed (which re-prices the
  ///     shed plan);
  ///  3. shed plan (overload only) — the controller re-judges its shed
  ///     target against the history and installs a changed plan at the
  ///     capture's barrier, into whatever runtime step 2 left in place.
  Status EpochBoundary(uint64_t next_epoch);

  /// Builds (or rebuilds) the runtime for `plan_`, writing into results_.
  Status InstallRuntime();

  /// Rejects option combinations the engine cannot honor (memory_words not
  /// > 0, epoch_seconds not >= 0, num_shards < 1, queue
  /// capacity < 2, adaptive trend_epochs < 1 or widening_slack outside
  /// [0, 1], ...; NaN fails too). Messages name the offending field and the
  /// value it held.
  static Status ValidateOptions(const Options& options);

  /// Registers a parsed query: alias, structural append (sampling phase),
  /// or live graft/full-replan swap. The workhorse behind both AddQuery
  /// overloads; `parsed` must carry `def`.
  Result<int> AddParsedQuery(ParsedQuery parsed);

  /// The flushing barrier of adaptive swaps, churn swaps, alias drops and
  /// Finish: one FlushEpoch, which leaves every result in results_ and
  /// moves flushed_epoch_ to current_epoch_, then the runtime's counters
  /// fold into total_counters_. Returns its wall-clock (the swap events'
  /// merge_millis).
  double RetireRuntime();

  /// True when a sharded engine's results_ may still lack rows of `epoch`
  /// for a live query: the workers flush an epoch only when they see the
  /// next one, and only a flushing barrier drains what they flushed. Every
  /// epoch below flushed_epoch_ is complete; Finish completes them all.
  bool Unsealed(uint64_t epoch) const {
    return options_.num_shards > 1 && !finished_ && epoch >= flushed_epoch_;
  }

  /// FailedPrecondition once Finish() has run.
  Status CheckNotFinished() const;

  /// Records a churn event (telemetry section + flight-recorder instant).
  void RecordChurnEvent(QueryChurnEvent event);

  /// Erases dense slot `dense` from queries_/dense_refcount_, shifts every
  /// handle above it down and remaps results_ to the surviving slots
  /// (dropping the slot and every Add target).
  void RemoveDenseSlot(int dense);

  /// LFTA memory the optimizer may plan for: the budget split across
  /// shards, so instantiating the plan once per shard lands on the user's
  /// total budget. Initial plans, adaptive re-plans and full-replan churn
  /// fallbacks keep churn_reserve_fraction in reserve; AddQuery grafts
  /// (`with_reserve` false) may spend it.
  double PlanningBudget(bool with_reserve = true) const {
    const double budget =
        options_.memory_words / static_cast<double>(options_.num_shards);
    return with_reserve ? budget * (1.0 - options_.churn_reserve_fraction)
                        : budget;
  }

  /// Enforces the timestamp contract of ProcessBatch over the whole span
  /// and, when it holds, advances latest_timestamp_. The message names the
  /// offending record's index, its timestamp and the current epoch.
  Status CheckTimestamps(std::span<const Record> records);

  /// Buffers one filtered record for the sampling pass; plans when full.
  Status Sample(const Record& record);

  /// Feeds filtered records to the live plan: one runtime ProcessBatch per
  /// epoch run, with the boundary step between runs.
  Status Ingest(std::span<const Record> records);

  /// Hands Process's buffered records to the runtime. They all belong to
  /// current_epoch_, so no boundary step is due and the runtime's batched
  /// path takes them directly; the reads can therefore drain too.
  void DrainPending() const;

  /// Defined for every timestamp CheckTimestamps accepts.
  uint64_t EpochOf(double timestamp) const {
    return static_cast<uint64_t>(
        std::floor(timestamp / options_.epoch_seconds));
  }

  /// Attaches engine-level context to a runtime-built snapshot: total
  /// counters across swaps, the plan's predicted collision rates, the
  /// re-optimization count and the shedding view. Not the event lists,
  /// which only telemetry() copies in.
  void AnnotateSnapshot(TelemetrySnapshot* snapshot) const;

  /// Appends the current snapshot to telemetry_history() (when enabled),
  /// labeled with the epoch that just completed.
  void CaptureEpochSnapshot(uint64_t completed_epoch);

  Schema schema_;
  /// Dense live query definitions — what the plan and the HFTA hold.
  std::vector<QueryDef> queries_;
  std::vector<ParsedQuery> parsed_;  // One per query id (see handles_).
  /// Query-id table: handles_[id] is the id's dense slot in queries_, the
  /// plan and the HFTA (-1 once dropped).
  std::vector<int> handles_;
  /// Live ids per dense slot (aliases share a slot); parallel to queries_.
  std::vector<int> dense_refcount_;
  /// Archived per-epoch results of dropped query ids.
  std::map<int, EpochResults> retired_;
  /// The shared record filter (the queries' common where clause).
  std::vector<AttributePredicate> shared_filters_;
  /// From-clause relation name ("" when built from defs) — the parse
  /// context AddQuery validates new queries against.
  std::string relation_name_;
  Options options_;
  Optimizer optimizer_;
  std::unique_ptr<CollisionModel> collision_model_;

  // Sampling phase. The stats object holds a pointer into sample_, so both
  // stay alive as long as catalog_ may consult them.
  std::unique_ptr<Trace> sample_;
  std::unique_ptr<TraceStats> sample_stats_;

  // Live state.
  std::unique_ptr<RelationCatalog> catalog_;  // Snapshot behind plan_.
  std::unique_ptr<OptimizedPlan> plan_;
  /// The engine's one HFTA: every live query's results, by dense slot, for
  /// the engine's whole life. Every runtime writes into it (see
  /// InstallRuntime), so it is declared before runtime_ and outlives it.
  /// Slots are remapped (AddQuery, DropQuery) only between the retiring
  /// runtime's final flush and the next install: no runtime ever writes
  /// under a numbering other than its own plan's.
  Hfta results_;
  /// The live runtime (nullptr while sampling and after Finish).
  std::unique_ptr<ShardedRuntime> runtime_;
  /// Process's records not yet handed to runtime_: filtered, accepted and
  /// of current_epoch_ (see Process). Mutable because the reads drain it.
  mutable std::array<Record, 64> pending_;
  mutable size_t num_pending_ = 0;
  bool finished_ = false;
  uint64_t current_epoch_ = 0;
  /// current_epoch_ at the last flushing barrier (RetireRuntime).
  uint64_t flushed_epoch_ = 0;
  bool saw_record_ = false;
  /// Largest timestamp accepted so far (0 before the first record).
  double latest_timestamp_ = 0.0;
  RuntimeCounters total_counters_;
  /// Live runtime's counters as of its last retire (reset at every
  /// InstallRuntime); a repeated retire never double-counts.
  RuntimeCounters live_counter_baseline_;
  /// Cost-model collision-rate predictions for the live plan, indexed like
  /// the runtime's tables (Configuration::ToRuntimeSpecs preserves node
  /// order). Empty when no catalog is available.
  std::vector<double> planned_rates_;
  std::vector<TelemetrySnapshot> telemetry_history_;
  /// Every adaptive re-plan so far, oldest first; copied into telemetry()
  /// so the JSON export carries the re-plan lifecycle.
  std::vector<ReplanEvent> replan_events_;
  /// Every query add/drop so far, oldest first (snapshot `query_churn`).
  std::vector<QueryChurnEvent> churn_events_;
  /// What EpochResult returns for a dropped id with no archived epoch.
  EpochAggregate empty_aggregate_;
  /// Present iff Options::overload.enabled; survives runtime swaps (it is
  /// re-priced, not rebuilt, at InstallRuntime).
  std::unique_ptr<OverloadController> overload_controller_;
  /// Snapshot taken inside Finish() before the runtime is torn down.
  std::unique_ptr<TelemetrySnapshot> final_snapshot_;
  int reoptimizations_ = 0;
  double last_optimize_millis_ = 0.0;
};

}  // namespace streamagg

#endif  // STREAMAGG_CORE_ENGINE_H_
