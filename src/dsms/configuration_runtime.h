#ifndef STREAMAGG_DSMS_CONFIGURATION_RUNTIME_H_
#define STREAMAGG_DSMS_CONFIGURATION_RUNTIME_H_

#include <array>
#include <atomic>
#include <memory>
#include <span>
#include <vector>

#include "dsms/hfta.h"
#include "dsms/lfta_hash_table.h"
#include "obs/metrics.h"
#include "stream/schema.h"
#include "stream/trace.h"
#include "util/status.h"

namespace streamagg {

/// One relation (query or phantom) instantiated in the LFTA, as consumed by
/// the runtime. Specs must be listed parents-before-children; `parent` is an
/// index into the spec vector or -1 for raw relations (fed directly by the
/// stream, paper Section 3.1).
struct RuntimeRelationSpec {
  AttributeSet attrs;
  uint64_t num_buckets = 0;
  /// True for user queries: evicted entries are transferred to the HFTA.
  bool is_query = false;
  /// Position of this query in the user's query list (used to address HFTA
  /// results); -1 for phantoms.
  int query_index = -1;
  int parent = -1;
  /// Metrics this relation maintains beyond count(*). Must be a superset of
  /// every child's metrics (a parent's evictions feed its children).
  std::vector<MetricSpec> metrics;
  /// For queries: the metrics the user asked for (a sublist of `metrics`,
  /// which may be wider when the query also feeds other relations). Evicted
  /// states are narrowed to this list before the HFTA.
  std::vector<MetricSpec> query_metrics;
};

/// Deterministic probe-shedding plan for the raw-relation probe loop
/// (docs/overload.md). Per raw relation (in the runtime's raw-relation
/// order), `numerators[r]` out of every kDenominator offered records are
/// dropped before the probe via an error-diffusion accumulator — exact
/// integer shed counts, no RNG, and the zero-numerator path is untouched
/// (bit-identical to no plan at all).
struct ShedPlan {
  static constexpr uint32_t kDenominator = 1024;
  /// Parallel to the runtime's raw relations; empty sheds nothing.
  std::vector<uint32_t> numerators;

  bool active() const {
    for (uint32_t n : numerators) {
      if (n > 0) return true;
    }
    return false;
  }
  bool operator==(const ShedPlan&) const = default;
};

/// Operation counters of a runtime execution. The paper's "actual cost"
/// experiments (Section 6.3.2) weight these with the architecture constants:
/// cost = (probes) * c1 + (transfers) * c2.
struct RuntimeCounters {
  uint64_t records = 0;          ///< Stream records processed.
  uint64_t intra_probes = 0;     ///< Hash-table probes during the epoch (c1).
  uint64_t intra_transfers = 0;  ///< LFTA->HFTA evictions during the epoch (c2).
  uint64_t flush_probes = 0;     ///< Probes during end-of-epoch flushes (c1).
  uint64_t flush_transfers = 0;  ///< Transfers during end-of-epoch flushes (c2).
  uint64_t epochs_flushed = 0;
  /// Raw-relation probes skipped by the shed plan (docs/overload.md). For
  /// every raw relation r: table(r).probes() + its shed count == records.
  uint64_t shed_probes = 0;

  uint64_t total_probes() const { return intra_probes + flush_probes; }
  uint64_t total_transfers() const { return intra_transfers + flush_transfers; }

  /// Accumulates another runtime's counters into this one. Used when
  /// aggregating across adaptive runtime swaps (core/engine.h) and across
  /// shard replicas (dsms/sharded_runtime.h).
  void Add(const RuntimeCounters& other) {
    records += other.records;
    intra_probes += other.intra_probes;
    intra_transfers += other.intra_transfers;
    flush_probes += other.flush_probes;
    flush_transfers += other.flush_transfers;
    epochs_flushed += other.epochs_flushed;
    shed_probes += other.shed_probes;
  }

  /// Per-field difference against an earlier snapshot of the same
  /// (monotonically growing) counter set: the delta a runtime accumulated
  /// since `baseline` was captured. The idempotence backbone of
  /// StreamAggEngine::AccumulateCounters.
  RuntimeCounters Since(const RuntimeCounters& baseline) const {
    RuntimeCounters d;
    d.records = records - baseline.records;
    d.intra_probes = intra_probes - baseline.intra_probes;
    d.intra_transfers = intra_transfers - baseline.intra_transfers;
    d.flush_probes = flush_probes - baseline.flush_probes;
    d.flush_transfers = flush_transfers - baseline.flush_transfers;
    d.epochs_flushed = epochs_flushed - baseline.epochs_flushed;
    d.shed_probes = shed_probes - baseline.shed_probes;
    return d;
  }

  bool operator==(const RuntimeCounters&) const = default;

  /// Weighted intra-epoch (maintenance) cost, paper Equation 4/7 measured.
  double IntraCost(double c1, double c2) const {
    return static_cast<double>(intra_probes) * c1 +
           static_cast<double>(intra_transfers) * c2;
  }
  /// Weighted end-of-epoch (update) cost, paper Equation 8 measured.
  double FlushCost(double c1, double c2) const {
    return static_cast<double>(flush_probes) * c1 +
           static_cast<double>(flush_transfers) * c2;
  }
  double TotalCost(double c1, double c2) const {
    return IntraCost(c1, c2) + FlushCost(c1, c2);
  }
};

/// Telemetry tallies of one relation beyond what its LftaHashTable already
/// tracks: eviction reasons and HFTA hand-offs, attributed to the relation
/// the entry was evicted *from* (docs/observability.md).
struct RelationTelemetry {
  /// Entries this relation propagated downstream mid-epoch (collision
  /// evictions, paper Section 2.3).
  uint64_t intra_evictions = 0;
  /// Entries propagated during epoch flushes (both the flush drain itself
  /// and collision evictions caused by cascading flushed parents).
  uint64_t flush_evictions = 0;
  /// Evicted entries handed to the HFTA (query relations only).
  uint64_t hfta_transfers = 0;
  /// Occupied buckets at the moment each epoch flush reached this relation
  /// (kFull only) — the distribution behind the paper's E[f] flush term.
  LogHistogram flush_occupancy;

  void Merge(const RelationTelemetry& other) {
    intra_evictions += other.intra_evictions;
    flush_evictions += other.flush_evictions;
    hfta_transfers += other.hfta_transfers;
    flush_occupancy.Merge(other.flush_occupancy);
  }
};

/// Telemetry of one ConfigurationRuntime: per-relation tallies plus the
/// batch/flush latency histograms (kFull only; one steady_clock read pair
/// per FlushEpoch call and per sampled ProcessBatch call, never per record).
struct RuntimeTelemetry {
  // The batch histograms sample 1 ProcessBatch call in
  // ConfigurationRuntime::kBatchSampleInterval, starting with the first.
  LogHistogram batch_records;  ///< Records per sampled ProcessBatch call.
  LogHistogram batch_ns;       ///< Wall nanoseconds per sampled call.
  LogHistogram flush_ns;       ///< Wall nanoseconds per FlushEpoch call.
  LogHistogram epoch_gap_ns;   ///< Wall nanoseconds between epoch flushes.
  std::vector<RelationTelemetry> relations;

  void Merge(const RuntimeTelemetry& other) {
    batch_records.Merge(other.batch_records);
    batch_ns.Merge(other.batch_ns);
    flush_ns.Merge(other.flush_ns);
    epoch_gap_ns.Merge(other.epoch_gap_ns);
    if (relations.size() < other.relations.size()) {
      relations.resize(other.relations.size());
    }
    for (size_t i = 0; i < other.relations.size(); ++i) {
      relations[i].Merge(other.relations[i]);
    }
  }
};

/// Executes a configuration of LFTA hash tables over a stream: records
/// probe the raw relations; collisions cascade evicted entries down the
/// feeding tree; query evictions transfer to the HFTA; epoch boundaries
/// flush every table top-down (paper Sections 2.2-2.5, 3.2).
class ConfigurationRuntime {
 public:
  /// Validates the specs (topological parent order, child attrs strictly
  /// contained in parent attrs, queries indexed 0..n-1 exactly once) and
  /// builds the tables. `epoch_seconds` <= 0 means a single unbounded epoch.
  /// Evictions go to `results`, which must hold one slot per query laid
  /// out by its spec's query_metrics and outlive the runtime; without it
  /// the runtime owns its HFTA.
  static Result<std::unique_ptr<ConfigurationRuntime>> Make(
      const Schema& schema, std::vector<RuntimeRelationSpec> specs,
      double epoch_seconds, Hfta* results = nullptr, uint64_t seed = 0x1f7a);

  /// At kFull, the batch_records/batch_ns histograms sample the first
  /// ProcessBatch call and every kBatchSampleInterval-th call after it.
  static constexpr uint64_t kBatchSampleInterval = 64;

  /// Feeds one record (timestamp drives epoch switching; records must arrive
  /// in non-decreasing timestamp order). A batch of one: semantics are those
  /// of ProcessBatch, bit-identically.
  void ProcessRecord(const Record& record) {
    ProcessBatch(std::span<const Record>(&record, 1));
  }

  /// Feeds a batch of records (non-decreasing timestamps, continuing the
  /// stream so far). The steady-state path is allocation-free: per-relation
  /// projection plans precomputed at construction, fast-range bucket
  /// mapping, and software prefetch of each chunk's bucket slots ahead of
  /// the probe loop. Results and counters are bit-identical to feeding the
  /// same records one ProcessRecord at a time, for any batch split — epoch
  /// switching happens inside the batch at timestamp boundaries.
  void ProcessBatch(std::span<const Record> records);

  /// Feeds a whole trace and flushes the final epoch.
  void ProcessTrace(const Trace& trace);

  /// Flushes all tables for the current epoch (also called automatically
  /// when a record with a later epoch arrives and at end of ProcessTrace).
  void FlushEpoch();

  const RuntimeCounters& counters() const { return counters_; }
  /// The HFTA evictions go to: the `results` given to Make, or its own.
  const Hfta& hfta() const { return *hfta_; }
  Hfta* mutable_hfta() { return hfta_; }
  int num_relations() const { return static_cast<int>(specs_.size()); }
  const RuntimeRelationSpec& spec(int i) const { return specs_[i]; }
  const LftaHashTable& table(int i) const { return *tables_[i]; }
  /// The epoch the runtime is currently accumulating into.
  uint64_t current_epoch() const { return current_epoch_; }

  /// Runtime telemetry tier within what the binary compiled in (see
  /// obs/metrics.h). The setter is an atomic store, safe to call from the
  /// driver thread while a sharded worker owns this runtime.
  void set_telemetry_level(TelemetryLevel level) {
    telemetry_level_.store(level, std::memory_order_relaxed);
  }
  TelemetryLevel telemetry_level() const {
    return telemetry_level_.load(std::memory_order_relaxed);
  }
  /// Accumulated telemetry; read it when the runtime is quiescent (same
  /// contract as counters()).
  const RuntimeTelemetry& telemetry() const { return telemetry_; }

  /// Total LFTA memory used by all tables, in 4-byte words.
  uint64_t TotalMemoryWords() const;

  /// Raw relations in probe order (the order ShedPlan numerators follow —
  /// it matches the configuration's node order restricted to roots, since
  /// Configuration::ToRuntimeSpecs preserves order).
  int num_raw_relations() const {
    return static_cast<int>(raw_relations_.size());
  }
  int raw_relation(int i) const {
    return raw_relations_[static_cast<size_t>(i)];
  }

  /// Installs a probe-shedding plan (docs/overload.md). Caller must hold
  /// the quiescence contract: the driver thread for serial runtimes, the
  /// barrier hand-off for sharded workers (ShardedRuntime::SetShedPlan).
  /// An empty plan disables shedding; numerators otherwise parallel
  /// raw-relation order, each <= ShedPlan::kDenominator.
  Status SetShedPlan(const ShedPlan& plan);
  const ShedPlan& shed_plan() const { return shed_plan_; }
  /// Records dropped at raw relation `i` (raw-relation order) so far.
  /// Exact: table(raw_relation(i)).probes() + shed_count(i) == records.
  uint64_t shed_count(int i) const {
    return shed_counts_[static_cast<size_t>(i)];
  }

  /// Shard index stamped into this runtime's flight-recorder events
  /// (docs/tracing.md) — 0 for serial runtimes; ShardedRuntime::Make labels
  /// each replica with its shard.
  void set_trace_id(int id) { trace_id_ = id; }
  int trace_id() const { return trace_id_; }

 private:
  ConfigurationRuntime(const Schema& schema,
                       std::vector<RuntimeRelationSpec> specs,
                       double epoch_seconds, Hfta* results, uint64_t seed,
                       std::vector<std::vector<MetricSpec>> layout);

  /// Probes relation `rel` with `key`/`state`; on collision propagates the
  /// evicted entry to the HFTA (if a query) and to all children. Templated
  /// on the flush flag so the intra-epoch hot path carries no per-probe
  /// branch deciding which counter to bump.
  template <bool kFlushing>
  void ProbeRelation(int rel, const GroupKey& key, const AggregateState& state);

  /// Delivers an evicted entry of relation `rel` downstream.
  template <bool kFlushing>
  void PropagateEviction(int rel, const GroupKey& key,
                         const AggregateState& state);

  /// Probes every raw relation with every record of `records`, all of which
  /// belong to the current epoch. The batched columnar inner loop
  /// (docs/probe_kernel.md): per chunk of kChunk records it projects keys,
  /// transposes them into struct-of-arrays columns, hashes the whole chunk
  /// with HashWordsBatch (SIMD-dispatched), resolves and prefetches buckets,
  /// classifies every slot in a pure read sweep, then applies outcomes in
  /// record order — falling back to the serial probe for buckets dirtied
  /// earlier in the chunk, which keeps results bit-identical to
  /// record-at-a-time processing.
  void ProcessEpochRun(std::span<const Record> records);

  /// The chunk pipeline on `n` already-projected keys in scratch_keys_
  /// (record indices rec_idx[0..n) into `records` for metric-bearing
  /// states; null when count-only): transpose, HashWordsBatch, resolve and
  /// prefetch buckets, classify, apply. Bumps counters exactly as the
  /// serial loop would.
  void ProbeChunkHash(int rel, LftaHashTable& table, size_t n,
                      std::span<const Record> records, const uint32_t* rec_idx,
                      const std::vector<MetricSpec>& metrics);

  Schema schema_;
  std::vector<RuntimeRelationSpec> specs_;
  std::vector<std::unique_ptr<LftaHashTable>> tables_;
  std::vector<std::vector<int>> children_;
  std::vector<int> raw_relations_;
  /// Projection plans precomputed at construction: record -> raw-relation
  /// key (parallel to raw_relations_) and parent key -> child key (parallel
  /// to children_[rel]). They keep the per-record path free of
  /// AttributeSet::Indices() allocations and per-record bit scans.
  std::vector<ProjectionPlan> raw_plans_;
  std::vector<std::vector<ProjectionPlan>> child_plans_;
  /// Chunk size of the batched probe pipeline: ProcessEpochRun projects,
  /// hashes and prefetches kChunk records ahead of probing them.
  static constexpr size_t kChunk = 32;
  /// Scratch for ProcessEpochRun, hoisted into the object so the per-call
  /// path does not re-run the members' zero-initialization (GroupKey and
  /// AggregateState value-initialize their inline arrays). The runtime is
  /// single-threaded and ProcessEpochRun is not reentrant, so sharing is
  /// safe.
  std::array<GroupKey, kChunk> scratch_keys_;
  std::array<uint64_t, kChunk> scratch_buckets_;
  /// Survivor record indices of the current chunk when a shed plan is
  /// active (ProcessEpochRun's shedding variant).
  std::array<uint32_t, kChunk> scratch_survivors_;
  /// Struct-of-arrays view of the chunk's keys: scratch_cols_[w][j] is word
  /// w of key j — the layout HashWordsBatch consumes (one contiguous lane
  /// sweep per key word).
  std::array<std::array<uint32_t, kChunk>, kMaxAttributes> scratch_cols_;
  std::array<uint64_t, kChunk> scratch_hashes_;
  /// Per-record slot classifications of the chunk's classify pass, and the
  /// buckets dirtied (inserted into / collided on) so far this chunk — a
  /// linear-scanned list, at most kChunk entries.
  std::array<LftaHashTable::SlotClass, kChunk> scratch_classes_;
  std::array<uint64_t, kChunk> scratch_dirty_;
  GroupKey scratch_evicted_key_;
  AggregateState scratch_evicted_state_;
  /// The one-record count-only contribution, shared by every metric-free
  /// probe.
  const AggregateState count_one_ = AggregateState::FromCount(1);
  std::unique_ptr<Hfta> owned_hfta_;  ///< Null when Make was given results.
  Hfta* hfta_;
  double epoch_seconds_;
  uint64_t current_epoch_ = 0;
  bool saw_record_ = false;
  RuntimeCounters counters_;
  RuntimeTelemetry telemetry_;
  /// Relaxed atomic so the engine can toggle levels while a sharded worker
  /// runs; one relaxed load per batch/flush/eviction, never per record.
  std::atomic<TelemetryLevel> telemetry_level_{TelemetryLevel::kFull};
  /// ProcessBatch calls seen at kFull; picks the calls whose wall time and
  /// size the batch histograms sample.
  uint64_t batch_calls_ = 0;
  /// steady_clock stamp of the last FlushEpoch (0 = none yet); feeds the
  /// epoch_gap_ns histogram.
  uint64_t last_flush_nanos_ = 0;
  /// Probe shedding (docs/overload.md): the installed plan, one
  /// error-diffusion accumulator per raw relation (in [0, kDenominator)),
  /// and the exact per-relation drop tallies.
  ShedPlan shed_plan_;
  std::vector<uint32_t> shed_accum_;
  std::vector<uint64_t> shed_counts_;
  /// Shard label of this runtime's trace events (see set_trace_id).
  int trace_id_ = 0;
};

}  // namespace streamagg

#endif  // STREAMAGG_DSMS_CONFIGURATION_RUNTIME_H_
