#ifndef STREAMAGG_OBS_TELEMETRY_H_
#define STREAMAGG_OBS_TELEMETRY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "dsms/configuration_runtime.h"
#include "dsms/sharded_runtime.h"
#include "obs/metrics.h"
#include "stream/schema.h"
#include "util/status.h"

namespace streamagg {

/// One LFTA table's view in a snapshot: sizing, occupancy, probe outcome
/// breakdown, eviction reasons, and — the paper's Figure 5/6 comparison,
/// live — the *observed* collision rate next to the cost model's
/// *prediction* for the planned statistics. Full metric catalog:
/// docs/observability.md.
struct TableTelemetry {
  /// No model prediction available (pinned plans without catalog counts,
  /// raw runtime snapshots before the engine annotates them).
  static constexpr double kNoPrediction = -1.0;

  std::string relation;  ///< Schema-formatted attribute set, e.g. "ABD".
  bool is_query = false;
  /// The query's dense slot (-1 for phantoms), not the stable id that
  /// StreamAggEngine::EpochResult takes: later slots shift down after a
  /// non-alias DropQuery, and aliased ids share one slot.
  int query_index = -1;
  int parent = -1;       ///< Feeding parent table index; -1 for raw.
  uint64_t num_buckets = 0;
  uint64_t occupied = 0;      ///< Occupied buckets right now.
  uint64_t occupied_hwm = 0;  ///< Highest occupancy ever reached.
  // Probe outcome breakdown (lifetime; probes = inserts+updates+collisions).
  uint64_t probes = 0;
  uint64_t inserts = 0;
  uint64_t updates = 0;
  uint64_t collisions = 0;
  // Eviction reasons, attributed to the evicting relation.
  uint64_t intra_evictions = 0;
  uint64_t flush_evictions = 0;
  uint64_t hfta_transfers = 0;
  uint64_t flushed_entries = 0;  ///< Entries drained by epoch flushes.
  /// Occupied buckets at each epoch flush (kFull tier only).
  LogHistogram flush_occupancy;
  /// collisions / probes — the paper's empirical x.
  double observed_collision_rate = 0.0;
  /// The collision model's x for the planned statistics; kNoPrediction when
  /// no model was consulted.
  double predicted_collision_rate = kNoPrediction;

  bool has_prediction() const { return predicted_collision_rate >= 0.0; }
  /// observed - predicted (0 without a prediction): positive means the live
  /// stream collides more than planned — the drift signal.
  double drift() const {
    return has_prediction()
               ? observed_collision_rate - predicted_collision_rate
               : 0.0;
  }

  /// Folds another shard replica's view of the *same* table into this one:
  /// tallies and bucket counts sum (each replica holds its own
  /// budget/num_shards-sized copy), the observed rate is recomputed from
  /// the summed tallies. Identity fields must already match.
  void MergeFrom(const TableTelemetry& other);

  bool operator==(const TableTelemetry&) const = default;
};

/// Driver-side ingest stats of one shard (mirrors ShardIngestStats, in
/// serializable form), plus where the affinity planner put its worker.
struct ShardTelemetry {
  uint64_t records = 0;          ///< Records routed to this shard.
  uint64_t queue_depth_hwm = 0;  ///< Deepest queue backlog, in envelopes.
  /// Envelope pushes into this shard's queue that found it full — the
  /// overload controller's backpressure signal (docs/overload.md).
  uint64_t blocked_pushes = 0;
  int cpu = -1;   ///< CPU the shard worker is pinned to; -1 = unpinned.
  int node = -1;  ///< Its NUMA node; -1 = unknown.

  bool operator==(const ShardTelemetry&) const = default;
};

/// One adaptive re-plan, as recorded by the engine at the epoch barrier
/// where it fired: which relation's drift trend triggered it, how wide the
/// drift was, and how much of the configuration was actually rebuilt
/// (subtree-pinned re-plans keep the non-drifted trees' tables untouched).
struct ReplanEvent {
  uint64_t epoch = 0;           ///< Epoch whose boundary triggered the swap.
  std::string trigger_relation; ///< Worst-drifting table, schema-formatted.
  double drift = 0.0;           ///< Its observed - predicted rate gap.
  int replanned_nodes = 0;      ///< Relations rebuilt by the optimizer.
  int pinned_nodes = 0;         ///< Relations kept from the old plan.
  double optimize_millis = 0.0;
  /// Wall-clock of the barrier work around the swap: the retiring runtime's
  /// final flush (sharded, with the replica HFTA drain). No HFTA merge.
  double merge_millis = 0.0;

  bool operator==(const ReplanEvent&) const = default;
};

/// One online query-churn event (StreamAggEngine::AddQuery/DropQuery), as
/// recorded by the engine at the epoch-flush barrier where the plan swap
/// (or alias bump) happened. Schema in docs/observability.md §query_churn.
struct QueryChurnEvent {
  uint64_t epoch = 0;     ///< Epoch the engine was accumulating into.
  bool add = true;        ///< true = AddQuery, false = DropQuery.
  int query_id = -1;      ///< Stable engine-assigned query id.
  std::string relation;   ///< The query's grouping, schema-formatted.
  /// Add path taken: grafted (incremental GraftQueries), or full Optimize
  /// fallback when false. Drops are plan surgery and report false.
  bool grafted = false;
  /// The query aliased an identical live query: no plan change at all.
  bool aliased = false;
  int replanned_nodes = 0;  ///< Relations rebuilt for this churn event.
  int pinned_nodes = 0;     ///< Relations carried over untouched.
  double optimize_millis = 0.0;  ///< Planning wall-clock (0 for aliases).
  /// Wall-clock of the barrier work: the retiring runtime's final flush (on
  /// sharded, with the replica HFTA drain), plus an alias drop's result
  /// copy.
  double merge_millis = 0.0;

  bool operator==(const QueryChurnEvent&) const = default;
};

/// One raw relation's slice of the shedding picture: what a shed probe
/// there is worth (the cost model's Eq-7 cycles credited to the relation's
/// feeding tree) and how much is actually being shed.
struct SheddingRelationTelemetry {
  std::string relation;  ///< Schema-formatted attribute set.
  /// Eq-7 cycles one shed record saves at this relation's probe.
  double price = 0.0;
  /// Planned shed fraction (ShedPlan numerator / denominator).
  double shed_fraction = 0.0;
  /// Probes actually dropped at this relation (live runtime, exact).
  uint64_t shed_records = 0;

  bool operator==(const SheddingRelationTelemetry&) const = default;
};

/// Engine-level view of the overload controller (docs/overload.md): the
/// live shed plan, its exact drop counters, and the controller's estimate
/// of what the plan costs (accuracy) and buys (cycles). Absent from the
/// JSON line (and empty here) when the controller is disabled.
struct SheddingTelemetry {
  bool enabled = false;
  /// Overall shed target the controller is currently holding.
  double target_fraction = 0.0;
  /// Records offered to the engine (counters.records — pre-shedding; the
  /// probe hook drops records per raw relation, never before counting).
  uint64_t offered_records = 0;
  /// Raw-relation probes dropped, summed over relations and runtime swaps
  /// (counters.shed_probes — exact, from the deterministic accumulator).
  uint64_t shed_probes = 0;
  /// shed_probes / (offered_records * num raw relations): the realized
  /// overall shed fraction.
  double shed_fraction = 0.0;
  /// Estimated degraded fraction of the query surface (sum of per-relation
  /// shed_fraction x accuracy weight).
  double accuracy_loss = 0.0;
  /// Eq-7 cycles the current plan saves per offered record.
  double cycles_saved_per_record = 0.0;
  std::vector<SheddingRelationTelemetry> relations;

  /// Folds another engine's view in: counts sum, fractions recompute from
  /// the summed counts, per-index relations sum their drop counters.
  void MergeFrom(const SheddingTelemetry& other);

  bool operator==(const SheddingTelemetry&) const = default;
};

/// Point-in-time state of a whole engine/runtime: counters, per-table
/// stats, per-shard ingest stats, HFTA gauges and latency histograms.
/// Serializable to one JSON line (ToJsonLine/FromJsonLine round-trip
/// bit-exactly for every integer field) and to a human-readable table.
///
/// Threading: building a snapshot reads runtime internals, so it follows
/// the source's quiescence contract — serial runtimes any time on the
/// driver thread, sharded runtimes only between FlushEpoch barriers.
struct TelemetrySnapshot {
  uint64_t epoch = 0;  ///< Epoch the source was accumulating into.
  int num_shards = 1;
  int reoptimizations = 0;  ///< Adaptive re-plans so far (engine-level).
  RuntimeCounters counters;
  std::vector<TableTelemetry> tables;
  std::vector<ShardTelemetry> shards;        ///< Empty for serial runtimes.
  /// Result rows held in the HFTA per live query (Hfta::TotalGroups); for
  /// an engine, every row since the query was added, across swaps. Indexed
  /// by dense slot like TableTelemetry::query_index, not by query id.
  std::vector<uint64_t> hfta_groups;
  /// Bytes those rows' epoch tables hold per live query (Hfta::TotalBytes:
  /// keys, states and index, by capacity), indexed like hfta_groups.
  std::vector<uint64_t> hfta_bytes;
  /// Adaptive re-plans up to this snapshot, oldest first (engine-level;
  /// empty for raw runtime snapshots and non-adaptive engines).
  std::vector<ReplanEvent> replans;
  /// Query add/drop events up to this snapshot, oldest first (engine-level;
  /// empty for raw runtime snapshots and engines without churn).
  std::vector<QueryChurnEvent> query_churn;
  /// Overload-controller state (engine-level; enabled == false — and the
  /// JSON section absent — when the engine runs without the controller).
  SheddingTelemetry shedding;
  // Latency histograms (kFull tier; empty otherwise).
  LogHistogram batch_records;
  LogHistogram batch_ns;
  LogHistogram flush_ns;
  LogHistogram epoch_gap_ns;

  /// Folds another snapshot into this one: counters/tallies sum, per-index
  /// tables merge (TableTelemetry::MergeFrom), histograms merge, shard
  /// lists concatenate, the epoch takes the max. Used
  /// to aggregate shard replicas; associative and commutative in every
  /// integer field.
  void MergeFrom(const TelemetrySnapshot& other);

  /// One compact JSON object (no newline); schema in docs/observability.md.
  std::string ToJsonLine() const;
  /// Parses a ToJsonLine object. A missing key keeps the member's default,
  /// and keys it does not know are ignored, so lines from older builds
  /// still parse — including the per-table fields and the histogram of the
  /// retired sort-drain probe mode, the retired shedding `rebalances`, and
  /// the retired ingest-producer count and `producers` rows.
  static Result<TelemetrySnapshot> FromJsonLine(const std::string& line);

  /// Multi-line human-readable rendering (streamagg_cli --stats).
  std::string ToTable() const;

  bool operator==(const TelemetrySnapshot&) const = default;
};

/// Snapshots a serial runtime. Predictions are left at kNoPrediction — the
/// engine layer annotates them from its plan (core/engine.h).
TelemetrySnapshot BuildTelemetrySnapshot(const ConfigurationRuntime& runtime,
                                         const Schema& schema);

/// Snapshots a sharded runtime by merging every replica's snapshot plus the
/// driver-side ingest stats. Caller must hold the quiescence contract
/// (between FlushEpoch barriers). The merged counters are bit-identical to
/// the serial run's totals: each is an exact uint64 sum over the same
/// probe/transfer events, just partitioned by shard. An inline (1 x 1)
/// runtime returns its replica's own snapshot, with no shard rows.
TelemetrySnapshot BuildTelemetrySnapshot(const ShardedRuntime& runtime,
                                         const Schema& schema);

}  // namespace streamagg

#endif  // STREAMAGG_OBS_TELEMETRY_H_
