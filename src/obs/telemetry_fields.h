#ifndef STREAMAGG_OBS_TELEMETRY_FIELDS_H_
#define STREAMAGG_OBS_TELEMETRY_FIELDS_H_

// The one description of every serialized telemetry field, private to
// obs/telemetry.cc and obs/openmetrics.cc. For each snapshot struct it
// lists the fields in JSON order: member, JSON key, how MergeFrom folds it
// and, for exported fields, the OpenMetrics kind, name and HELP text.
// ToJsonLine, FromJsonLine, the MergeFroms and TelemetryToOpenMetrics walk
// these lists; ToTable (a chosen human layout) and BuildTelemetrySnapshot
// (the source mapping) stay hand-written. docs/observability.md §5 tables
// what the walks emit, and tests/telemetry_export_test.cc checks it.

#include <array>
#include <tuple>
#include <type_traits>
#include <vector>

#include "obs/telemetry.h"

namespace streamagg::telemetry_fields {

/// How MergeFrom folds the other side's value of a field into this one.
enum MergeRule {
  kKeep,       ///< This side's value stays (identity and event fields).
  kSum,        ///< Numbers add, histograms merge, structs merge by field.
  kMax,        ///< The larger value.
  kOr,         ///< Either flag.
  kConcat,     ///< The other list is appended.
  kByIndex,    ///< Shared indices kSum; the longer list's tail is copied.
  kRecompute,  ///< `recompute` of the merged struct, after every other rule.
};

/// What TelemetryToOpenMetrics makes of a field.
enum Export {
  kNone,
  kGauge,      ///< Family `prefix + name`, one sample per owning object.
  kCounter,    ///< The same, exposed with the `_total` sample suffix.
  kHistogram,  ///< A LogHistogram as cumulative `le` buckets.
  kFamilies,   ///< A struct or list of structs: its own fields' families,
               ///< under `prefix + name`.
  kLabel,      ///< A list element's string that labels the samples of the
               ///< fields after it.
};

/// One serialized member of S. The first five attributes are positional;
/// the hooks after them are set by name where a field needs one.
template <typename S, typename T>
struct Field {
  using Type = T;

  T S::*member;
  const char* key;
  MergeRule merge = kKeep;
  Export metric = kNone;
  const char* help = nullptr;  ///< A later field of the same family: none.
  /// The family name after the prefix (the JSON key when null); for
  /// kFamilies, what its fields' families add to the prefix.
  const char* name = nullptr;
  /// A list's per-element label (`shard="0"`), or with `label_value` a
  /// constant label on this field's samples (`kind="observed"`).
  const char* label = nullptr;
  const char* label_value = nullptr;
  T (*recompute)(const S&) = nullptr;    ///< For kRecompute.
  bool (S::*present)() const = nullptr;  ///< The sample exists while true.
  /// JSON writes the bool as one of two words, {false, true}.
  std::array<const char*, 2> words{};
  bool omit_empty = false;  ///< JSON leaves an empty list out.
  /// A bool that gates its struct: while false, JSON leaves the struct
  /// out and OpenMetrics exports only this field.
  bool gate = false;
};

/// Fields that JSON nests under one more key, with no OpenMetrics prefix.
template <typename Fields>
struct Group {
  const char* key;
  Fields fields;
};

template <typename S>
struct Schema {};

template <typename T>
concept HasFields = requires { Schema<T>::kFields; };

template <typename E>
concept IsGroup = requires(const E& e) { e.fields; };

template <typename T>
constexpr bool kIsList = false;
template <typename T>
constexpr bool kIsList<std::vector<T>> = true;

template <typename T>
concept ListOfStructs = kIsList<T> && HasFields<typename T::value_type>;

/// Calls `fn` on every entry of a schema list: Fields and whole Groups.
template <typename Entries, typename Fn>
constexpr void ForEachEntry(const Entries& entries, Fn&& fn) {
  std::apply([&](const auto&... entry) { (fn(entry), ...); }, entries);
}

/// Calls `fn` on every Field of a schema list, inside Groups too.
template <typename Entries, typename Fn>
constexpr void ForEachField(const Entries& entries, Fn&& fn) {
  ForEachEntry(entries, [&](const auto& e) {
    if constexpr (IsGroup<decltype(e)>) {
      ForEachField(e.fields, fn);
    } else {
      fn(e);
    }
  });
}

/// False while a gate field of `s` is false (a disabled shedding section).
template <HasFields S>
bool GateOpen(const S& s) {
  bool open = true;
  ForEachField(Schema<S>::kFields, [&](const auto& f) {
    if constexpr (std::is_same_v<typename std::decay_t<decltype(f)>::Type,
                                 bool>) {
      if (f.gate && !(s.*f.member)) open = false;
    }
  });
  return open;
}

// --- Recomputed rates ------------------------------------------------------

inline double ObservedCollisionRate(const TableTelemetry& t) {
  return t.probes == 0 ? 0.0
                       : static_cast<double>(t.collisions) /
                             static_cast<double>(t.probes);
}

/// shed_probes / (offered_records x raw relations).
inline double RealizedShedFraction(const SheddingTelemetry& s) {
  return s.offered_records == 0 || s.relations.empty()
             ? 0.0
             : static_cast<double>(s.shed_probes) /
                   (static_cast<double>(s.offered_records) *
                    static_cast<double>(s.relations.size()));
}

// --- The schema --------------------------------------------------------------

template <>
struct Schema<RuntimeCounters> {
  using C = RuntimeCounters;
  static constexpr auto kFields = std::tuple{
      Field{&C::records, "records", kSum, kCounter,
            "Stream records processed."},
      Field{&C::intra_probes, "intra_probes", kSum, kCounter,
            "Hash-table probes during epochs."},
      Field{&C::intra_transfers, "intra_transfers", kSum, kCounter,
            "LFTA-to-HFTA evictions during epochs."},
      Field{&C::flush_probes, "flush_probes", kSum, kCounter,
            "Probes during end-of-epoch flushes."},
      Field{&C::flush_transfers, "flush_transfers", kSum, kCounter,
            "Transfers during end-of-epoch flushes."},
      Field{&C::epochs_flushed, "epochs_flushed", kSum, kCounter,
            "Epoch flushes completed."},
      Field{&C::shed_probes, "shed_probes", kSum, kCounter,
            "Raw-relation probes skipped by the shed plan."},
  };
};

/// Shard replicas of one table: tallies and sizes sum (occupied_hwm to an
/// upper bound, since replicas peak at different moments), the identity
/// fields must already match, and the observed rate is recomputed.
template <>
struct Schema<TableTelemetry> {
  using T = TableTelemetry;
  static constexpr auto kFields = std::tuple{
      Field{&T::relation, "relation", kKeep, kLabel},
      Field{&T::is_query, "is_query"},
      Field{&T::query_index, "query_index"},
      Field{&T::parent, "parent"},
      Field{&T::num_buckets, "buckets", kSum, kGauge,
            "Configured hash buckets of the LFTA table."},
      Field{&T::occupied, "occupied", kSum, kGauge,
            "Occupied buckets right now."},
      Field{&T::occupied_hwm, "occupied_hwm", kSum, kGauge,
            "Highest occupancy ever reached."},
      Field{&T::probes, "probes", kSum, kCounter, "Probes against the table."},
      Field{&T::inserts, "inserts", kSum, kCounter,
            "Probes that created a new group."},
      Field{&T::updates, "updates", kSum, kCounter,
            "Probes that updated an existing group."},
      Field{&T::collisions, "collisions", kSum, kCounter,
            "Probes that evicted a resident group."},
      Field{&T::intra_evictions, "intra_evictions", kSum, kCounter,
            "Collision evictions attributed to the relation."},
      Field{&T::flush_evictions, "flush_evictions", kSum, kCounter,
            "Epoch-flush evictions attributed to the relation."},
      Field{&T::hfta_transfers, "hfta_transfers", kSum, kCounter,
            "Groups the relation shipped to the HFTA."},
      Field{&T::flushed_entries, "flushed_entries", kSum, kCounter,
            "Entries drained by epoch flushes."},
      // The paper's drift comparison as one family with a `kind` label;
      // tables the planner never priced have no predicted sample.
      Field{.member = &T::observed_collision_rate, .key = "x_observed",
            .merge = kRecompute, .metric = kGauge,
            .help = "Collision rate, observed vs cost-model prediction.",
            .name = "collision_rate", .label = "kind",
            .label_value = "observed", .recompute = ObservedCollisionRate},
      Field{.member = &T::predicted_collision_rate, .key = "x_predicted",
            .metric = kGauge, .name = "collision_rate", .label = "kind",
            .label_value = "predicted", .present = &T::has_prediction},
      Field{&T::flush_occupancy, "flush_occupancy", kSum},
  };
};

/// Shard rows, like the event records below, are only ever concatenated,
/// so their fields keep. Rows are labeled by list index.
template <>
struct Schema<ShardTelemetry> {
  using T = ShardTelemetry;
  static constexpr auto kFields = std::tuple{
      Field{&T::records, "records", kKeep, kCounter,
            "Records routed to the shard."},
      Field{&T::queue_depth_hwm, "queue_depth_hwm", kKeep, kGauge,
            "Deepest queue backlog seen by the shard."},
      Field{&T::blocked_pushes, "blocked_pushes", kKeep, kCounter,
            "Envelope pushes that found the shard's queue full."},
      Field{&T::cpu, "cpu"},
      Field{&T::node, "node"},
  };
};

template <>
struct Schema<ReplanEvent> {
  using E = ReplanEvent;
  static constexpr auto kFields = std::tuple{
      Field{&E::epoch, "epoch"},
      Field{&E::trigger_relation, "trigger_relation"},
      Field{&E::drift, "drift"},
      Field{&E::replanned_nodes, "replanned_nodes"},
      Field{&E::pinned_nodes, "pinned_nodes"},
      Field{&E::optimize_millis, "optimize_millis"},
      Field{&E::merge_millis, "merge_millis"},
  };
};

template <>
struct Schema<QueryChurnEvent> {
  using E = QueryChurnEvent;
  static constexpr auto kFields = std::tuple{
      Field{&E::epoch, "epoch"},
      // A string action keeps the export greppable (CI churn drill).
      Field{.member = &E::add, .key = "action", .words = {"drop", "add"}},
      Field{&E::query_id, "query_id"},
      Field{&E::relation, "relation"},
      Field{&E::grafted, "grafted"},
      Field{&E::aliased, "aliased"},
      Field{&E::replanned_nodes, "replanned_nodes"},
      Field{&E::pinned_nodes, "pinned_nodes"},
      Field{&E::optimize_millis, "optimize_millis"},
      Field{&E::merge_millis, "merge_millis"},
  };
};

template <>
struct Schema<SheddingRelationTelemetry> {
  using R = SheddingRelationTelemetry;
  static constexpr auto kFields = std::tuple{
      Field{&R::relation, "relation", kKeep, kLabel},
      Field{&R::price, "price", kKeep, kGauge,
            "Eq-7 cycles one shed record saves at the relation's probe."},
      Field{&R::shed_fraction, "shed_fraction", kKeep, kGauge,
            "Planned shed fraction at the relation."},
      Field{&R::shed_records, "shed_records", kSum, kCounter,
            "Probes actually dropped at the relation."},
  };
};

/// Engine-level: replicas carry a disabled (empty) section, which merges
/// as the identity.
template <>
struct Schema<SheddingTelemetry> {
  using T = SheddingTelemetry;
  static constexpr auto kFields = std::tuple{
      Field{.member = &T::enabled, .key = "enabled", .merge = kOr,
            .metric = kGauge,
            .help = "1 when the overload controller is attached.",
            .gate = true},
      Field{&T::target_fraction, "target_fraction", kMax, kGauge,
            "Overall shed target the controller is holding."},
      Field{&T::offered_records, "offered_records", kSum, kCounter,
            "Records offered to the engine pre-shedding."},
      Field{&T::shed_probes, "shed_probes", kSum},
      Field{.member = &T::shed_fraction, .key = "shed_fraction",
            .merge = kRecompute, .metric = kGauge,
            .help = "Realized overall shed fraction.",
            .recompute = RealizedShedFraction},
      Field{&T::accuracy_loss, "accuracy_loss", kMax, kGauge,
            "Estimated degraded fraction of the query surface."},
      Field{&T::cycles_saved_per_record, "cycles_saved_per_record", kMax,
            kGauge, "Eq-7 cycles the current plan saves per offered record."},
      Field{.member = &T::relations, .key = "relations", .merge = kByIndex,
            .metric = kFamilies, .name = "relation_"},
  };
};

/// Folding shard replicas: counts and histograms sum, shard lists
/// concatenate, and the epoch takes the max. Re-plan, churn and shedding
/// history is engine-level, so replicas carry none of it.
template <>
struct Schema<TelemetrySnapshot> {
  using T = TelemetrySnapshot;
  static constexpr auto kFields = std::tuple{
      Field{&T::epoch, "epoch", kMax, kGauge,
            "Epoch the snapshot was captured in."},
      Field{.member = &T::num_shards, .key = "num_shards", .merge = kSum,
            .metric = kGauge, .help = "Shard replicas of the runtime.",
            .name = "shards"},
      Field{&T::reoptimizations, "reoptimizations", kMax, kCounter,
            "Adaptive re-plans applied so far."},
      Field{.member = &T::counters, .key = "counters", .merge = kSum,
            .metric = kFamilies, .name = ""},
      Field{.member = &T::tables, .key = "tables", .merge = kByIndex,
            .metric = kFamilies, .name = "table_"},
      Field{.member = &T::shards, .key = "shards", .merge = kConcat,
            .metric = kFamilies, .name = "shard_", .label = "shard"},
      Field{.member = &T::hfta_groups, .key = "hfta_groups", .merge = kByIndex,
            .metric = kGauge, .help = "Result rows held in the HFTA per query.",
            .label = "query"},
      Field{.member = &T::hfta_bytes, .key = "hfta_bytes", .merge = kByIndex,
            .metric = kGauge,
            .help = "Bytes the HFTA's result tables hold per query.",
            .label = "query"},
      Field{&T::replans, "replans", kConcat},
      Field{.member = &T::query_churn, .key = "query_churn", .merge = kConcat,
            .omit_empty = true},
      Field{.member = &T::shedding, .key = "shedding", .merge = kSum,
            .metric = kFamilies, .name = "shedding_"},
      Group{"histograms", std::tuple{
          Field{&T::batch_records, "batch_records", kSum, kHistogram,
                "Records per ProcessBatch call, sampled on 1 call in 64."},
          Field{&T::batch_ns, "batch_ns", kSum, kHistogram,
                "Wall-clock nanoseconds per ProcessBatch call, sampled on 1 "
                "call in 64."},
          Field{&T::flush_ns, "flush_ns", kSum, kHistogram,
                "Wall-clock nanoseconds per epoch flush."},
          Field{&T::epoch_gap_ns, "epoch_gap_ns", kSum, kHistogram,
                "Wall-clock nanoseconds between epoch flushes."},
      }},
  };
};

}  // namespace streamagg::telemetry_fields

#endif  // STREAMAGG_OBS_TELEMETRY_FIELDS_H_
