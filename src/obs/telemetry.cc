#include "obs/telemetry.h"

#include <algorithm>
#include <cstdio>
#include <type_traits>

#include "obs/json.h"
#include "obs/telemetry_fields.h"

namespace streamagg {

namespace {

namespace tf = telemetry_fields;

// A histogram's JSON object: these four totals, then sparse [bucket, count]
// pairs (telemetry histograms are typically concentrated in a handful of
// adjacent power-of-two buckets).
constexpr const char* kHistogramTotals[] = {"count", "sum", "min", "max"};
constexpr const char* kHistogramBuckets = "buckets";

template <typename Entries, typename S>
void WriteFields(const Entries& entries, const S& s, JsonValue* out);
template <typename Entries, typename S>
void ReadFields(const Entries& entries, const JsonValue& v, S* s);
template <typename S>
void MergeFields(S* into, const S& from);

template <typename T>
JsonValue ToJson(const T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    return JsonValue::Bool(v);
  } else if constexpr (std::is_same_v<T, int>) {
    return JsonValue::Number(static_cast<int64_t>(v));
  } else if constexpr (std::is_same_v<T, std::string>) {
    return JsonValue::Str(v);
  } else if constexpr (std::is_same_v<T, LogHistogram>) {
    JsonValue out = JsonValue::Object();
    const uint64_t totals[] = {v.count(), v.sum(), v.min(), v.max()};
    for (size_t i = 0; i < std::size(totals); ++i) {
      out.Set(kHistogramTotals[i], JsonValue::Number(totals[i]));
    }
    std::vector<std::vector<uint64_t>> buckets;
    for (int b = 0; b < LogHistogram::kNumBuckets; ++b) {
      if (v.bucket_count(b) == 0) continue;
      buckets.push_back({static_cast<uint64_t>(b), v.bucket_count(b)});
    }
    out.Set(kHistogramBuckets, ToJson(buckets));
    return out;
  } else if constexpr (tf::kIsList<T>) {
    JsonValue out = JsonValue::Array();
    for (const auto& element : v) out.Append(ToJson(element));
    return out;
  } else if constexpr (tf::HasFields<T>) {
    JsonValue out = JsonValue::Object();
    WriteFields(tf::Schema<T>::kFields, v, &out);
    return out;
  } else {
    return JsonValue::Number(v);  // uint64_t and double.
  }
}

template <typename Entries, typename S>
void WriteFields(const Entries& entries, const S& s, JsonValue* out) {
  tf::ForEachEntry(entries, [&](const auto& e) {
    if constexpr (tf::IsGroup<decltype(e)>) {
      JsonValue group = JsonValue::Object();
      WriteFields(e.fields, s, &group);
      out->Set(e.key, std::move(group));
    } else {
      using T = typename std::decay_t<decltype(e)>::Type;
      const T& v = s.*e.member;
      if constexpr (tf::kIsList<T>) {
        if (e.omit_empty && v.empty()) return;
      } else if constexpr (tf::HasFields<T>) {
        if (!tf::GateOpen(v)) return;
      } else if constexpr (std::is_same_v<T, bool>) {
        if (e.words[0] != nullptr) {
          out->Set(e.key, JsonValue::Str(e.words[v ? 1 : 0]));
          return;
        }
      }
      out->Set(e.key, ToJson(v));
    }
  });
}

template <typename T>
void ReadValue(const JsonValue& v, T* out) {
  if constexpr (std::is_same_v<T, bool>) {
    *out = v.AsBool();
  } else if constexpr (std::is_same_v<T, int>) {
    *out = static_cast<int>(v.AsInt64());
  } else if constexpr (std::is_same_v<T, uint64_t>) {
    *out = v.AsUint64();
  } else if constexpr (std::is_same_v<T, double>) {
    *out = v.AsDouble();
  } else if constexpr (std::is_same_v<T, std::string>) {
    *out = v.AsString();
  } else if constexpr (std::is_same_v<T, LogHistogram>) {
    std::array<uint64_t, LogHistogram::kNumBuckets> counts{};
    const JsonValue& buckets = v.Get(kHistogramBuckets);
    for (size_t i = 0; i < buckets.size(); ++i) {
      const JsonValue& pair = buckets.at(i);
      if (pair.size() != 2) continue;
      const uint64_t b = pair.at(0).AsUint64();
      if (b < static_cast<uint64_t>(LogHistogram::kNumBuckets)) {
        counts[static_cast<size_t>(b)] = pair.at(1).AsUint64();
      }
    }
    uint64_t totals[std::size(kHistogramTotals)];
    for (size_t i = 0; i < std::size(totals); ++i) {
      totals[i] = v.Get(kHistogramTotals[i]).AsUint64();
    }
    *out = LogHistogram::FromRaw(counts, totals[0], totals[1], totals[2],
                                 totals[3]);
  } else if constexpr (tf::kIsList<T>) {
    // One element per array entry, each read into a default element.
    out->assign(v.size(), typename T::value_type{});
    for (size_t i = 0; i < v.size(); ++i) ReadValue(v.at(i), &(*out)[i]);
  } else {
    ReadFields(tf::Schema<T>::kFields, v, out);
  }
}

// FromJsonLine's one rule: a member takes the value at its key when the key
// is present and keeps its default otherwise, so a line from an older (or
// newer) build restores what it carries and nothing else. Every struct is
// read into a default-constructed object.
template <typename Entries, typename S>
void ReadFields(const Entries& entries, const JsonValue& v, S* s) {
  tf::ForEachEntry(entries, [&](const auto& e) {
    if constexpr (tf::IsGroup<decltype(e)>) {
      ReadFields(e.fields, v.Get(e.key), s);
    } else if (v.Has(e.key)) {
      using T = typename std::decay_t<decltype(e)>::Type;
      if constexpr (std::is_same_v<T, bool>) {
        if (e.words[0] != nullptr) {
          s->*e.member = v.Get(e.key).AsString() == e.words[1];
          return;
        }
      }
      ReadValue(v.Get(e.key), &(s->*e.member));
    }
  });
}

/// MergeRule::kSum of one value.
template <typename T>
void MergeValue(T* into, const T& from) {
  if constexpr (std::is_same_v<T, LogHistogram>) {
    into->Merge(from);
  } else if constexpr (tf::HasFields<T>) {
    MergeFields(into, from);
  } else {
    *into += from;
  }
}

template <typename S>
void MergeFields(S* into, const S& from) {
  tf::ForEachField(tf::Schema<S>::kFields, [&](const auto& f) {
    using T = typename std::decay_t<decltype(f)>::Type;
    T& a = into->*f.member;
    const T& b = from.*f.member;
    if constexpr (tf::kIsList<T>) {
      const size_t shared =
          f.merge == tf::kByIndex ? std::min(a.size(), b.size())
                                              : 0;
      for (size_t i = 0; i < shared; ++i) MergeValue(&a[i], b[i]);
      if (f.merge == tf::kConcat ||
          f.merge == tf::kByIndex) {
        a.insert(a.end(), b.begin() + static_cast<ptrdiff_t>(shared),
                 b.end());
      }
    } else if constexpr (std::is_same_v<T, bool>) {
      if (f.merge == tf::kOr) a = a || b;
    } else if (f.merge == tf::kSum) {
      MergeValue(&a, b);
    } else if constexpr (std::is_arithmetic_v<T>) {
      if (f.merge == tf::kMax) a = std::max(a, b);
    }
  });
  // Rates over the merged counts, once every other field is in.
  tf::ForEachField(tf::Schema<S>::kFields, [&](const auto& f) {
    if (f.merge == tf::kRecompute) {
      into->*f.member = f.recompute(*into);
    }
  });
}

std::string FormatHistogramLine(const char* name, const LogHistogram& h) {
  char buffer[192];
  if (h.count() == 0) {
    std::snprintf(buffer, sizeof(buffer), "%-13s (empty)\n", name);
  } else {
    std::snprintf(buffer, sizeof(buffer),
                  "%-13s count=%llu mean=%.0f p50<=%llu p99<=%llu max=%llu\n",
                  name, static_cast<unsigned long long>(h.count()), h.Mean(),
                  static_cast<unsigned long long>(h.Quantile(0.5)),
                  static_cast<unsigned long long>(h.Quantile(0.99)),
                  static_cast<unsigned long long>(h.max()));
  }
  return buffer;
}

}  // namespace

void TableTelemetry::MergeFrom(const TableTelemetry& other) {
  MergeFields(this, other);
}

void SheddingTelemetry::MergeFrom(const SheddingTelemetry& other) {
  MergeFields(this, other);
}

void TelemetrySnapshot::MergeFrom(const TelemetrySnapshot& other) {
  MergeFields(this, other);
}

std::string TelemetrySnapshot::ToJsonLine() const {
  return ToJson(*this).Dump();
}

Result<TelemetrySnapshot> TelemetrySnapshot::FromJsonLine(
    const std::string& line) {
  STREAMAGG_ASSIGN_OR_RETURN(JsonValue root, JsonValue::Parse(line));
  if (!root.is_object()) {
    return Status::InvalidArgument("telemetry snapshot must be a JSON object");
  }
  TelemetrySnapshot s;
  ReadValue(root, &s);
  return s;
}

std::string TelemetrySnapshot::ToTable() const {
  std::string out;
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer),
                "epoch %llu | shards %d | re-plans %d | records %llu | "
                "epochs flushed %llu\n",
                static_cast<unsigned long long>(epoch), num_shards,
                reoptimizations,
                static_cast<unsigned long long>(counters.records),
                static_cast<unsigned long long>(counters.epochs_flushed));
  out += buffer;
  std::snprintf(buffer, sizeof(buffer),
                "probes %llu (intra %llu / flush %llu) | transfers %llu "
                "(intra %llu / flush %llu)\n",
                static_cast<unsigned long long>(counters.total_probes()),
                static_cast<unsigned long long>(counters.intra_probes),
                static_cast<unsigned long long>(counters.flush_probes),
                static_cast<unsigned long long>(counters.total_transfers()),
                static_cast<unsigned long long>(counters.intra_transfers),
                static_cast<unsigned long long>(counters.flush_transfers));
  out += buffer;
  if (!tables.empty()) {
    std::snprintf(buffer, sizeof(buffer),
                  "%-14s %-8s %10s %10s %10s %12s %12s %9s %9s %9s\n",
                  "table", "role", "buckets", "occupied", "hwm", "probes",
                  "collisions", "x_obs", "x_model", "drift");
    out += buffer;
    for (const TableTelemetry& t : tables) {
      char role[16];
      if (t.is_query) {
        std::snprintf(role, sizeof(role), "query%d", t.query_index);
      } else {
        std::snprintf(role, sizeof(role), "phantom");
      }
      char model[16];
      char drift_text[16];
      if (t.has_prediction()) {
        std::snprintf(model, sizeof(model), "%9.4f",
                      t.predicted_collision_rate);
        std::snprintf(drift_text, sizeof(drift_text), "%+9.4f", t.drift());
      } else {
        std::snprintf(model, sizeof(model), "%9s", "-");
        std::snprintf(drift_text, sizeof(drift_text), "%9s", "-");
      }
      std::snprintf(buffer, sizeof(buffer),
                    "%-14s %-8s %10llu %10llu %10llu %12llu %12llu %9.4f "
                    "%s %s\n",
                    t.relation.c_str(), role,
                    static_cast<unsigned long long>(t.num_buckets),
                    static_cast<unsigned long long>(t.occupied),
                    static_cast<unsigned long long>(t.occupied_hwm),
                    static_cast<unsigned long long>(t.probes),
                    static_cast<unsigned long long>(t.collisions),
                    t.observed_collision_rate, model, drift_text);
      out += buffer;
    }
  }
  const auto per_query = [&](const char* label,
                             const std::vector<uint64_t>& values) {
    if (values.empty()) return;
    out += label;
    for (size_t q = 0; q < values.size(); ++q) {
      std::snprintf(buffer, sizeof(buffer), " q%zu=%llu", q,
                    static_cast<unsigned long long>(values[q]));
      out += buffer;
    }
    out += '\n';
  };
  per_query("hfta rows:", hfta_groups);
  per_query("hfta bytes:", hfta_bytes);
  if (!replans.empty()) {
    out += "re-plans:";
    for (const ReplanEvent& e : replans) {
      std::snprintf(buffer, sizeof(buffer),
                    " [epoch %llu %s drift %+0.4f rebuilt %d pinned %d]",
                    static_cast<unsigned long long>(e.epoch),
                    e.trigger_relation.c_str(), e.drift, e.replanned_nodes,
                    e.pinned_nodes);
      out += buffer;
    }
    out += '\n';
  }
  if (!query_churn.empty()) {
    out += "query churn:";
    for (const QueryChurnEvent& e : query_churn) {
      std::snprintf(buffer, sizeof(buffer),
                    " [epoch %llu %s q%d %s %s rebuilt %d pinned %d]",
                    static_cast<unsigned long long>(e.epoch),
                    e.add ? "add" : "drop", e.query_id, e.relation.c_str(),
                    e.aliased ? "aliased" : (e.grafted ? "grafted" : "replan"),
                    e.replanned_nodes, e.pinned_nodes);
      out += buffer;
    }
    out += '\n';
  }
  if (shedding.enabled) {
    std::snprintf(buffer, sizeof(buffer),
                  "shedding: target %.3f | shed %llu/%llu probes (%.4f) | "
                  "accuracy loss %.4f | saves %.1f cyc/rec\n",
                  shedding.target_fraction,
                  static_cast<unsigned long long>(shedding.shed_probes),
                  static_cast<unsigned long long>(shedding.offered_records *
                                                  shedding.relations.size()),
                  shedding.shed_fraction, shedding.accuracy_loss,
                  shedding.cycles_saved_per_record);
    out += buffer;
    for (const SheddingRelationTelemetry& r : shedding.relations) {
      std::snprintf(buffer, sizeof(buffer),
                    "  shed %-12s price=%8.2f fraction=%.4f dropped=%llu\n",
                    r.relation.c_str(), r.price, r.shed_fraction,
                    static_cast<unsigned long long>(r.shed_records));
      out += buffer;
    }
  }
  if (!shards.empty()) {
    out += "shard ingest:";
    for (size_t i = 0; i < shards.size(); ++i) {
      std::snprintf(buffer, sizeof(buffer),
                    " s%zu records=%llu queue_hwm=%llu blocked=%llu", i,
                    static_cast<unsigned long long>(shards[i].records),
                    static_cast<unsigned long long>(shards[i].queue_depth_hwm),
                    static_cast<unsigned long long>(shards[i].blocked_pushes));
      out += buffer;
      if (shards[i].cpu >= 0) {
        std::snprintf(buffer, sizeof(buffer), " cpu=%d/node%d",
                      shards[i].cpu, shards[i].node);
        out += buffer;
      }
    }
    out += '\n';
  }
  out += FormatHistogramLine("batch_records", batch_records);
  out += FormatHistogramLine("batch_ns", batch_ns);
  out += FormatHistogramLine("flush_ns", flush_ns);
  out += FormatHistogramLine("epoch_gap_ns", epoch_gap_ns);
  return out;
}

TelemetrySnapshot BuildTelemetrySnapshot(const ConfigurationRuntime& runtime,
                                         const Schema& schema) {
  TelemetrySnapshot s;
  s.epoch = runtime.current_epoch();
  s.num_shards = 1;
  s.counters = runtime.counters();
  const RuntimeTelemetry& telemetry = runtime.telemetry();
  s.batch_records = telemetry.batch_records;
  s.batch_ns = telemetry.batch_ns;
  s.flush_ns = telemetry.flush_ns;
  s.epoch_gap_ns = telemetry.epoch_gap_ns;
  s.tables.reserve(static_cast<size_t>(runtime.num_relations()));
  for (int i = 0; i < runtime.num_relations(); ++i) {
    const RuntimeRelationSpec& spec = runtime.spec(i);
    const LftaHashTable& table = runtime.table(i);
    TableTelemetry t;
    t.relation = schema.FormatAttributeSet(spec.attrs);
    t.is_query = spec.is_query;
    t.query_index = spec.query_index;
    t.parent = spec.parent;
    t.num_buckets = table.num_buckets();
    t.occupied = table.occupied_buckets();
    t.occupied_hwm = table.occupied_hwm();
    t.probes = table.probes();
    t.inserts = table.inserts();
    t.updates = table.updates();
    t.collisions = table.collisions();
    t.flushed_entries = table.flushed_entries();
    t.observed_collision_rate = table.CollisionRate();
    const RelationTelemetry& rt =
        telemetry.relations[static_cast<size_t>(i)];
    t.intra_evictions = rt.intra_evictions;
    t.flush_evictions = rt.flush_evictions;
    t.hfta_transfers = rt.hfta_transfers;
    t.flush_occupancy = rt.flush_occupancy;
    s.tables.push_back(std::move(t));
  }
  const Hfta& hfta = runtime.hfta();
  s.hfta_groups.reserve(static_cast<size_t>(hfta.num_queries()));
  s.hfta_bytes.reserve(static_cast<size_t>(hfta.num_queries()));
  for (int q = 0; q < hfta.num_queries(); ++q) {
    s.hfta_groups.push_back(hfta.TotalGroups(q));
    s.hfta_bytes.push_back(hfta.TotalBytes(q));
  }
  return s;
}

TelemetrySnapshot BuildTelemetrySnapshot(const ShardedRuntime& runtime,
                                         const Schema& schema) {
  if (runtime.runs_inline()) {
    return BuildTelemetrySnapshot(runtime.shard(0), schema);
  }
  TelemetrySnapshot s;
  s.num_shards = 0;  // MergeFrom sums the replicas' 1s back up.
  const AffinityLayout& layout = runtime.layout();
  for (int i = 0; i < runtime.num_shards(); ++i) {
    s.MergeFrom(BuildTelemetrySnapshot(runtime.shard(i), schema));
    const ShardIngestStats& stats = runtime.shard_stats(i);
    ShardTelemetry shard;
    shard.records = stats.records;
    shard.queue_depth_hwm = stats.queue_depth_hwm;
    shard.blocked_pushes = stats.blocked_pushes;
    shard.cpu = layout.shard_cpu[static_cast<size_t>(i)];
    shard.node = layout.shard_node[static_cast<size_t>(i)];
    s.shards.push_back(shard);
  }
  // Every barrier drains the replica HFTAs into the results HFTA, which
  // holds the deduplicated per-query row and byte counts.
  const Hfta& results = runtime.hfta();
  s.hfta_groups.assign(static_cast<size_t>(results.num_queries()), 0);
  s.hfta_bytes.assign(static_cast<size_t>(results.num_queries()), 0);
  for (int q = 0; q < results.num_queries(); ++q) {
    s.hfta_groups[static_cast<size_t>(q)] = results.TotalGroups(q);
    s.hfta_bytes[static_cast<size_t>(q)] = results.TotalBytes(q);
  }
  return s;
}

}  // namespace streamagg
