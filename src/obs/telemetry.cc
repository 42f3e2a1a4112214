#include "obs/telemetry.h"

#include <algorithm>
#include <cstdio>

#include "obs/json.h"

namespace streamagg {

namespace {

JsonValue HistogramToJson(const LogHistogram& h) {
  JsonValue out = JsonValue::Object();
  out.Set("count", JsonValue::Number(h.count()));
  out.Set("sum", JsonValue::Number(h.sum()));
  out.Set("min", JsonValue::Number(h.min()));
  out.Set("max", JsonValue::Number(h.max()));
  // Sparse [bucket, count] pairs: telemetry histograms are typically
  // concentrated in a handful of adjacent power-of-two buckets.
  JsonValue buckets = JsonValue::Array();
  for (int b = 0; b < LogHistogram::kNumBuckets; ++b) {
    if (h.bucket_count(b) == 0) continue;
    JsonValue pair = JsonValue::Array();
    pair.Append(JsonValue::Number(static_cast<uint64_t>(b)));
    pair.Append(JsonValue::Number(h.bucket_count(b)));
    buckets.Append(std::move(pair));
  }
  out.Set("buckets", std::move(buckets));
  return out;
}

LogHistogram HistogramFromJson(const JsonValue& v) {
  std::array<uint64_t, LogHistogram::kNumBuckets> counts{};
  const JsonValue& buckets = v.Get("buckets");
  for (size_t i = 0; i < buckets.size(); ++i) {
    const JsonValue& pair = buckets.at(i);
    if (pair.size() != 2) continue;
    const uint64_t b = pair.at(0).AsUint64();
    if (b < static_cast<uint64_t>(LogHistogram::kNumBuckets)) {
      counts[static_cast<size_t>(b)] = pair.at(1).AsUint64();
    }
  }
  return LogHistogram::FromRaw(counts, v.Get("count").AsUint64(),
                               v.Get("sum").AsUint64(),
                               v.Get("min").AsUint64(),
                               v.Get("max").AsUint64());
}

JsonValue CountersToJson(const RuntimeCounters& c) {
  JsonValue out = JsonValue::Object();
  out.Set("records", JsonValue::Number(c.records));
  out.Set("intra_probes", JsonValue::Number(c.intra_probes));
  out.Set("intra_transfers", JsonValue::Number(c.intra_transfers));
  out.Set("flush_probes", JsonValue::Number(c.flush_probes));
  out.Set("flush_transfers", JsonValue::Number(c.flush_transfers));
  out.Set("epochs_flushed", JsonValue::Number(c.epochs_flushed));
  out.Set("shed_probes", JsonValue::Number(c.shed_probes));
  return out;
}

RuntimeCounters CountersFromJson(const JsonValue& v) {
  RuntimeCounters c;
  c.records = v.Get("records").AsUint64();
  c.intra_probes = v.Get("intra_probes").AsUint64();
  c.intra_transfers = v.Get("intra_transfers").AsUint64();
  c.flush_probes = v.Get("flush_probes").AsUint64();
  c.flush_transfers = v.Get("flush_transfers").AsUint64();
  c.epochs_flushed = v.Get("epochs_flushed").AsUint64();
  // Absent in snapshots serialized before the overload controller.
  if (v.Has("shed_probes")) c.shed_probes = v.Get("shed_probes").AsUint64();
  return c;
}

JsonValue TableToJson(const TableTelemetry& t) {
  JsonValue out = JsonValue::Object();
  out.Set("relation", JsonValue::Str(t.relation));
  out.Set("is_query", JsonValue::Bool(t.is_query));
  out.Set("query_index", JsonValue::Number(static_cast<int64_t>(t.query_index)));
  out.Set("parent", JsonValue::Number(static_cast<int64_t>(t.parent)));
  out.Set("buckets", JsonValue::Number(t.num_buckets));
  out.Set("occupied", JsonValue::Number(t.occupied));
  out.Set("occupied_hwm", JsonValue::Number(t.occupied_hwm));
  out.Set("probes", JsonValue::Number(t.probes));
  out.Set("inserts", JsonValue::Number(t.inserts));
  out.Set("updates", JsonValue::Number(t.updates));
  out.Set("collisions", JsonValue::Number(t.collisions));
  out.Set("intra_evictions", JsonValue::Number(t.intra_evictions));
  out.Set("flush_evictions", JsonValue::Number(t.flush_evictions));
  out.Set("hfta_transfers", JsonValue::Number(t.hfta_transfers));
  out.Set("flushed_entries", JsonValue::Number(t.flushed_entries));
  out.Set("x_observed", JsonValue::Number(t.observed_collision_rate));
  out.Set("x_predicted", JsonValue::Number(t.predicted_collision_rate));
  out.Set("flush_occupancy", HistogramToJson(t.flush_occupancy));
  return out;
}

TableTelemetry TableFromJson(const JsonValue& v) {
  TableTelemetry t;
  t.relation = v.Get("relation").AsString();
  t.is_query = v.Get("is_query").AsBool();
  t.query_index = static_cast<int>(v.Get("query_index").AsInt64());
  t.parent = static_cast<int>(v.Get("parent").AsInt64());
  t.num_buckets = v.Get("buckets").AsUint64();
  t.occupied = v.Get("occupied").AsUint64();
  t.occupied_hwm = v.Get("occupied_hwm").AsUint64();
  t.probes = v.Get("probes").AsUint64();
  t.inserts = v.Get("inserts").AsUint64();
  t.updates = v.Get("updates").AsUint64();
  t.collisions = v.Get("collisions").AsUint64();
  t.intra_evictions = v.Get("intra_evictions").AsUint64();
  t.flush_evictions = v.Get("flush_evictions").AsUint64();
  t.hfta_transfers = v.Get("hfta_transfers").AsUint64();
  t.flushed_entries = v.Get("flushed_entries").AsUint64();
  t.observed_collision_rate = v.Get("x_observed").AsDouble();
  t.predicted_collision_rate = v.Has("x_predicted")
                                   ? v.Get("x_predicted").AsDouble()
                                   : TableTelemetry::kNoPrediction;
  t.flush_occupancy = HistogramFromJson(v.Get("flush_occupancy"));
  return t;
}

JsonValue ReplanToJson(const ReplanEvent& e) {
  JsonValue out = JsonValue::Object();
  out.Set("epoch", JsonValue::Number(e.epoch));
  out.Set("trigger_relation", JsonValue::Str(e.trigger_relation));
  out.Set("drift", JsonValue::Number(e.drift));
  out.Set("replanned_nodes",
          JsonValue::Number(static_cast<int64_t>(e.replanned_nodes)));
  out.Set("pinned_nodes",
          JsonValue::Number(static_cast<int64_t>(e.pinned_nodes)));
  out.Set("optimize_millis", JsonValue::Number(e.optimize_millis));
  out.Set("merge_millis", JsonValue::Number(e.merge_millis));
  return out;
}

ReplanEvent ReplanFromJson(const JsonValue& v) {
  ReplanEvent e;
  e.epoch = v.Get("epoch").AsUint64();
  e.trigger_relation = v.Get("trigger_relation").AsString();
  e.drift = v.Get("drift").AsDouble();
  e.replanned_nodes = static_cast<int>(v.Get("replanned_nodes").AsInt64());
  e.pinned_nodes = static_cast<int>(v.Get("pinned_nodes").AsInt64());
  e.optimize_millis = v.Get("optimize_millis").AsDouble();
  // Absent in events serialized before swap-latency tracking.
  if (v.Has("merge_millis")) e.merge_millis = v.Get("merge_millis").AsDouble();
  return e;
}

JsonValue ChurnToJson(const QueryChurnEvent& e) {
  JsonValue out = JsonValue::Object();
  out.Set("epoch", JsonValue::Number(e.epoch));
  // A string action keeps the export greppable (CI churn drill).
  out.Set("action", JsonValue::Str(e.add ? "add" : "drop"));
  out.Set("query_id", JsonValue::Number(static_cast<int64_t>(e.query_id)));
  out.Set("relation", JsonValue::Str(e.relation));
  out.Set("grafted", JsonValue::Bool(e.grafted));
  out.Set("aliased", JsonValue::Bool(e.aliased));
  out.Set("replanned_nodes",
          JsonValue::Number(static_cast<int64_t>(e.replanned_nodes)));
  out.Set("pinned_nodes",
          JsonValue::Number(static_cast<int64_t>(e.pinned_nodes)));
  out.Set("optimize_millis", JsonValue::Number(e.optimize_millis));
  out.Set("merge_millis", JsonValue::Number(e.merge_millis));
  return out;
}

QueryChurnEvent ChurnFromJson(const JsonValue& v) {
  QueryChurnEvent e;
  e.epoch = v.Get("epoch").AsUint64();
  e.add = v.Get("action").AsString() == "add";
  e.query_id = static_cast<int>(v.Get("query_id").AsInt64());
  e.relation = v.Get("relation").AsString();
  e.grafted = v.Get("grafted").AsBool();
  e.aliased = v.Get("aliased").AsBool();
  e.replanned_nodes = static_cast<int>(v.Get("replanned_nodes").AsInt64());
  e.pinned_nodes = static_cast<int>(v.Get("pinned_nodes").AsInt64());
  e.optimize_millis = v.Get("optimize_millis").AsDouble();
  e.merge_millis = v.Get("merge_millis").AsDouble();
  return e;
}

JsonValue SheddingToJson(const SheddingTelemetry& s) {
  JsonValue out = JsonValue::Object();
  out.Set("enabled", JsonValue::Bool(s.enabled));
  out.Set("target_fraction", JsonValue::Number(s.target_fraction));
  out.Set("offered_records", JsonValue::Number(s.offered_records));
  out.Set("shed_probes", JsonValue::Number(s.shed_probes));
  out.Set("shed_fraction", JsonValue::Number(s.shed_fraction));
  out.Set("accuracy_loss", JsonValue::Number(s.accuracy_loss));
  out.Set("cycles_saved_per_record",
          JsonValue::Number(s.cycles_saved_per_record));
  out.Set("rebalances", JsonValue::Number(s.rebalances));
  JsonValue relations = JsonValue::Array();
  for (const SheddingRelationTelemetry& r : s.relations) {
    JsonValue obj = JsonValue::Object();
    obj.Set("relation", JsonValue::Str(r.relation));
    obj.Set("price", JsonValue::Number(r.price));
    obj.Set("shed_fraction", JsonValue::Number(r.shed_fraction));
    obj.Set("shed_records", JsonValue::Number(r.shed_records));
    relations.Append(std::move(obj));
  }
  out.Set("relations", std::move(relations));
  return out;
}

SheddingTelemetry SheddingFromJson(const JsonValue& v) {
  SheddingTelemetry s;
  s.enabled = v.Get("enabled").AsBool();
  s.target_fraction = v.Get("target_fraction").AsDouble();
  s.offered_records = v.Get("offered_records").AsUint64();
  s.shed_probes = v.Get("shed_probes").AsUint64();
  s.shed_fraction = v.Get("shed_fraction").AsDouble();
  s.accuracy_loss = v.Get("accuracy_loss").AsDouble();
  s.cycles_saved_per_record = v.Get("cycles_saved_per_record").AsDouble();
  s.rebalances = v.Get("rebalances").AsUint64();
  const JsonValue& relations = v.Get("relations");
  for (size_t i = 0; i < relations.size(); ++i) {
    const JsonValue& obj = relations.at(i);
    SheddingRelationTelemetry r;
    r.relation = obj.Get("relation").AsString();
    r.price = obj.Get("price").AsDouble();
    r.shed_fraction = obj.Get("shed_fraction").AsDouble();
    r.shed_records = obj.Get("shed_records").AsUint64();
    s.relations.push_back(std::move(r));
  }
  return s;
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
  num_buckets += other.num_buckets;
  occupied += other.occupied;
  // Summed per-replica peaks: an upper bound on simultaneous occupancy
  // across replicas (shards peak at different moments).
  occupied_hwm += other.occupied_hwm;
  probes += other.probes;
  inserts += other.inserts;
  updates += other.updates;
  collisions += other.collisions;
  intra_evictions += other.intra_evictions;
  flush_evictions += other.flush_evictions;
  hfta_transfers += other.hfta_transfers;
  flushed_entries += other.flushed_entries;
  flush_occupancy.Merge(other.flush_occupancy);
  observed_collision_rate =
      probes == 0 ? 0.0
                  : static_cast<double>(collisions) /
                        static_cast<double>(probes);
}

void SheddingTelemetry::MergeFrom(const SheddingTelemetry& other) {
  enabled = enabled || other.enabled;
  target_fraction = std::max(target_fraction, other.target_fraction);
  offered_records += other.offered_records;
  shed_probes += other.shed_probes;
  accuracy_loss = std::max(accuracy_loss, other.accuracy_loss);
  cycles_saved_per_record =
      std::max(cycles_saved_per_record, other.cycles_saved_per_record);
  rebalances += other.rebalances;
  if (relations.size() < other.relations.size()) {
    relations.resize(other.relations.size());
  }
  const size_t num_relations = relations.size();
  for (size_t i = 0; i < other.relations.size(); ++i) {
    if (relations[i].relation.empty()) {
      relations[i] = other.relations[i];
    } else {
      relations[i].shed_records += other.relations[i].shed_records;
    }
  }
  // Realized overall fraction over the summed counts.
  shed_fraction =
      offered_records == 0 || num_relations == 0
          ? 0.0
          : static_cast<double>(shed_probes) /
                (static_cast<double>(offered_records) *
                 static_cast<double>(num_relations));
}

void TelemetrySnapshot::MergeFrom(const TelemetrySnapshot& other) {
  epoch = std::max(epoch, other.epoch);
  num_shards += other.num_shards;
  // Shard replicas share one ingest front end: producers do not add up the
  // way shard replicas do.
  num_producers = std::max(num_producers, other.num_producers);
  reoptimizations = std::max(reoptimizations, other.reoptimizations);
  counters.Add(other.counters);
  if (tables.size() < other.tables.size()) tables.resize(other.tables.size());
  for (size_t i = 0; i < other.tables.size(); ++i) {
    if (tables[i].relation.empty()) {
      tables[i] = other.tables[i];
    } else {
      tables[i].MergeFrom(other.tables[i]);
    }
  }
  shards.insert(shards.end(), other.shards.begin(), other.shards.end());
  producers.insert(producers.end(), other.producers.begin(),
                   other.producers.end());
  // Re-plan history is engine-level: shard replicas never carry any, so
  // concatenation is the identity there and a plain union otherwise.
  replans.insert(replans.end(), other.replans.begin(), other.replans.end());
  // Churn history is engine-level like the re-plan history.
  query_churn.insert(query_churn.end(), other.query_churn.begin(),
                     other.query_churn.end());
  // Shedding is engine-level too: replicas carry a disabled (empty) view,
  // which merges as the identity.
  shedding.MergeFrom(other.shedding);
  if (hfta_groups.size() < other.hfta_groups.size()) {
    hfta_groups.resize(other.hfta_groups.size());
  }
  for (size_t q = 0; q < other.hfta_groups.size(); ++q) {
    hfta_groups[q] += other.hfta_groups[q];
  }
  batch_records.Merge(other.batch_records);
  batch_ns.Merge(other.batch_ns);
  flush_ns.Merge(other.flush_ns);
  epoch_gap_ns.Merge(other.epoch_gap_ns);
}

std::string TelemetrySnapshot::ToJsonLine() const {
  JsonValue root = JsonValue::Object();
  root.Set("epoch", JsonValue::Number(epoch));
  root.Set("num_shards", JsonValue::Number(static_cast<int64_t>(num_shards)));
  root.Set("num_producers",
           JsonValue::Number(static_cast<int64_t>(num_producers)));
  root.Set("reoptimizations",
           JsonValue::Number(static_cast<int64_t>(reoptimizations)));
  root.Set("counters", CountersToJson(counters));
  JsonValue table_array = JsonValue::Array();
  for (const TableTelemetry& t : tables) table_array.Append(TableToJson(t));
  root.Set("tables", std::move(table_array));
  JsonValue shard_array = JsonValue::Array();
  for (const ShardTelemetry& s : shards) {
    JsonValue obj = JsonValue::Object();
    obj.Set("records", JsonValue::Number(s.records));
    obj.Set("queue_depth_hwm", JsonValue::Number(s.queue_depth_hwm));
    obj.Set("blocked_pushes", JsonValue::Number(s.blocked_pushes));
    obj.Set("cpu", JsonValue::Number(static_cast<int64_t>(s.cpu)));
    obj.Set("node", JsonValue::Number(static_cast<int64_t>(s.node)));
    shard_array.Append(std::move(obj));
  }
  root.Set("shards", std::move(shard_array));
  JsonValue producer_array = JsonValue::Array();
  for (const ProducerTelemetry& p : producers) {
    JsonValue obj = JsonValue::Object();
    obj.Set("records", JsonValue::Number(p.records));
    obj.Set("queue_depth_hwm", JsonValue::Number(p.queue_depth_hwm));
    obj.Set("blocked_pushes", JsonValue::Number(p.blocked_pushes));
    obj.Set("cpu", JsonValue::Number(static_cast<int64_t>(p.cpu)));
    obj.Set("node", JsonValue::Number(static_cast<int64_t>(p.node)));
    producer_array.Append(std::move(obj));
  }
  root.Set("producers", std::move(producer_array));
  JsonValue groups = JsonValue::Array();
  for (uint64_t g : hfta_groups) groups.Append(JsonValue::Number(g));
  root.Set("hfta_groups", std::move(groups));
  JsonValue replan_array = JsonValue::Array();
  for (const ReplanEvent& e : replans) replan_array.Append(ReplanToJson(e));
  root.Set("replans", std::move(replan_array));
  // The churn section exists only once a query was added or dropped.
  if (!query_churn.empty()) {
    JsonValue churn_array = JsonValue::Array();
    for (const QueryChurnEvent& e : query_churn) {
      churn_array.Append(ChurnToJson(e));
    }
    root.Set("query_churn", std::move(churn_array));
  }
  // The shedding section exists only when the overload controller does:
  // disabled engines (and telemetry_level kOff, which refuses the
  // controller) serialize no trace of it.
  if (shedding.enabled) root.Set("shedding", SheddingToJson(shedding));
  JsonValue histograms = JsonValue::Object();
  histograms.Set("batch_records", HistogramToJson(batch_records));
  histograms.Set("batch_ns", HistogramToJson(batch_ns));
  histograms.Set("flush_ns", HistogramToJson(flush_ns));
  histograms.Set("epoch_gap_ns", HistogramToJson(epoch_gap_ns));
  root.Set("histograms", std::move(histograms));
  return root.Dump();
}

Result<TelemetrySnapshot> TelemetrySnapshot::FromJsonLine(
    const std::string& line) {
  STREAMAGG_ASSIGN_OR_RETURN(JsonValue root, JsonValue::Parse(line));
  if (!root.is_object()) {
    return Status::InvalidArgument("telemetry snapshot must be a JSON object");
  }
  TelemetrySnapshot s;
  s.epoch = root.Get("epoch").AsUint64();
  s.num_shards = static_cast<int>(root.Get("num_shards").AsInt64());
  // Absent in snapshots serialized before the multi-producer front end.
  s.num_producers = root.Has("num_producers")
                        ? static_cast<int>(root.Get("num_producers").AsInt64())
                        : 1;
  s.reoptimizations = static_cast<int>(root.Get("reoptimizations").AsInt64());
  s.counters = CountersFromJson(root.Get("counters"));
  const JsonValue& table_array = root.Get("tables");
  for (size_t i = 0; i < table_array.size(); ++i) {
    s.tables.push_back(TableFromJson(table_array.at(i)));
  }
  const JsonValue& shard_array = root.Get("shards");
  for (size_t i = 0; i < shard_array.size(); ++i) {
    const JsonValue& obj = shard_array.at(i);
    ShardTelemetry shard;
    shard.records = obj.Get("records").AsUint64();
    shard.queue_depth_hwm = obj.Get("queue_depth_hwm").AsUint64();
    // Absent in snapshots serialized before the overload controller.
    if (obj.Has("blocked_pushes")) {
      shard.blocked_pushes = obj.Get("blocked_pushes").AsUint64();
    }
    // Placement fields are absent in pre-affinity snapshots.
    if (obj.Has("cpu")) shard.cpu = static_cast<int>(obj.Get("cpu").AsInt64());
    if (obj.Has("node")) {
      shard.node = static_cast<int>(obj.Get("node").AsInt64());
    }
    s.shards.push_back(shard);
  }
  if (root.Has("producers")) {
    const JsonValue& producer_array = root.Get("producers");
    for (size_t i = 0; i < producer_array.size(); ++i) {
      const JsonValue& obj = producer_array.at(i);
      ProducerTelemetry producer;
      producer.records = obj.Get("records").AsUint64();
      producer.queue_depth_hwm = obj.Get("queue_depth_hwm").AsUint64();
      // Absent in snapshots serialized before the overload controller.
      if (obj.Has("blocked_pushes")) {
        producer.blocked_pushes = obj.Get("blocked_pushes").AsUint64();
      }
      producer.cpu = static_cast<int>(obj.Get("cpu").AsInt64());
      producer.node = static_cast<int>(obj.Get("node").AsInt64());
      s.producers.push_back(producer);
    }
  }
  const JsonValue& groups = root.Get("hfta_groups");
  for (size_t q = 0; q < groups.size(); ++q) {
    s.hfta_groups.push_back(groups.at(q).AsUint64());
  }
  // Absent in snapshots serialized before drift-driven re-planning.
  if (root.Has("replans")) {
    const JsonValue& replan_array = root.Get("replans");
    for (size_t i = 0; i < replan_array.size(); ++i) {
      s.replans.push_back(ReplanFromJson(replan_array.at(i)));
    }
  }
  // Absent before query churn existed and while no churn happened.
  if (root.Has("query_churn")) {
    const JsonValue& churn_array = root.Get("query_churn");
    for (size_t i = 0; i < churn_array.size(); ++i) {
      s.query_churn.push_back(ChurnFromJson(churn_array.at(i)));
    }
  }
  // Absent whenever the overload controller was off (or pre-dates it).
  if (root.Has("shedding")) {
    s.shedding = SheddingFromJson(root.Get("shedding"));
  }
  const JsonValue& histograms = root.Get("histograms");
  s.batch_records = HistogramFromJson(histograms.Get("batch_records"));
  s.batch_ns = HistogramFromJson(histograms.Get("batch_ns"));
  s.flush_ns = HistogramFromJson(histograms.Get("flush_ns"));
  s.epoch_gap_ns = HistogramFromJson(histograms.Get("epoch_gap_ns"));
  return s;
}

std::string TelemetrySnapshot::ToTable() const {
  std::string out;
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer),
                "epoch %llu | shards %d | producers %d | re-plans %d | "
                "records %llu | epochs flushed %llu\n",
                static_cast<unsigned long long>(epoch), num_shards,
                num_producers, reoptimizations,
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
  if (!hfta_groups.empty()) {
    out += "hfta rows:";
    for (size_t q = 0; q < hfta_groups.size(); ++q) {
      std::snprintf(buffer, sizeof(buffer), " q%zu=%llu", q,
                    static_cast<unsigned long long>(hfta_groups[q]));
      out += buffer;
    }
    out += '\n';
  }
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
                  "accuracy loss %.4f | saves %.1f cyc/rec | rebalances %llu\n",
                  shedding.target_fraction,
                  static_cast<unsigned long long>(shedding.shed_probes),
                  static_cast<unsigned long long>(shedding.offered_records *
                                                  shedding.relations.size()),
                  shedding.shed_fraction, shedding.accuracy_loss,
                  shedding.cycles_saved_per_record,
                  static_cast<unsigned long long>(shedding.rebalances));
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
        std::snprintf(buffer, sizeof(buffer), " cpu=%d/node%d", shards[i].cpu,
                      shards[i].node);
        out += buffer;
      }
    }
    out += '\n';
  }
  if (!producers.empty()) {
    out += "producer ingest:";
    for (size_t i = 0; i < producers.size(); ++i) {
      std::snprintf(
          buffer, sizeof(buffer),
          " p%zu records=%llu queue_hwm=%llu blocked=%llu", i,
          static_cast<unsigned long long>(producers[i].records),
          static_cast<unsigned long long>(producers[i].queue_depth_hwm),
          static_cast<unsigned long long>(producers[i].blocked_pushes));
      out += buffer;
      if (producers[i].cpu >= 0) {
        std::snprintf(buffer, sizeof(buffer), " cpu=%d/node%d",
                      producers[i].cpu, producers[i].node);
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
  for (int q = 0; q < hfta.num_queries(); ++q) {
    s.hfta_groups.push_back(hfta.TotalGroups(q));
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
    const ShardIngestStats stats = runtime.shard_stats(i);
    ShardTelemetry shard;
    shard.records = stats.records;
    shard.queue_depth_hwm = stats.queue_depth_hwm;
    shard.blocked_pushes = stats.blocked_pushes;
    shard.cpu = layout.shard_cpu[static_cast<size_t>(i)];
    shard.node = layout.shard_node[static_cast<size_t>(i)];
    s.shards.push_back(shard);
  }
  s.num_producers = runtime.num_producers();
  for (int p = 0; p < runtime.num_producers(); ++p) {
    const ShardIngestStats stats = runtime.producer_stats(p);
    ProducerTelemetry producer;
    producer.records = stats.records;
    producer.queue_depth_hwm = stats.queue_depth_hwm;
    producer.blocked_pushes = stats.blocked_pushes;
    producer.cpu = layout.producer_cpu[static_cast<size_t>(p)];
    producer.node = layout.producer_node[static_cast<size_t>(p)];
    s.producers.push_back(producer);
  }
  // Every barrier drains the replica HFTAs into the results HFTA, which
  // holds the deduplicated per-query row counts.
  const Hfta& results = runtime.hfta();
  s.hfta_groups.assign(static_cast<size_t>(results.num_queries()), 0);
  for (int q = 0; q < results.num_queries(); ++q) {
    s.hfta_groups[static_cast<size_t>(q)] = results.TotalGroups(q);
  }
  return s;
}

}  // namespace streamagg
