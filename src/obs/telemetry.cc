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

// FromJsonLine's one rule, applied by Read: a member takes the value at
// `key` when the key is present and keeps its default otherwise, so a line
// from an older (or newer) build restores what it carries and nothing else.
// Every struct reader fills a default-constructed object.
void ReadValue(const JsonValue& v, uint64_t* out) { *out = v.AsUint64(); }
void ReadValue(const JsonValue& v, int* out) {
  *out = static_cast<int>(v.AsInt64());
}
void ReadValue(const JsonValue& v, double* out) { *out = v.AsDouble(); }
void ReadValue(const JsonValue& v, bool* out) { *out = v.AsBool(); }
void ReadValue(const JsonValue& v, std::string* out) { *out = v.AsString(); }
void ReadValue(const JsonValue& v, LogHistogram* out);
void ReadValue(const JsonValue& v, RuntimeCounters* out);
void ReadValue(const JsonValue& v, TableTelemetry* out);
void ReadValue(const JsonValue& v, ShardTelemetry* out);
void ReadValue(const JsonValue& v, ProducerTelemetry* out);
void ReadValue(const JsonValue& v, ReplanEvent* out);
void ReadValue(const JsonValue& v, QueryChurnEvent* out);
void ReadValue(const JsonValue& v, SheddingRelationTelemetry* out);
void ReadValue(const JsonValue& v, SheddingTelemetry* out);

/// One element per array entry, each read into a default-constructed T.
template <typename T>
void ReadValue(const JsonValue& v, std::vector<T>* out) {
  out->assign(v.size(), T{});
  for (size_t i = 0; i < v.size(); ++i) ReadValue(v.at(i), &(*out)[i]);
}

template <typename T>
void Read(const JsonValue& object, const char* key, T* out) {
  if (object.Has(key)) ReadValue(object.Get(key), out);
}

void ReadValue(const JsonValue& v, LogHistogram* out) {
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
  *out = LogHistogram::FromRaw(counts, v.Get("count").AsUint64(),
                               v.Get("sum").AsUint64(),
                               v.Get("min").AsUint64(),
                               v.Get("max").AsUint64());
}

void ReadValue(const JsonValue& v, RuntimeCounters* c) {
  Read(v, "records", &c->records);
  Read(v, "intra_probes", &c->intra_probes);
  Read(v, "intra_transfers", &c->intra_transfers);
  Read(v, "flush_probes", &c->flush_probes);
  Read(v, "flush_transfers", &c->flush_transfers);
  Read(v, "epochs_flushed", &c->epochs_flushed);
  Read(v, "shed_probes", &c->shed_probes);
}

void ReadValue(const JsonValue& v, TableTelemetry* t) {
  Read(v, "relation", &t->relation);
  Read(v, "is_query", &t->is_query);
  Read(v, "query_index", &t->query_index);
  Read(v, "parent", &t->parent);
  Read(v, "buckets", &t->num_buckets);
  Read(v, "occupied", &t->occupied);
  Read(v, "occupied_hwm", &t->occupied_hwm);
  Read(v, "probes", &t->probes);
  Read(v, "inserts", &t->inserts);
  Read(v, "updates", &t->updates);
  Read(v, "collisions", &t->collisions);
  Read(v, "intra_evictions", &t->intra_evictions);
  Read(v, "flush_evictions", &t->flush_evictions);
  Read(v, "hfta_transfers", &t->hfta_transfers);
  Read(v, "flushed_entries", &t->flushed_entries);
  Read(v, "x_observed", &t->observed_collision_rate);
  Read(v, "x_predicted", &t->predicted_collision_rate);
  Read(v, "flush_occupancy", &t->flush_occupancy);
}

void ReadValue(const JsonValue& v, ShardTelemetry* shard) {
  Read(v, "records", &shard->records);
  Read(v, "queue_depth_hwm", &shard->queue_depth_hwm);
  Read(v, "blocked_pushes", &shard->blocked_pushes);
  Read(v, "cpu", &shard->cpu);
  Read(v, "node", &shard->node);
}

void ReadValue(const JsonValue& v, ProducerTelemetry* producer) {
  Read(v, "records", &producer->records);
  Read(v, "queue_depth_hwm", &producer->queue_depth_hwm);
  Read(v, "blocked_pushes", &producer->blocked_pushes);
  Read(v, "cpu", &producer->cpu);
  Read(v, "node", &producer->node);
}

void ReadValue(const JsonValue& v, ReplanEvent* e) {
  Read(v, "epoch", &e->epoch);
  Read(v, "trigger_relation", &e->trigger_relation);
  Read(v, "drift", &e->drift);
  Read(v, "replanned_nodes", &e->replanned_nodes);
  Read(v, "pinned_nodes", &e->pinned_nodes);
  Read(v, "optimize_millis", &e->optimize_millis);
  Read(v, "merge_millis", &e->merge_millis);
}

void ReadValue(const JsonValue& v, QueryChurnEvent* e) {
  Read(v, "epoch", &e->epoch);
  std::string action = e->add ? "add" : "drop";
  Read(v, "action", &action);
  e->add = action == "add";
  Read(v, "query_id", &e->query_id);
  Read(v, "relation", &e->relation);
  Read(v, "grafted", &e->grafted);
  Read(v, "aliased", &e->aliased);
  Read(v, "replanned_nodes", &e->replanned_nodes);
  Read(v, "pinned_nodes", &e->pinned_nodes);
  Read(v, "optimize_millis", &e->optimize_millis);
  Read(v, "merge_millis", &e->merge_millis);
}

void ReadValue(const JsonValue& v, SheddingRelationTelemetry* r) {
  Read(v, "relation", &r->relation);
  Read(v, "price", &r->price);
  Read(v, "shed_fraction", &r->shed_fraction);
  Read(v, "shed_records", &r->shed_records);
}

void ReadValue(const JsonValue& v, SheddingTelemetry* s) {
  Read(v, "enabled", &s->enabled);
  Read(v, "target_fraction", &s->target_fraction);
  Read(v, "offered_records", &s->offered_records);
  Read(v, "shed_probes", &s->shed_probes);
  Read(v, "shed_fraction", &s->shed_fraction);
  Read(v, "accuracy_loss", &s->accuracy_loss);
  Read(v, "cycles_saved_per_record", &s->cycles_saved_per_record);
  Read(v, "relations", &s->relations);
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
  Read(root, "epoch", &s.epoch);
  Read(root, "num_shards", &s.num_shards);
  Read(root, "num_producers", &s.num_producers);
  Read(root, "reoptimizations", &s.reoptimizations);
  Read(root, "counters", &s.counters);
  Read(root, "tables", &s.tables);
  Read(root, "shards", &s.shards);
  Read(root, "producers", &s.producers);
  Read(root, "hfta_groups", &s.hfta_groups);
  Read(root, "replans", &s.replans);
  Read(root, "query_churn", &s.query_churn);
  Read(root, "shedding", &s.shedding);
  const JsonValue& histograms = root.Get("histograms");
  Read(histograms, "batch_records", &s.batch_records);
  Read(histograms, "batch_ns", &s.batch_ns);
  Read(histograms, "flush_ns", &s.flush_ns);
  Read(histograms, "epoch_gap_ns", &s.epoch_gap_ns);
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
