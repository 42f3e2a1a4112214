#include "obs/openmetrics.h"

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace streamagg {
namespace {

std::string FormatUint(uint64_t v) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "%" PRIu64, v);
  return buffer;
}

std::string FormatDouble(double v) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  return buffer;
}

/// Escapes a label value per the OpenMetrics ABNF: backslash, double quote,
/// and line feed must be backslash-escaped.
std::string EscapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

/// One sample of a family: an optional `{label="value",...}` suffix (already
/// rendered, empty for unlabeled samples) and the rendered value.
struct Sample {
  std::string labels;
  std::string value;
};

std::string Label(const char* name, const std::string& value) {
  return std::string("{") + name + "=\"" + EscapeLabelValue(value) + "\"}";
}

std::string Label(const char* name, uint64_t value) {
  return std::string("{") + name + "=\"" + FormatUint(value) + "\"}";
}

/// Emits one metric family: TYPE/HELP metadata followed by all its samples.
/// OpenMetrics requires the samples of a family to be contiguous, counters
/// to expose a `_total`-suffixed sample name, and metadata to precede the
/// samples — this helper is the single place those rules are enforced.
void EmitFamily(std::string* out, const char* name, const char* type,
                const char* help, const std::vector<Sample>& samples) {
  if (samples.empty()) return;
  const bool counter = std::string(type) == "counter";
  *out += "# TYPE ";
  *out += name;
  *out += ' ';
  *out += type;
  *out += '\n';
  *out += "# HELP ";
  *out += name;
  *out += ' ';
  *out += help;
  *out += '\n';
  for (const Sample& s : samples) {
    *out += name;
    if (counter) *out += "_total";
    *out += s.labels;
    *out += ' ';
    *out += s.value;
    *out += '\n';
  }
}

void EmitCounter(std::string* out, const char* name, const char* help,
                 uint64_t value) {
  EmitFamily(out, name, "counter", help, {{"", FormatUint(value)}});
}

void EmitGauge(std::string* out, const char* name, const char* help,
               double value) {
  EmitFamily(out, name, "gauge", help, {{"", FormatDouble(value)}});
}

void EmitGauge(std::string* out, const char* name, const char* help,
               uint64_t value) {
  EmitFamily(out, name, "gauge", help, {{"", FormatUint(value)}});
}

/// Exposes a LogHistogram as an OpenMetrics histogram: cumulative
/// `_bucket{le="..."}` samples at the log2 bucket upper bounds (only up to
/// the highest occupied bucket — the tail adds no information), a mandatory
/// `le="+Inf"` bucket equal to the total count, then `_count` and `_sum`.
void EmitHistogram(std::string* out, const char* name, const char* help,
                   const LogHistogram& h) {
  *out += "# TYPE ";
  *out += name;
  *out += " histogram\n";
  *out += "# HELP ";
  *out += name;
  *out += ' ';
  *out += help;
  *out += '\n';
  int highest = -1;
  for (int b = 0; b < LogHistogram::kNumBuckets; ++b) {
    if (h.bucket_count(b) > 0) highest = b;
  }
  uint64_t cumulative = 0;
  for (int b = 0; b <= highest; ++b) {
    cumulative += h.bucket_count(b);
    *out += name;
    *out += "_bucket{le=\"";
    *out += FormatUint(LogHistogram::BucketUpperBound(b));
    *out += "\"} ";
    *out += FormatUint(cumulative);
    *out += '\n';
  }
  *out += name;
  *out += "_bucket{le=\"+Inf\"} ";
  *out += FormatUint(h.count());
  *out += '\n';
  *out += name;
  *out += "_count ";
  *out += FormatUint(h.count());
  *out += '\n';
  *out += name;
  *out += "_sum ";
  *out += FormatUint(h.sum());
  *out += '\n';
}

/// Collects one labeled uint64 sample per table into a family.
template <typename Getter>
std::vector<Sample> PerTable(const std::vector<TableTelemetry>& tables,
                             Getter getter) {
  std::vector<Sample> samples;
  samples.reserve(tables.size());
  for (const TableTelemetry& t : tables) {
    samples.push_back({Label("relation", t.relation), getter(t)});
  }
  return samples;
}

}  // namespace

std::string TelemetryToOpenMetrics(const TelemetrySnapshot& snapshot) {
  std::string out;
  out.reserve(8192);

  // Engine-level gauges and lifetime counters (JSON: top level + counters.*).
  EmitGauge(&out, "streamagg_epoch", "Epoch the snapshot was captured in.",
            snapshot.epoch);
  EmitGauge(&out, "streamagg_shards", "Shard replicas of the runtime.",
            static_cast<uint64_t>(snapshot.num_shards));
  EmitGauge(&out, "streamagg_producers", "Ingest producer threads.",
            static_cast<uint64_t>(snapshot.num_producers));
  EmitCounter(&out, "streamagg_reoptimizations",
              "Adaptive re-plans applied so far.",
              static_cast<uint64_t>(snapshot.reoptimizations));
  EmitCounter(&out, "streamagg_records", "Stream records processed.",
              snapshot.counters.records);
  EmitCounter(&out, "streamagg_intra_probes",
              "Hash-table probes during epochs.",
              snapshot.counters.intra_probes);
  EmitCounter(&out, "streamagg_intra_transfers",
              "LFTA-to-HFTA evictions during epochs.",
              snapshot.counters.intra_transfers);
  EmitCounter(&out, "streamagg_flush_probes",
              "Probes during end-of-epoch flushes.",
              snapshot.counters.flush_probes);
  EmitCounter(&out, "streamagg_flush_transfers",
              "Transfers during end-of-epoch flushes.",
              snapshot.counters.flush_transfers);
  EmitCounter(&out, "streamagg_epochs_flushed", "Epoch flushes completed.",
              snapshot.counters.epochs_flushed);
  EmitCounter(&out, "streamagg_shed_probes",
              "Raw-relation probes skipped by the shed plan.",
              snapshot.counters.shed_probes);

  // Per-table families (JSON: tables[]).
  const auto& tables = snapshot.tables;
  EmitFamily(&out, "streamagg_table_buckets", "gauge",
             "Configured hash buckets of the LFTA table.",
             PerTable(tables, [](const TableTelemetry& t) {
               return FormatUint(t.num_buckets);
             }));
  EmitFamily(&out, "streamagg_table_occupied", "gauge",
             "Occupied buckets right now.",
             PerTable(tables, [](const TableTelemetry& t) {
               return FormatUint(t.occupied);
             }));
  EmitFamily(&out, "streamagg_table_occupied_hwm", "gauge",
             "Highest occupancy ever reached.",
             PerTable(tables, [](const TableTelemetry& t) {
               return FormatUint(t.occupied_hwm);
             }));
  EmitFamily(&out, "streamagg_table_probes", "counter",
             "Probes against the table.",
             PerTable(tables, [](const TableTelemetry& t) {
               return FormatUint(t.probes);
             }));
  EmitFamily(&out, "streamagg_table_inserts", "counter",
             "Probes that created a new group.",
             PerTable(tables, [](const TableTelemetry& t) {
               return FormatUint(t.inserts);
             }));
  EmitFamily(&out, "streamagg_table_updates", "counter",
             "Probes that updated an existing group.",
             PerTable(tables, [](const TableTelemetry& t) {
               return FormatUint(t.updates);
             }));
  EmitFamily(&out, "streamagg_table_collisions", "counter",
             "Probes that evicted a resident group.",
             PerTable(tables, [](const TableTelemetry& t) {
               return FormatUint(t.collisions);
             }));
  EmitFamily(&out, "streamagg_table_intra_evictions", "counter",
             "Collision evictions attributed to the relation.",
             PerTable(tables, [](const TableTelemetry& t) {
               return FormatUint(t.intra_evictions);
             }));
  EmitFamily(&out, "streamagg_table_flush_evictions", "counter",
             "Epoch-flush evictions attributed to the relation.",
             PerTable(tables, [](const TableTelemetry& t) {
               return FormatUint(t.flush_evictions);
             }));
  EmitFamily(&out, "streamagg_table_hfta_transfers", "counter",
             "Groups the relation shipped to the HFTA.",
             PerTable(tables, [](const TableTelemetry& t) {
               return FormatUint(t.hfta_transfers);
             }));
  EmitFamily(&out, "streamagg_table_flushed_entries", "counter",
             "Entries drained by epoch flushes.",
             PerTable(tables, [](const TableTelemetry& t) {
               return FormatUint(t.flushed_entries);
             }));
  {
    // Observed vs predicted collision rate, the paper's drift comparison,
    // distinguished by a `kind` label; the predicted sample is absent for
    // tables the planner never priced (kNoPrediction).
    std::vector<Sample> rates;
    for (const TableTelemetry& t : tables) {
      rates.push_back({"{relation=\"" + EscapeLabelValue(t.relation) +
                           "\",kind=\"observed\"}",
                       FormatDouble(t.observed_collision_rate)});
      if (t.has_prediction()) {
        rates.push_back({"{relation=\"" + EscapeLabelValue(t.relation) +
                             "\",kind=\"predicted\"}",
                         FormatDouble(t.predicted_collision_rate)});
      }
    }
    EmitFamily(&out, "streamagg_table_collision_rate", "gauge",
               "Collision rate, observed vs cost-model prediction.", rates);
  }

  // Per-shard and per-producer ingest families (JSON: shards[], producers[]).
  {
    std::vector<Sample> records, hwm, blocked;
    for (size_t s = 0; s < snapshot.shards.size(); ++s) {
      const ShardTelemetry& shard = snapshot.shards[s];
      records.push_back({Label("shard", s), FormatUint(shard.records)});
      hwm.push_back({Label("shard", s), FormatUint(shard.queue_depth_hwm)});
      blocked.push_back({Label("shard", s), FormatUint(shard.blocked_pushes)});
    }
    EmitFamily(&out, "streamagg_shard_records", "counter",
               "Records routed to the shard.", records);
    EmitFamily(&out, "streamagg_shard_queue_depth_hwm", "gauge",
               "Deepest queue backlog seen by the shard.", hwm);
    EmitFamily(&out, "streamagg_shard_blocked_pushes", "counter",
               "Envelope pushes that found the shard's queues full.", blocked);
  }
  {
    std::vector<Sample> records, hwm, blocked;
    for (size_t p = 0; p < snapshot.producers.size(); ++p) {
      const ProducerTelemetry& producer = snapshot.producers[p];
      records.push_back({Label("producer", p), FormatUint(producer.records)});
      hwm.push_back(
          {Label("producer", p), FormatUint(producer.queue_depth_hwm)});
      blocked.push_back(
          {Label("producer", p), FormatUint(producer.blocked_pushes)});
    }
    EmitFamily(&out, "streamagg_producer_records", "counter",
               "Records the producer routed anywhere.", records);
    EmitFamily(&out, "streamagg_producer_queue_depth_hwm", "gauge",
               "Deepest backlog across the producer's queue row.", hwm);
    EmitFamily(&out, "streamagg_producer_blocked_pushes", "counter",
               "Pushes across the producer's row that found a queue full.",
               blocked);
  }

  // HFTA result-set sizes per query (JSON: hfta_groups[]).
  {
    std::vector<Sample> groups;
    for (size_t q = 0; q < snapshot.hfta_groups.size(); ++q) {
      groups.push_back({Label("query", q), FormatUint(snapshot.hfta_groups[q])});
    }
    EmitFamily(&out, "streamagg_hfta_groups", "gauge",
               "Result rows held in the HFTA per query.", groups);
  }

  // Overload-controller families (JSON: shedding.*); only the enabled flag
  // is exported for engines running without the controller.
  const SheddingTelemetry& shed = snapshot.shedding;
  EmitGauge(&out, "streamagg_shedding_enabled",
            "1 when the overload controller is attached.",
            static_cast<uint64_t>(shed.enabled ? 1 : 0));
  if (shed.enabled) {
    EmitGauge(&out, "streamagg_shedding_target_fraction",
              "Overall shed target the controller is holding.",
              shed.target_fraction);
    EmitGauge(&out, "streamagg_shedding_shed_fraction",
              "Realized overall shed fraction.", shed.shed_fraction);
    EmitGauge(&out, "streamagg_shedding_accuracy_loss",
              "Estimated degraded fraction of the query surface.",
              shed.accuracy_loss);
    EmitGauge(&out, "streamagg_shedding_cycles_saved_per_record",
              "Eq-7 cycles the current plan saves per offered record.",
              shed.cycles_saved_per_record);
    EmitCounter(&out, "streamagg_shedding_offered_records",
                "Records offered to the engine pre-shedding.",
                shed.offered_records);
    std::vector<Sample> price, fraction, dropped;
    for (const SheddingRelationTelemetry& r : shed.relations) {
      price.push_back({Label("relation", r.relation), FormatDouble(r.price)});
      fraction.push_back(
          {Label("relation", r.relation), FormatDouble(r.shed_fraction)});
      dropped.push_back(
          {Label("relation", r.relation), FormatUint(r.shed_records)});
    }
    EmitFamily(&out, "streamagg_shedding_relation_price", "gauge",
               "Eq-7 cycles one shed record saves at the relation's probe.",
               price);
    EmitFamily(&out, "streamagg_shedding_relation_shed_fraction", "gauge",
               "Planned shed fraction at the relation.", fraction);
    EmitFamily(&out, "streamagg_shedding_relation_shed_records", "counter",
               "Probes actually dropped at the relation.", dropped);
  }

  // Latency histograms (JSON: histograms.*; empty below the kFull tier).
  EmitHistogram(&out, "streamagg_batch_records",
                "Records per ProcessBatch call, sampled on 1 call in 64.",
                snapshot.batch_records);
  EmitHistogram(&out, "streamagg_batch_ns",
                "Wall-clock nanoseconds per ProcessBatch call, sampled on 1 "
                "call in 64.",
                snapshot.batch_ns);
  EmitHistogram(&out, "streamagg_flush_ns",
                "Wall-clock nanoseconds per epoch flush.", snapshot.flush_ns);
  EmitHistogram(&out, "streamagg_epoch_gap_ns",
                "Wall-clock nanoseconds between epoch flushes.",
                snapshot.epoch_gap_ns);

  out += "# EOF\n";
  return out;
}

}  // namespace streamagg
