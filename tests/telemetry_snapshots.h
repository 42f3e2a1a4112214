// Hand-built telemetry snapshots shared by the telemetry, OpenMetrics and
// export suites. Between them every serialized field holds a value other
// than its default (telemetry_export_test.cc checks that), so the JSON,
// OpenMetrics and table renderings of these two cover the whole schema.

#ifndef STREAMAGG_TESTS_TELEMETRY_SNAPSHOTS_H_
#define STREAMAGG_TESTS_TELEMETRY_SNAPSHOTS_H_

#include <cstdint>
#include <limits>

#include "obs/telemetry.h"

namespace streamagg {

/// Every section present: shards, re-plans, churn, shedding,
/// histograms, and one table with a prediction and one without.
inline TelemetrySnapshot HandCraftedSnapshot() {
  TelemetrySnapshot snap;
  snap.epoch = 41;
  snap.num_shards = 3;
  snap.reoptimizations = 2;
  snap.counters.records = (uint64_t{1} << 63) + 12345;  // Exceeds double.
  snap.counters.intra_probes = std::numeric_limits<uint64_t>::max();
  snap.counters.intra_transfers = 7;
  snap.counters.flush_probes = 1024;
  snap.counters.flush_transfers = 99;
  snap.counters.epochs_flushed = 41;

  TableTelemetry table;
  table.relation = "ABD";
  table.is_query = true;
  table.query_index = 2;
  table.parent = 0;
  table.num_buckets = 512;
  table.occupied = 100;
  table.occupied_hwm = 300;
  table.probes = 100000;
  table.inserts = 60000;
  table.updates = 30000;
  table.collisions = 10000;
  table.intra_evictions = 4000;
  table.flush_evictions = 6000;
  table.hfta_transfers = 10000;
  table.flushed_entries = 4100;
  table.flush_occupancy.Record(100);
  table.flush_occupancy.Record(120);
  table.observed_collision_rate = 0.1;
  table.predicted_collision_rate = 0.0875;
  snap.tables.push_back(table);
  table.relation = "BC";
  table.is_query = false;
  table.query_index = -1;
  table.predicted_collision_rate = TableTelemetry::kNoPrediction;
  snap.tables.push_back(table);

  snap.shards.push_back(ShardTelemetry{1000, 12, 7, 4, 0});
  snap.shards.push_back(ShardTelemetry{997, 3, 0, -1, -1});
  snap.hfta_groups = {123, 0, 456789};
  snap.hfta_bytes = {8448, 0, 37748736};
  snap.replans.push_back(ReplanEvent{40, "AB", 0.3125, 3, 2, 1.5, 0.75});
  snap.replans.push_back(ReplanEvent{41, "CD", 0.125, 1, 4, 0.25, 0.0});
  QueryChurnEvent add;
  add.epoch = 40;
  add.add = true;
  add.query_id = 3;
  add.relation = "BD";
  add.grafted = true;
  add.replanned_nodes = 2;
  add.pinned_nodes = 5;
  add.optimize_millis = 0.5;
  add.merge_millis = 0.125;
  snap.query_churn.push_back(add);
  QueryChurnEvent drop;
  drop.epoch = 41;
  drop.add = false;
  drop.query_id = 1;
  drop.relation = "AB";
  drop.aliased = true;
  snap.query_churn.push_back(drop);
  snap.shedding.enabled = true;
  snap.shedding.target_fraction = 0.5;
  snap.shedding.offered_records = 60000;
  snap.shedding.shed_probes = 45000;
  snap.shedding.shed_fraction = 0.375;
  snap.shedding.accuracy_loss = 0.25;
  snap.shedding.cycles_saved_per_record = 1.5;
  snap.shedding.relations.push_back(
      SheddingRelationTelemetry{"ABCD", 12.5, 0.5, 30000});
  snap.shedding.relations.push_back(
      SheddingRelationTelemetry{"CD", 3.25, 0.25, 15000});
  snap.batch_records.Record(64);
  snap.batch_ns.Record(123456);
  snap.flush_ns.Record(std::numeric_limits<uint64_t>::max());
  snap.epoch_gap_ns.Record(0);
  return snap;
}

/// The OpenMetrics suite's snapshot: nonzero `shed_probes`, and a relation
/// name that needs label escaping.
inline TelemetrySnapshot MakeSnapshot() {
  TelemetrySnapshot snap;
  snap.epoch = 41;
  snap.num_shards = 2;
  snap.reoptimizations = 2;
  snap.counters.records = (uint64_t{1} << 63) + 12345;  // Exceeds double.
  snap.counters.intra_probes = 100000;
  snap.counters.intra_transfers = 7;
  snap.counters.flush_probes = 1024;
  snap.counters.flush_transfers = 99;
  snap.counters.epochs_flushed = 41;
  snap.counters.shed_probes = 4500;

  TableTelemetry table;
  table.relation = "AB";
  table.is_query = true;
  table.query_index = 0;
  table.num_buckets = 512;
  table.occupied = 100;
  table.occupied_hwm = 300;
  table.probes = 100000;
  table.inserts = 60000;
  table.updates = 30000;
  table.collisions = 10000;
  table.observed_collision_rate = 0.1;
  table.predicted_collision_rate = 0.0875;
  snap.tables.push_back(table);
  table.relation = "BC";
  table.is_query = false;
  table.query_index = -1;
  table.predicted_collision_rate = TableTelemetry::kNoPrediction;
  snap.tables.push_back(table);

  snap.shards.push_back(ShardTelemetry{1000, 12, 7, 4, 0});
  snap.shards.push_back(ShardTelemetry{997, 3, 0, -1, -1});
  snap.hfta_groups = {123, 456789};

  snap.shedding.enabled = true;
  snap.shedding.target_fraction = 0.5;
  snap.shedding.offered_records = 60000;
  snap.shedding.shed_probes = 4500;
  snap.shedding.shed_fraction = 0.375;
  snap.shedding.accuracy_loss = 0.25;
  snap.shedding.cycles_saved_per_record = 1.5;
  snap.shedding.relations.push_back(
      SheddingRelationTelemetry{"ABCD", 12.5, 0.5, 30000});
  snap.shedding.relations.push_back(
      SheddingRelationTelemetry{"C\"D\\E", 3.25, 0.25, 15000});

  snap.batch_records.Record(64);
  snap.batch_records.Record(3);
  snap.batch_ns.Record(123456);
  snap.epoch_gap_ns.Record(0);
  return snap;
}

}  // namespace streamagg

#endif  // STREAMAGG_TESTS_TELEMETRY_SNAPSHOTS_H_
