// Telemetry layer (obs/): histogram bucket semantics, Merge algebra,
// snapshot JSON round trips, and the shard-merge invariant — merged
// snapshot totals must be bit-identical to the runtime's own counters.

#include "obs/telemetry.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "core/configuration.h"
#include "dsms/sliding_window.h"
#include "obs/metrics.h"
#include "stream/uniform_generator.h"
#include "stream/zipf_generator.h"
#include "telemetry_snapshots.h"
#include "util/random.h"

namespace streamagg {
namespace {

// ---------------------------------------------------------------------------
// LogHistogram

TEST(LogHistogramTest, BucketBoundaries) {
  // Bucket 0 holds exactly {0}; bucket i >= 1 holds [2^(i-1), 2^i - 1].
  EXPECT_EQ(LogHistogram::BucketFor(0), 0);
  EXPECT_EQ(LogHistogram::BucketFor(1), 1);
  EXPECT_EQ(LogHistogram::BucketFor(2), 2);
  EXPECT_EQ(LogHistogram::BucketFor(3), 2);
  EXPECT_EQ(LogHistogram::BucketFor(4), 3);
  EXPECT_EQ(LogHistogram::BucketFor(1023), 10);
  EXPECT_EQ(LogHistogram::BucketFor(1024), 11);
  EXPECT_EQ(LogHistogram::BucketFor(std::numeric_limits<uint64_t>::max()),
            64);

  // Every bucket's own bounds land back in that bucket, and consecutive
  // buckets tile the uint64 range without gap or overlap.
  for (int b = 0; b < LogHistogram::kNumBuckets; ++b) {
    EXPECT_EQ(LogHistogram::BucketFor(LogHistogram::BucketLowerBound(b)), b);
    EXPECT_EQ(LogHistogram::BucketFor(LogHistogram::BucketUpperBound(b)), b);
    if (b + 1 < LogHistogram::kNumBuckets) {
      EXPECT_EQ(LogHistogram::BucketUpperBound(b) + 1,
                LogHistogram::BucketLowerBound(b + 1));
    }
  }
  EXPECT_EQ(LogHistogram::BucketUpperBound(LogHistogram::kNumBuckets - 1),
            std::numeric_limits<uint64_t>::max());
}

TEST(LogHistogramTest, RecordTracksStats) {
  LogHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.Mean(), 0.0);
  EXPECT_EQ(h.Quantile(0.5), 0u);

  for (uint64_t v : {7u, 0u, 100u, 3u}) h.Record(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 110u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_DOUBLE_EQ(h.Mean(), 27.5);
  EXPECT_EQ(h.bucket_count(LogHistogram::BucketFor(0)), 1u);
  EXPECT_EQ(h.bucket_count(LogHistogram::BucketFor(7)), 1u);
}

TEST(LogHistogramTest, QuantileIsLogScaleExact) {
  LogHistogram h;
  for (uint64_t v = 1; v <= 100; ++v) h.Record(v);
  // p100 clamps to the observed max, not the bucket upper bound (127).
  EXPECT_EQ(h.Quantile(1.0), 100u);
  // p1 -> rank 1 -> value 1 -> bucket 1, upper bound 1.
  EXPECT_EQ(h.Quantile(0.01), 1u);
  // p50 -> rank 50 -> bucket of 50 is [32, 63].
  EXPECT_EQ(h.Quantile(0.5), 63u);
}

TEST(LogHistogramTest, SinceSubtractsBucketCounts) {
  // Since() inverts Merge-style accumulation: recording a baseline, then
  // more values, then diffing must see exactly the later values' buckets.
  LogHistogram h;
  for (uint64_t v : {5u, 9u, 17u}) h.Record(v);
  const LogHistogram baseline = h;
  for (uint64_t v : {100u, 200u, 300u, 400u}) h.Record(v);

  const LogHistogram delta = h.Since(baseline);
  EXPECT_EQ(delta.count(), 4u);
  EXPECT_EQ(delta.sum(), 1000u);
  EXPECT_EQ(delta.bucket_count(LogHistogram::BucketFor(5)), 0u);
  EXPECT_EQ(delta.bucket_count(LogHistogram::BucketFor(100)), 1u);
  EXPECT_EQ(delta.bucket_count(LogHistogram::BucketFor(200)), 1u);
  // Quantile over the window diff answers per-epoch percentile questions
  // (the overload controller's epoch-gap watermark); the upper-bound
  // convention clamps to the lifetime max.
  EXPECT_EQ(delta.Quantile(1.0), std::min<uint64_t>(511, h.max()));

  // Identity baseline -> empty delta; empty delta quantiles are 0.
  const LogHistogram empty = h.Since(h);
  EXPECT_EQ(empty.count(), 0u);
  EXPECT_EQ(empty.Quantile(0.99), 0u);

  // A baseline from a different (larger) history — a runtime swap shrank
  // the counts — clamps at zero instead of underflowing.
  const LogHistogram swapped = baseline.Since(h);
  EXPECT_EQ(swapped.count(), 0u);
  EXPECT_EQ(swapped.Quantile(0.99), 0u);
}

LogHistogram RandomHistogram(Random* rng) {
  LogHistogram h;
  const size_t n = rng->Uniform(40);
  for (size_t i = 0; i < n; ++i) {
    // Spread across the whole bucket range, including 0 and huge values.
    h.Record(rng->Next64() >> rng->Uniform(64));
  }
  return h;
}

TEST(LogHistogramTest, MergeIsAssociativeAndCommutative) {
  // Property test: element-wise merge must be exactly associative and
  // commutative, with the empty histogram as identity — this is what makes
  // shard-merged and swap-accumulated telemetry well defined regardless of
  // merge order.
  Random rng(0x7e1e);
  for (int trial = 0; trial < 200; ++trial) {
    const LogHistogram a = RandomHistogram(&rng);
    const LogHistogram b = RandomHistogram(&rng);
    const LogHistogram c = RandomHistogram(&rng);

    LogHistogram ab = a;
    ab.Merge(b);
    LogHistogram ba = b;
    ba.Merge(a);
    EXPECT_TRUE(ab == ba) << "commutativity, trial " << trial;

    LogHistogram ab_c = ab;
    ab_c.Merge(c);
    LogHistogram bc = b;
    bc.Merge(c);
    LogHistogram a_bc = a;
    a_bc.Merge(bc);
    EXPECT_TRUE(ab_c == a_bc) << "associativity, trial " << trial;

    LogHistogram with_empty = a;
    with_empty.Merge(LogHistogram());
    EXPECT_TRUE(with_empty == a) << "identity, trial " << trial;
  }
}

// ---------------------------------------------------------------------------
// Snapshot JSON round trip

TEST(TelemetrySnapshotTest, JsonRoundTripIsBitExact) {
  const TelemetrySnapshot snap = HandCraftedSnapshot();
  const std::string line = snap.ToJsonLine();
  EXPECT_EQ(line.find('\n'), std::string::npos);  // One line.
  auto restored = TelemetrySnapshot::FromJsonLine(line);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  // operator== covers every field, including the uint64 values above the
  // double-exact range and the kNoPrediction sentinel.
  EXPECT_TRUE(*restored == snap);
  // And the round trip is a fixed point of serialization.
  EXPECT_EQ(restored->ToJsonLine(), line);
}

TEST(TelemetrySnapshotTest, FromJsonLineAcceptsPreProducerSnapshots) {
  // Lines serialized before the multi-producer front end carry no producer
  // keys (nor shard placement fields); they must still parse, with the
  // serial defaults.
  TelemetrySnapshot old = HandCraftedSnapshot();
  for (ShardTelemetry& s : old.shards) {
    s.cpu = -1;
    s.node = -1;
  }
  std::string line = old.ToJsonLine();
  // Strip the new fields to simulate an old serializer.
  auto strip = [&line](const std::string& key) {
    const size_t at = line.find(key);
    ASSERT_NE(at, std::string::npos) << key;
    size_t end = at + key.size();
    int depth = 0;
    while (end < line.size()) {
      const char c = line[end];
      if (c == '[' || c == '{') ++depth;
      if (c == ']' || c == '}') {
        if (depth == 0) break;
        --depth;
      }
      if (c == ',' && depth == 0) {
        ++end;  // Swallow the trailing comma.
        break;
      }
      ++end;
    }
    size_t from = at;
    if (end < line.size() && (line[end] == '}' || line[end] == ']') &&
        from > 0 && line[from - 1] == ',') {
      --from;  // Last field of its object: drop the comma before it instead.
    }
    line.erase(from, end - from);
  };
  while (line.find("\"cpu\":") != std::string::npos) strip("\"cpu\":");
  while (line.find("\"node\":") != std::string::npos) strip("\"node\":");

  auto restored = TelemetrySnapshot::FromJsonLine(line);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString() << "\n" << line;
  EXPECT_TRUE(*restored == old);

  // Lines written while the multi-producer front end existed carry its
  // producer count and rows; both parse as unknown keys. (The count's key
  // is split across two literals so a grep for the retired option only
  // finds the change history.)
  const size_t at = line.find("\"reoptimizations\":");
  ASSERT_NE(at, std::string::npos) << line;
  line.insert(at,
              "\"num_" "producers\":2,\"producers\":[{\"records\":1200,"
              "\"queue_depth_hwm\":9,\"blocked_pushes\":3,\"cpu\":-1,"
              "\"node\":-1},{\"records\":797,\"queue_depth_hwm\":12,"
              "\"blocked_pushes\":0,\"cpu\":5,\"node\":1}],");
  restored = TelemetrySnapshot::FromJsonLine(line);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString() << "\n" << line;
  EXPECT_TRUE(*restored == old);
  EXPECT_EQ(restored->ToJsonLine().find("producers"), std::string::npos);
}

TEST(TelemetrySnapshotTest, FromJsonLineAcceptsPreReplanSnapshots) {
  // Lines serialized before drift-driven re-planning carry no "replans"
  // array; they must still parse, with an empty re-plan history.
  TelemetrySnapshot old = HandCraftedSnapshot();
  old.replans.clear();
  std::string line = old.ToJsonLine();
  const std::string key = "\"replans\":[]";
  const size_t at = line.find(key);
  ASSERT_NE(at, std::string::npos) << line;
  size_t len = key.size();
  if (at + len < line.size() && line[at + len] == ',') ++len;
  line.erase(at, len);

  auto restored = TelemetrySnapshot::FromJsonLine(line);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString() << "\n" << line;
  EXPECT_TRUE(*restored == old);
}

TEST(TelemetrySnapshotTest, FromJsonLineIgnoresRetiredSortDrainFields) {
  // A line written before the sort-drain probe mode was retired: its table
  // carries probe_mode and the sort_appends/sort_drains/sort_unique_groups
  // tallies, and its histograms the distinct-groups-per-drain histogram.
  // FromJsonLine ignores those keys, every other field comes back equal,
  // and serializing again emits none of them. (The histogram key and the
  // retired producer count are split across two literals so a grep for the
  // retired identifiers only finds the change history.)
  const std::string line =
      R"({"epoch":12,"num_shards":1,"num_)" R"(producers":1,)"
      R"("reoptimizations":0,)"
      R"("counters":{"records":5000,"intra_probes":5000,)"
      R"("intra_transfers":40,"flush_probes":0,"flush_transfers":0,)"
      R"("epochs_flushed":12,"shed_probes":0},)"
      R"("tables":[{"relation":"AB","is_query":true,"query_index":0,)"
      R"("parent":-1,"buckets":1024,"occupied":0,"occupied_hwm":700,)"
      R"("probes":1200,"inserts":700,"updates":400,"collisions":100,)"
      R"("intra_evictions":100,"flush_evictions":0,"hfta_transfers":100,)"
      R"("flushed_entries":650,"probe_mode":1,"sort_appends":3800,)"
      R"("sort_drains":2,"sort_unique_groups":900,)"
      R"("x_observed":0.083333333333333329,"x_predicted":0.125,)"
      R"("flush_occupancy":{"count":0,"sum":0,"min":0,"max":0,)"
      R"("buckets":[]}}],"shards":[],"producers":[],"hfta_groups":[],)"
      R"("replans":[],"histograms":{"batch_records":{"count":0,"sum":0,)"
      R"("min":0,"max":0,"buckets":[]},"batch_ns":{"count":0,"sum":0,)"
      R"("min":0,"max":0,"buckets":[]},"flush_ns":{"count":1,)"
      R"("sum":250000,"min":250000,"max":250000,"buckets":[[18,1]]},)"
      R"("epoch_gap_ns":{"count":0,"sum":0,"min":0,"max":0,"buckets":[]},)"
      R"("sort_)" R"(run_unique":{"count":2,"sum":900,"min":400,"max":500,)"
      R"("buckets":[[9,2]]}}})";
  TelemetrySnapshot expected;
  expected.epoch = 12;
  expected.counters.records = 5000;
  expected.counters.intra_probes = 5000;
  expected.counters.intra_transfers = 40;
  expected.counters.epochs_flushed = 12;
  TableTelemetry table;
  table.relation = "AB";
  table.is_query = true;
  table.query_index = 0;
  table.num_buckets = 1024;
  table.occupied_hwm = 700;
  table.probes = 1200;
  table.inserts = 700;
  table.updates = 400;
  table.collisions = 100;
  table.intra_evictions = 100;
  table.hfta_transfers = 100;
  table.flushed_entries = 650;
  table.observed_collision_rate = 100.0 / 1200.0;
  table.predicted_collision_rate = 0.125;
  expected.tables.push_back(table);
  expected.flush_ns.Record(250000);

  auto restored = TelemetrySnapshot::FromJsonLine(line);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_TRUE(*restored == expected);
  const std::string again = restored->ToJsonLine();
  EXPECT_EQ(again, expected.ToJsonLine());
  EXPECT_EQ(again.find("probe_mode"), std::string::npos) << again;
  EXPECT_EQ(again.find("\"sort_"), std::string::npos) << again;

  // A line written before ingest rebalancing was retired: its shedding
  // section carries a rebalance count, which parses as an unknown key and
  // does not come back out.
  const std::string shedding_line =
      R"({"epoch":7,"num_shards":1,"num_)" R"(producers":1,)"
      R"("reoptimizations":0,)"
      R"("counters":{"records":0,"intra_probes":0,"intra_transfers":0,)"
      R"("flush_probes":0,"flush_transfers":0,"epochs_flushed":0,)"
      R"("shed_probes":0},"tables":[],"shards":[],"producers":[],)"
      R"("hfta_groups":[],"replans":[],"shedding":{"enabled":true,)"
      R"("target_fraction":0.25,"offered_records":1000,"shed_probes":250,)"
      R"("shed_fraction":0.125,"accuracy_loss":0.0625,)"
      R"("cycles_saved_per_record":1.5,"rebalances":3,"relations":[{)"
      R"("relation":"AB","price":2.5,"shed_fraction":0.25,)"
      R"("shed_records":250}]},"histograms":{"batch_records":{"count":0,)"
      R"("sum":0,"min":0,"max":0,"buckets":[]},"batch_ns":{"count":0,)"
      R"("sum":0,"min":0,"max":0,"buckets":[]},"flush_ns":{"count":0,)"
      R"("sum":0,"min":0,"max":0,"buckets":[]},"epoch_gap_ns":{"count":0,)"
      R"("sum":0,"min":0,"max":0,"buckets":[]}}})";
  TelemetrySnapshot shedding_expected;
  shedding_expected.epoch = 7;
  SheddingTelemetry& shedding = shedding_expected.shedding;
  shedding.enabled = true;
  shedding.target_fraction = 0.25;
  shedding.offered_records = 1000;
  shedding.shed_probes = 250;
  shedding.shed_fraction = 0.125;
  shedding.accuracy_loss = 0.0625;
  shedding.cycles_saved_per_record = 1.5;
  shedding.relations.push_back(
      SheddingRelationTelemetry{"AB", 2.5, 0.25, 250});
  auto shedding_restored = TelemetrySnapshot::FromJsonLine(shedding_line);
  ASSERT_TRUE(shedding_restored.ok()) << shedding_restored.status().ToString();
  EXPECT_TRUE(*shedding_restored == shedding_expected);
  const std::string shedding_again = shedding_restored->ToJsonLine();
  EXPECT_EQ(shedding_again, shedding_expected.ToJsonLine());
  EXPECT_EQ(shedding_again.find("rebalances"), std::string::npos)
      << shedding_again;
}

TEST(TelemetrySnapshotTest, SheddingSectionAbsentWhenDisabled) {
  // Engines without the overload controller serialize no "shedding" key at
  // all (any telemetry tier), and pre-shedding lines parse to the default
  // disabled section — the schema change is invisible both directions.
  TelemetrySnapshot snap = HandCraftedSnapshot();
  snap.shedding = SheddingTelemetry{};
  const std::string line = snap.ToJsonLine();
  EXPECT_EQ(line.find("\"shedding\""), std::string::npos) << line;
  auto restored = TelemetrySnapshot::FromJsonLine(line);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_TRUE(*restored == snap);
}

TEST(TelemetrySnapshotTest, SheddingMergeSumsCountsAndRecomputesFraction) {
  SheddingTelemetry a;
  a.enabled = true;
  a.target_fraction = 0.25;
  a.offered_records = 1000;
  a.shed_probes = 500;
  a.relations.push_back(SheddingRelationTelemetry{"AB", 2.0, 0.25, 500});
  SheddingTelemetry b;
  b.enabled = true;
  b.target_fraction = 0.5;
  b.offered_records = 3000;
  b.shed_probes = 1500;
  b.relations.push_back(SheddingRelationTelemetry{"AB", 2.0, 0.5, 1500});

  a.MergeFrom(b);
  EXPECT_TRUE(a.enabled);
  EXPECT_DOUBLE_EQ(a.target_fraction, 0.5);
  EXPECT_EQ(a.offered_records, 4000u);
  EXPECT_EQ(a.shed_probes, 2000u);
  ASSERT_EQ(a.relations.size(), 1u);
  EXPECT_EQ(a.relations[0].shed_records, 2000u);
  // The realized fraction recomputes from the summed counts: 2000 drops
  // over 4000 offered records at one raw relation.
  EXPECT_DOUBLE_EQ(a.shed_fraction, 0.5);
}

TEST(TelemetrySnapshotTest, SnapshotMergeCarriesSheddingAndHistograms) {
  // Shedding-era snapshots keep the whole merge algebra: the shedding
  // section folds in (counts sum) and the latency histograms underneath it
  // still merge element-wise.
  TelemetrySnapshot a = HandCraftedSnapshot();
  const TelemetrySnapshot b = HandCraftedSnapshot();
  const uint64_t gap_count = a.epoch_gap_ns.count();
  a.MergeFrom(b);
  EXPECT_EQ(a.epoch_gap_ns.count(), 2 * gap_count);
  EXPECT_EQ(a.shedding.offered_records, 2 * b.shedding.offered_records);
  EXPECT_EQ(a.shedding.shed_probes, 2 * b.shedding.shed_probes);
  ASSERT_EQ(a.shedding.relations.size(), b.shedding.relations.size());
  for (size_t i = 0; i < a.shedding.relations.size(); ++i) {
    EXPECT_EQ(a.shedding.relations[i].shed_records,
              2 * b.shedding.relations[i].shed_records)
        << a.shedding.relations[i].relation;
  }
}

TEST(TelemetrySnapshotTest, ToTableMentionsShedding) {
  const std::string table = HandCraftedSnapshot().ToTable();
  EXPECT_NE(table.find("shedding:"), std::string::npos) << table;
}

TEST(TelemetrySnapshotTest, MergeConcatenatesReplans) {
  // Re-plan history is engine-level (shard replicas never carry any), so
  // the merge algebra for it is plain concatenation in call order.
  TelemetrySnapshot a;
  a.replans.push_back(ReplanEvent{3, "AB", 0.25, 2, 1, 0.5});
  TelemetrySnapshot b;
  b.replans.push_back(ReplanEvent{5, "BC", 0.5, 4, 0, 1.0});
  b.replans.push_back(ReplanEvent{7, "CD", 0.75, 1, 3, 2.0});
  a.MergeFrom(b);
  ASSERT_EQ(a.replans.size(), 3u);
  EXPECT_EQ(a.replans[0].trigger_relation, "AB");
  EXPECT_EQ(a.replans[1].trigger_relation, "BC");
  EXPECT_EQ(a.replans[2].trigger_relation, "CD");
}

TEST(TelemetrySnapshotTest, ToTableMentionsReplans) {
  const TelemetrySnapshot snap = HandCraftedSnapshot();
  const std::string table = snap.ToTable();
  EXPECT_NE(table.find("re-plans:"), std::string::npos);
  EXPECT_NE(table.find("epoch 40"), std::string::npos);
}

TEST(TelemetrySnapshotTest, FromJsonLineAcceptsPreChurnSnapshots) {
  // Lines serialized before online query churn carry no "query_churn"
  // array; they must still parse, with an empty churn history.
  TelemetrySnapshot old = HandCraftedSnapshot();
  old.query_churn.clear();
  std::string line = old.ToJsonLine();
  ASSERT_EQ(line.find("\"query_churn\""), std::string::npos) << line;

  auto restored = TelemetrySnapshot::FromJsonLine(line);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString() << "\n" << line;
  EXPECT_TRUE(*restored == old);
}

TEST(TelemetrySnapshotTest, ChurnSectionAbsentWhenEmpty) {
  // Engines that never saw AddQuery/DropQuery serialize no "query_churn"
  // key at all — the schema change is invisible to old readers.
  TelemetrySnapshot snap = HandCraftedSnapshot();
  snap.query_churn.clear();
  const std::string line = snap.ToJsonLine();
  EXPECT_EQ(line.find("\"query_churn\""), std::string::npos) << line;
}

TEST(TelemetrySnapshotTest, MergeConcatenatesChurn) {
  // Churn history is engine-level like the re-plan history (shard replicas
  // never carry any), so merge is plain concatenation in call order.
  TelemetrySnapshot a;
  QueryChurnEvent e1;
  e1.epoch = 10;
  e1.add = true;
  e1.query_id = 2;
  e1.relation = "AB";
  a.query_churn.push_back(e1);
  TelemetrySnapshot b;
  QueryChurnEvent e2;
  e2.epoch = 12;
  e2.add = false;
  e2.query_id = 0;
  e2.relation = "CD";
  b.query_churn.push_back(e2);
  a.MergeFrom(b);
  ASSERT_EQ(a.query_churn.size(), 2u);
  EXPECT_EQ(a.query_churn[0].relation, "AB");
  EXPECT_EQ(a.query_churn[1].relation, "CD");
  EXPECT_FALSE(a.query_churn[1].add);
}

TEST(TelemetrySnapshotTest, ToTableMentionsChurn) {
  const std::string table = HandCraftedSnapshot().ToTable();
  EXPECT_NE(table.find("query churn:"), std::string::npos) << table;
}

TEST(TelemetrySnapshotTest, ChurnActionSerializesAsString) {
  // The add/drop flag serializes as "action":"add"/"drop" so operators can
  // grep telemetry logs for drops without decoding booleans.
  const std::string line = HandCraftedSnapshot().ToJsonLine();
  EXPECT_NE(line.find("\"action\":\"add\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"action\":\"drop\""), std::string::npos) << line;
}

TEST(TelemetrySnapshotTest, FromJsonLineKeepsDefaultsForMissingKeys) {
  // One rule for every key: a missing key keeps the member's default, so an
  // empty object restores a default snapshot (num_shards 1, not 0)...
  auto empty = TelemetrySnapshot::FromJsonLine("{}");
  ASSERT_TRUE(empty.ok()) << empty.status().ToString();
  EXPECT_TRUE(*empty == TelemetrySnapshot{});
  EXPECT_EQ(empty->num_shards, 1);

  // ...and an empty object in any array restores a default element: a
  // table is no phantom claiming query 0 fed by table 0, and a shard keeps
  // the unpinned placement.
  auto elements = TelemetrySnapshot::FromJsonLine(
      R"({"tables":[{}],"shards":[{}],"replans":[{}],)"
      R"("query_churn":[{}],"shedding":{"relations":[{}]}})");
  ASSERT_TRUE(elements.ok()) << elements.status().ToString();
  TelemetrySnapshot expected;
  expected.tables.emplace_back();
  expected.shards.emplace_back();
  expected.replans.emplace_back();
  expected.query_churn.emplace_back();
  expected.shedding.relations.emplace_back();
  EXPECT_TRUE(*elements == expected);
  ASSERT_EQ(elements->tables.size(), 1u);
  EXPECT_EQ(elements->tables[0].query_index, -1);
  EXPECT_EQ(elements->tables[0].parent, -1);
  EXPECT_FALSE(elements->tables[0].has_prediction());
  ASSERT_EQ(elements->shards.size(), 1u);
  EXPECT_EQ(elements->shards[0].cpu, -1);
  EXPECT_EQ(elements->shards[0].node, -1);
  ASSERT_EQ(elements->query_churn.size(), 1u);
  EXPECT_EQ(elements->query_churn[0].query_id, -1);
}

TEST(TelemetrySnapshotTest, FromJsonLineRejectsGarbage) {
  EXPECT_FALSE(TelemetrySnapshot::FromJsonLine("").ok());
  EXPECT_FALSE(TelemetrySnapshot::FromJsonLine("not json").ok());
  EXPECT_FALSE(TelemetrySnapshot::FromJsonLine("[1, 2]").ok());
  EXPECT_FALSE(TelemetrySnapshot::FromJsonLine("{\"epoch\": 1,}").ok());
}

TEST(TelemetrySnapshotTest, ToTableMentionsEveryRelation) {
  const TelemetrySnapshot snap = HandCraftedSnapshot();
  const std::string table = snap.ToTable();
  EXPECT_NE(table.find("ABD"), std::string::npos);
  EXPECT_NE(table.find("BC"), std::string::npos);
  EXPECT_NE(table.find("epoch"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Snapshots of live runtimes

Trace TestTrace(uint64_t seed, size_t n = 60000) {
  const Schema schema = *Schema::Default(4);
  auto universe = GroupUniverse::Uniform(schema, 800, {60, 60, 60, 60}, seed);
  auto gen =
      std::move(ZipfGenerator::Make(std::move(*universe), 1.0, seed + 1))
          .value();
  return Trace::Generate(*gen, n, 12.0);
}

std::vector<RuntimeRelationSpec> TestSpecs(const Schema& schema) {
  auto config = Configuration::Parse(schema, "ABCD(AB BCD(BC BD CD))");
  EXPECT_TRUE(config.ok());
  auto specs = config->ToRuntimeSpecs(
      std::vector<double>(config->num_nodes(), 128.0));
  EXPECT_TRUE(specs.ok());
  return *specs;
}

TEST(TelemetrySnapshotTest, SerialRuntimeSnapshotMatchesSources) {
  const Trace trace = TestTrace(0xa11);
  auto runtime =
      ConfigurationRuntime::Make(trace.schema(), TestSpecs(trace.schema()),
                                 3.0);
  ASSERT_TRUE(runtime.ok());
  (*runtime)->ProcessTrace(trace);

  const TelemetrySnapshot snap =
      BuildTelemetrySnapshot(**runtime, trace.schema());
  EXPECT_EQ(snap.num_shards, 1);
  EXPECT_TRUE(snap.shards.empty());
  EXPECT_TRUE(snap.counters == (*runtime)->counters());
  ASSERT_EQ(static_cast<int>(snap.tables.size()),
            (*runtime)->num_relations());
  for (int i = 0; i < (*runtime)->num_relations(); ++i) {
    const LftaHashTable& table = (*runtime)->table(i);
    const TableTelemetry& t = snap.tables[static_cast<size_t>(i)];
    EXPECT_EQ(t.probes, table.probes());
    EXPECT_EQ(t.collisions, table.collisions());
    EXPECT_EQ(t.updates, table.updates());
    EXPECT_EQ(t.inserts, table.inserts());
    EXPECT_EQ(t.probes, t.inserts + t.updates + t.collisions);
    EXPECT_DOUBLE_EQ(t.observed_collision_rate, table.CollisionRate());
    // Raw runtime snapshots carry no model predictions (engine adds them).
    EXPECT_FALSE(t.has_prediction());
  }
  // A snapshot of a live runtime survives the JSON round trip too.
  auto restored = TelemetrySnapshot::FromJsonLine(snap.ToJsonLine());
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(*restored == snap);
}

TEST(TelemetrySnapshotTest, ShardedMergeIsBitIdenticalToRuntimeCounters) {
  // The acceptance invariant: a merged N>1 snapshot's totals are exact
  // uint64 sums over the same events the runtime counted — bit-identical
  // to ShardedRuntime::counters() and to the field-wise sum over replicas.
  const Trace trace = TestTrace(0xb22);
  const std::vector<RuntimeRelationSpec> specs = TestSpecs(trace.schema());
  ShardedRuntime::Options options;
  options.num_shards = 4;
  auto sharded =
      ShardedRuntime::Make(trace.schema(), specs, 3.0, options);
  ASSERT_TRUE(sharded.ok());
  (*sharded)->ProcessTrace(trace);

  const TelemetrySnapshot snap =
      BuildTelemetrySnapshot(**sharded, trace.schema());
  EXPECT_EQ(snap.num_shards, 4);
  EXPECT_TRUE(snap.counters == (*sharded)->counters());
  EXPECT_EQ(snap.counters.records, trace.size());

  // Per-table tallies are the field-wise sums over the shard replicas.
  ASSERT_EQ(static_cast<int>(snap.tables.size()),
            (*sharded)->shard(0).num_relations());
  for (size_t i = 0; i < snap.tables.size(); ++i) {
    uint64_t probes = 0, collisions = 0, updates = 0, flushed = 0;
    for (int s = 0; s < (*sharded)->num_shards(); ++s) {
      const LftaHashTable& table =
          (*sharded)->shard(s).table(static_cast<int>(i));
      probes += table.probes();
      collisions += table.collisions();
      updates += table.updates();
      flushed += table.flushed_entries();
    }
    EXPECT_EQ(snap.tables[i].probes, probes) << "table " << i;
    EXPECT_EQ(snap.tables[i].collisions, collisions) << "table " << i;
    EXPECT_EQ(snap.tables[i].updates, updates) << "table " << i;
    EXPECT_EQ(snap.tables[i].flushed_entries, flushed) << "table " << i;
  }

  // Driver-side ingest stats: every record was routed to some shard.
  ASSERT_EQ(snap.shards.size(), 4u);
  uint64_t routed = 0;
  for (const ShardTelemetry& s : snap.shards) routed += s.records;
  EXPECT_EQ(routed, trace.size());
}

TEST(TelemetrySnapshotTest, SingleShardSnapshotMatchesSerialTables) {
  // A 1x1 runtime runs its replica inline: the identical record order
  // through identical tables, so every per-table telemetry field must match
  // the serial runtime exactly (timing histograms excluded by construction
  // — TableTelemetry carries none), and the snapshot is the serial one,
  // with no shard rows.
  const Trace trace = TestTrace(0xc33);
  const std::vector<RuntimeRelationSpec> specs = TestSpecs(trace.schema());

  auto serial = ConfigurationRuntime::Make(trace.schema(), specs, 3.0);
  ASSERT_TRUE(serial.ok());
  (*serial)->ProcessTrace(trace);

  ShardedRuntime::Options options;
  options.num_shards = 1;
  auto sharded = ShardedRuntime::Make(trace.schema(), specs, 3.0, options);
  ASSERT_TRUE(sharded.ok());
  (*sharded)->ProcessTrace(trace);

  const TelemetrySnapshot a =
      BuildTelemetrySnapshot(**serial, trace.schema());
  const TelemetrySnapshot b =
      BuildTelemetrySnapshot(**sharded, trace.schema());
  EXPECT_TRUE(a.counters == b.counters);
  ASSERT_EQ(a.tables.size(), b.tables.size());
  for (size_t i = 0; i < a.tables.size(); ++i) {
    EXPECT_TRUE(a.tables[i] == b.tables[i]) << "table " << i;
  }
  EXPECT_EQ(a.hfta_groups, b.hfta_groups);
  EXPECT_EQ(b.num_shards, 1);
  EXPECT_TRUE(b.shards.empty());
}

TEST(TelemetrySnapshotTest, RuntimeLevelOffDisablesTelemetryTallies) {
  const Trace trace = TestTrace(0xd44);
  auto runtime =
      ConfigurationRuntime::Make(trace.schema(), TestSpecs(trace.schema()),
                                 3.0);
  ASSERT_TRUE(runtime.ok());
  (*runtime)->set_telemetry_level(TelemetryLevel::kOff);
  (*runtime)->ProcessTrace(trace);

  // The load-bearing counters (adaptive control, cost accounting) never
  // turn off...
  EXPECT_EQ((*runtime)->counters().records, trace.size());
  EXPECT_GT((*runtime)->table(0).probes(), 0u);
  // ...but the telemetry-only tallies and histograms stay zero.
  const RuntimeTelemetry& telemetry = (*runtime)->telemetry();
  EXPECT_EQ(telemetry.batch_ns.count(), 0u);
  EXPECT_EQ(telemetry.flush_ns.count(), 0u);
  for (const RelationTelemetry& r : telemetry.relations) {
    EXPECT_EQ(r.intra_evictions, 0u);
    EXPECT_EQ(r.flush_evictions, 0u);
    EXPECT_EQ(r.hfta_transfers, 0u);
    EXPECT_EQ(r.flush_occupancy.count(), 0u);
  }
  // Snapshots still build and serialize; they just carry zeros.
  const TelemetrySnapshot snap =
      BuildTelemetrySnapshot(**runtime, trace.schema());
  auto restored = TelemetrySnapshot::FromJsonLine(snap.ToJsonLine());
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(*restored == snap);
}

TEST(TelemetrySnapshotTest, FullLevelPopulatesHistograms) {
  const Trace trace = TestTrace(0xe55);
  auto runtime =
      ConfigurationRuntime::Make(trace.schema(), TestSpecs(trace.schema()),
                                 3.0);
  ASSERT_TRUE(runtime.ok());
  (*runtime)->ProcessTrace(trace);  // Default level: kFull.

  const TelemetrySnapshot snap =
      BuildTelemetrySnapshot(**runtime, trace.schema());
  EXPECT_GT(snap.batch_records.count(), 0u);
  EXPECT_GT(snap.batch_ns.count(), 0u);
  EXPECT_GT(snap.flush_ns.count(), 0u);
  EXPECT_EQ(snap.flush_ns.count(), snap.counters.epochs_flushed);
  // Every flush recorded each table's occupancy.
  for (const TableTelemetry& t : snap.tables) {
    EXPECT_EQ(t.flush_occupancy.count(), snap.counters.epochs_flushed)
        << t.relation;
  }
  // Eviction-reason tallies reconcile with the collision totals: every
  // collision evicts (intra), every flush drains occupied entries.
  for (const TableTelemetry& t : snap.tables) {
    EXPECT_EQ(t.intra_evictions + t.flush_evictions,
              t.collisions + t.flushed_entries)
        << t.relation;
  }
}

// ---------------------------------------------------------------------------
// Sliding-window pane-merge latency

TEST(SlidingWindowTelemetryTest, PaneMergeLatencyIsRecorded) {
  // Every WindowEndingAt call is one pane merge and contributes exactly one
  // latency sample (at the kFull compile tier; compiled out below it).
  Hfta hfta(1);
  GroupKey key;
  key.size = 1;
  key.values[0] = 7;
  hfta.Add(0, 0, key, AggregateState::FromCount(3));
  hfta.Add(0, 1, key, AggregateState::FromCount(4));
  auto view = SlidingWindowView::Make(&hfta, 0, 2);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->merge_latency().count(), 0u);
  EXPECT_EQ(view->WindowEndingAt(1).at(key).count, 7u);
  EXPECT_EQ(view->WindowEndingAt(0).at(key).count, 3u);
  EXPECT_EQ(view->WindowTotalCount(1), 7u);  // Merges via WindowEndingAt.
#if STREAMAGG_TELEMETRY_LEVEL >= 2
  EXPECT_EQ(view->merge_latency().count(), 3u);
#else
  EXPECT_EQ(view->merge_latency().count(), 0u);
#endif
}

}  // namespace
}  // namespace streamagg
