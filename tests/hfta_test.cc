#include "dsms/hfta.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

namespace streamagg {
namespace {

GroupKey Key1(uint32_t v) {
  GroupKey k;
  k.size = 1;
  k.values[0] = v;
  return k;
}

TEST(HftaTest, CombinesPartialCountsForSameGroup) {
  Hfta hfta(1);
  // Multiple tuples for the same group in the same epoch arrive because of
  // evictions; the HFTA combines them (paper Section 2.2).
  hfta.Add(0, 3, Key1(7), AggregateState::FromCount(2));
  hfta.Add(0, 3, Key1(7), AggregateState::FromCount(5));
  hfta.Add(0, 3, Key1(8), AggregateState::FromCount(1));
  const EpochAggregate& result = hfta.Result(0, 3);
  ASSERT_EQ(result.size(), 2u);
  EXPECT_EQ(result.at(Key1(7)).count, 7u);
  EXPECT_EQ(result.at(Key1(8)).count, 1u);
  EXPECT_EQ(hfta.TotalCount(0, 3), 8u);
}

TEST(HftaTest, SeparatesEpochs) {
  Hfta hfta(1);
  hfta.Add(0, 0, Key1(1), AggregateState::FromCount(1));
  hfta.Add(0, 1, Key1(1), AggregateState::FromCount(4));
  EXPECT_EQ(hfta.Result(0, 0).at(Key1(1)).count, 1u);
  EXPECT_EQ(hfta.Result(0, 1).at(Key1(1)).count, 4u);
  const std::vector<uint64_t> epochs = hfta.Epochs(0);
  ASSERT_EQ(epochs.size(), 2u);
  EXPECT_EQ(epochs[0], 0u);
  EXPECT_EQ(epochs[1], 1u);
}

TEST(HftaTest, SeparatesQueries) {
  Hfta hfta(2);
  hfta.Add(0, 0, Key1(1), AggregateState::FromCount(1));
  hfta.Add(1, 0, Key1(1), AggregateState::FromCount(9));
  EXPECT_EQ(hfta.Result(0, 0).at(Key1(1)).count, 1u);
  EXPECT_EQ(hfta.Result(1, 0).at(Key1(1)).count, 9u);
}

TEST(HftaTest, CountsTransfers) {
  Hfta hfta(1);
  EXPECT_EQ(hfta.transfers(), 0u);
  hfta.Add(0, 0, Key1(1), AggregateState::FromCount(1));
  hfta.Add(0, 0, Key1(1), AggregateState::FromCount(1));
  hfta.Add(0, 1, Key1(2), AggregateState::FromCount(1));
  EXPECT_EQ(hfta.transfers(), 3u);
}

TEST(HftaTest, MissingEpochIsEmpty) {
  Hfta hfta(1);
  EXPECT_TRUE(hfta.Result(0, 42).empty());
  EXPECT_EQ(hfta.TotalCount(0, 42), 0u);
}

TEST(HftaTest, MergesMetricStates) {
  // One query with sum(attr 2) and min(attr 2): partial states merge per
  // op — sums add, mins fold.
  const std::vector<MetricSpec> metrics = {
      MetricSpec{AggregateOp::kSum, 2}, MetricSpec{AggregateOp::kMin, 2}};
  Hfta hfta(std::vector<std::vector<MetricSpec>>{metrics});
  AggregateState a = AggregateState::FromCount(3);
  a.num_metrics = 2;
  a.metrics[0] = 100;  // partial sum
  a.metrics[1] = 40;   // partial min
  AggregateState b = AggregateState::FromCount(2);
  b.num_metrics = 2;
  b.metrics[0] = 50;
  b.metrics[1] = 7;
  hfta.Add(0, 0, Key1(5), a);
  hfta.Add(0, 0, Key1(5), b);
  const AggregateState& merged = hfta.Result(0, 0).at(Key1(5));
  EXPECT_EQ(merged.count, 5u);
  EXPECT_EQ(merged.metrics[0], 150u);  // sum
  EXPECT_EQ(merged.metrics[1], 7u);    // min
  EXPECT_EQ(hfta.query_metrics(0).size(), 2u);
}

TEST(HftaTest, RemapDropsSlotAndCarriesSurvivors) {
  // Two queries; drop slot 0, keep slot 1 (renumbered to 0), append a
  // fresh empty slot with its own metric list.
  Hfta hfta(2);
  hfta.Add(0, 3, Key1(1), AggregateState::FromCount(5));
  hfta.Add(1, 3, Key1(2), AggregateState::FromCount(7));

  const std::vector<MetricSpec> fresh = {MetricSpec{AggregateOp::kMax, 1}};
  hfta.Remap({{}, fresh}, {1, -1});

  ASSERT_EQ(hfta.num_queries(), 2);
  EXPECT_EQ(hfta.Result(0, 3).at(Key1(2)).count, 7u);  // Old slot 1.
  EXPECT_TRUE(hfta.Result(1, 3).empty());              // Fresh slot.
  EXPECT_EQ(hfta.query_metrics(1), fresh);
}

TEST(HftaTest, RemapInvalidatesAddTargetCache) {
  // The ISSUE 10 satellite regression: Add caches its (query, epoch)
  // target aggregate between calls, and Remap reshapes the storage that
  // cache points into. Without explicit invalidation the next Add for the
  // same (query, epoch) would write through the stale pointer — a dropped
  // query's groups would keep accumulating into freed storage (asan sees
  // heap-use-after-free; unsanitized builds silently corrupt results).
  Hfta hfta(2);
  hfta.Add(0, 5, Key1(1), AggregateState::FromCount(1));  // Prime the cache.
  hfta.Add(1, 5, Key1(9), AggregateState::FromCount(4));

  hfta.Remap({{}}, {1});  // Drop slot 0; old slot 1 becomes slot 0.

  // Same (query_index, epoch) as the primed cache — must target the NEW
  // slot 0 (old slot 1), not the dropped slot's freed aggregate.
  hfta.Add(0, 5, Key1(9), AggregateState::FromCount(2));
  ASSERT_EQ(hfta.num_queries(), 1);
  EXPECT_EQ(hfta.Result(0, 5).at(Key1(9)).count, 6u);
  EXPECT_EQ(hfta.Result(0, 5).count(Key1(1)), 0u);  // Dropped for good.
}

TEST(HftaTest, RemapIdentityPlusFreshSlotKeepsResults) {
  // The AddQuery shape: identity for existing slots, -1 for the newcomer.
  Hfta hfta(1);
  hfta.Add(0, 2, Key1(3), AggregateState::FromCount(11));
  hfta.Remap({{}, {}}, {0, -1});
  ASSERT_EQ(hfta.num_queries(), 2);
  EXPECT_EQ(hfta.Result(0, 2).at(Key1(3)).count, 11u);
  EXPECT_TRUE(hfta.Epochs(1).empty());
  // The fresh slot accumulates independently from here on.
  hfta.Add(1, 2, Key1(3), AggregateState::FromCount(1));
  EXPECT_EQ(hfta.Result(0, 2).at(Key1(3)).count, 11u);
  EXPECT_EQ(hfta.Result(1, 2).at(Key1(3)).count, 1u);
}

TEST(HftaTest, TakeQueryEmptiesSlotAndLaterAddStartsFresh) {
  Hfta hfta(2);
  hfta.Add(0, 1, Key1(1), AggregateState::FromCount(2));
  hfta.Add(0, 2, Key1(1), AggregateState::FromCount(3));  // Target: (0, 2).
  hfta.Add(1, 2, Key1(4), AggregateState::FromCount(5));

  EpochResults taken = hfta.TakeQuery(0);
  ASSERT_EQ(taken.size(), 2u);
  EXPECT_EQ(taken.at(1).at(Key1(1)).count, 2u);
  EXPECT_EQ(taken.at(2).at(Key1(1)).count, 3u);
  EXPECT_TRUE(hfta.Epochs(0).empty());
  EXPECT_EQ(hfta.TotalGroups(0), 0u);
  EXPECT_EQ(hfta.Result(1, 2).at(Key1(4)).count, 5u);  // Untouched.

  // Same (query, epoch) as the taken slot's last target: the Add must start
  // a fresh aggregate, not write into the map the caller now owns.
  hfta.Add(0, 2, Key1(1), AggregateState::FromCount(7));
  EXPECT_EQ(hfta.Result(0, 2).at(Key1(1)).count, 7u);
  EXPECT_EQ(taken.at(2).at(Key1(1)).count, 3u);
  EXPECT_EQ(hfta.Epochs(0), std::vector<uint64_t>{2});
}

TEST(HftaTest, InterleavedAddsLandInTheirQueryAndEpoch) {
  // Transfers alternate between queries while each query's epoch moves on
  // at its own pace: every Add must reach its own (query, epoch).
  Hfta hfta(3);
  std::map<std::tuple<int, uint64_t, uint32_t>, uint64_t> expected;
  for (uint32_t i = 0; i < 600; ++i) {
    const int query = static_cast<int>(i % 3);
    const uint64_t epoch = i / (7 + static_cast<uint32_t>(query) * 5);
    const uint32_t group = i % 4;
    const uint64_t count = 1 + i % 9;
    hfta.Add(query, epoch, Key1(group), AggregateState::FromCount(count));
    expected[{query, epoch, group}] += count;
  }
  EXPECT_EQ(hfta.transfers(), 600u);
  size_t rows = 0;
  for (int q = 0; q < 3; ++q) {
    for (uint64_t epoch : hfta.Epochs(q)) {
      for (const auto& [key, state] : hfta.Result(q, epoch)) {
        EXPECT_EQ(state.count, (expected[{q, epoch, key.values[0]}]))
            << "query " << q << " epoch " << epoch;
        ++rows;
      }
    }
  }
  EXPECT_EQ(rows, expected.size());
}

TEST(HftaTest, RemapCopyAndMoveResetEveryTarget) {
  const auto primed = [] {
    Hfta hfta(2);
    hfta.Add(0, 5, Key1(1), AggregateState::FromCount(1));
    hfta.Add(1, 5, Key1(2), AggregateState::FromCount(2));
    return hfta;
  };

  // Remap swapping the slots: a kept target would write slot 0's next
  // group into the map that is now slot 1.
  Hfta swapped = primed();
  swapped.Add(0, 5, Key1(1), AggregateState::FromCount(1));  // Re-prime.
  swapped.Remap({{}, {}}, {1, 0});
  swapped.Add(0, 5, Key1(2), AggregateState::FromCount(10));
  swapped.Add(1, 5, Key1(1), AggregateState::FromCount(20));
  EXPECT_EQ(swapped.Result(0, 5).at(Key1(2)).count, 12u);
  EXPECT_EQ(swapped.Result(0, 5).size(), 1u);
  EXPECT_EQ(swapped.Result(1, 5).at(Key1(1)).count, 22u);
  EXPECT_EQ(swapped.Result(1, 5).size(), 1u);

  // Copy assignment and copy construction: each copy's Adds stay its own.
  Hfta source = primed();
  Hfta assigned(1);
  assigned = source;
  Hfta constructed(source);
  assigned.Add(0, 5, Key1(1), AggregateState::FromCount(100));
  constructed.Add(1, 5, Key1(2), AggregateState::FromCount(200));
  source.Add(0, 5, Key1(1), AggregateState::FromCount(1000));
  EXPECT_EQ(assigned.Result(0, 5).at(Key1(1)).count, 101u);
  EXPECT_EQ(assigned.Result(1, 5).at(Key1(2)).count, 2u);
  EXPECT_EQ(constructed.Result(0, 5).at(Key1(1)).count, 1u);
  EXPECT_EQ(constructed.Result(1, 5).at(Key1(2)).count, 202u);
  EXPECT_EQ(source.Result(0, 5).at(Key1(1)).count, 1001u);
  EXPECT_EQ(source.Result(1, 5).at(Key1(2)).count, 2u);

  // Move assignment: the destination keeps accumulating in place, and a
  // source rebuilt afterwards starts empty.
  Hfta moved(1);
  moved = std::move(source);
  moved.Add(0, 5, Key1(1), AggregateState::FromCount(4));
  EXPECT_EQ(moved.Result(0, 5).at(Key1(1)).count, 1005u);
  source = Hfta(2);
  source.Add(0, 5, Key1(1), AggregateState::FromCount(8));
  EXPECT_EQ(source.Result(0, 5).at(Key1(1)).count, 8u);
  EXPECT_EQ(moved.Result(0, 5).at(Key1(1)).count, 1005u);
}

TEST(HftaTest, DrainFromMovesEveryRowAndEmptiesTheSource) {
  Hfta results(2);
  results.Add(0, 1, Key1(1), AggregateState::FromCount(1));
  Hfta replica(2);
  replica.Add(0, 1, Key1(1), AggregateState::FromCount(2));  // Shared epoch.
  replica.Add(0, 2, Key1(3), AggregateState::FromCount(4));  // New epoch.
  replica.Add(1, 2, Key1(5), AggregateState::FromCount(6));

  results.DrainFrom(&replica);
  EXPECT_EQ(results.Result(0, 1).at(Key1(1)).count, 3u);
  EXPECT_EQ(results.Result(0, 2).at(Key1(3)).count, 4u);
  EXPECT_EQ(results.Result(1, 2).at(Key1(5)).count, 6u);
  EXPECT_EQ(results.transfers(), 4u);
  EXPECT_EQ(replica.num_queries(), 2);
  EXPECT_EQ(replica.transfers(), 0u);
  EXPECT_TRUE(replica.Epochs(0).empty());
  EXPECT_TRUE(replica.Epochs(1).empty());

  // The replica's next Add for its last target starts afresh there.
  replica.Add(1, 2, Key1(5), AggregateState::FromCount(1));
  EXPECT_EQ(replica.Result(1, 2).at(Key1(5)).count, 1u);
  EXPECT_EQ(results.Result(1, 2).at(Key1(5)).count, 6u);
}

/// Rows and bytes `hfta` holds for `query`, summed over its epochs: what
/// TotalGroups and TotalBytes must report without walking them.
std::pair<uint64_t, uint64_t> SummedEpochs(const Hfta& hfta, int query) {
  uint64_t rows = 0;
  uint64_t bytes = 0;
  for (uint64_t epoch : hfta.Epochs(query)) {
    rows += hfta.Result(query, epoch).size();
    bytes += hfta.Result(query, epoch).bytes();
  }
  return {rows, bytes};
}

void ExpectTotalsMatch(const Hfta& hfta, const std::string& label) {
  for (int q = 0; q < hfta.num_queries(); ++q) {
    const auto [rows, bytes] = SummedEpochs(hfta, q);
    EXPECT_EQ(hfta.TotalGroups(q), rows) << label << " query " << q;
    EXPECT_EQ(hfta.TotalBytes(q), bytes) << label << " query " << q;
  }
}

TEST(HftaTest, TotalGroupsTracksEveryRowOperation) {
  Hfta hfta(2);
  ExpectTotalsMatch(hfta, "empty");
  hfta.Add(0, 1, Key1(1), AggregateState::FromCount(1));
  hfta.Add(0, 1, Key1(1), AggregateState::FromCount(1));  // Merge: no row.
  hfta.Add(0, 1, Key1(2), AggregateState::FromCount(1));
  hfta.Add(0, 2, Key1(1), AggregateState::FromCount(1));
  hfta.Add(1, 2, Key1(9), AggregateState::FromCount(1));
  EXPECT_EQ(hfta.TotalGroups(0), 3u);
  ExpectTotalsMatch(hfta, "Add");

  // MergeFrom: one shared row, one new row in a shared epoch, one new epoch.
  Hfta other(2);
  other.Add(0, 1, Key1(1), AggregateState::FromCount(1));
  other.Add(0, 1, Key1(3), AggregateState::FromCount(1));
  other.Add(0, 4, Key1(1), AggregateState::FromCount(1));
  hfta.MergeFrom(other);
  EXPECT_EQ(hfta.TotalGroups(0), 5u);
  ExpectTotalsMatch(hfta, "MergeFrom");
  ExpectTotalsMatch(other, "MergeFrom source");

  // DrainFrom with overlapping epochs: 1 and 2 are held on both sides (the
  // replica's epoch 2 row for key 5 is new, its key 1 row is not), and
  // epoch 3 splices over.
  Hfta overlapping(2);
  overlapping.Add(0, 1, Key1(2), AggregateState::FromCount(1));
  overlapping.Add(0, 2, Key1(1), AggregateState::FromCount(1));
  overlapping.Add(0, 2, Key1(5), AggregateState::FromCount(1));
  overlapping.Add(0, 3, Key1(1), AggregateState::FromCount(1));
  overlapping.Add(1, 2, Key1(9), AggregateState::FromCount(1));
  hfta.DrainFrom(&overlapping);
  EXPECT_EQ(hfta.TotalGroups(0), 7u);
  ExpectTotalsMatch(hfta, "DrainFrom overlapping");
  ExpectTotalsMatch(overlapping, "drained overlapping");

  // DrainFrom with disjoint epochs: every epoch splices over whole.
  Hfta disjoint(2);
  disjoint.Add(0, 7, Key1(1), AggregateState::FromCount(1));
  disjoint.Add(0, 7, Key1(2), AggregateState::FromCount(1));
  disjoint.Add(1, 8, Key1(1), AggregateState::FromCount(1));
  hfta.DrainFrom(&disjoint);
  EXPECT_EQ(hfta.TotalGroups(0), 9u);
  EXPECT_EQ(hfta.TotalGroups(1), 2u);
  ExpectTotalsMatch(hfta, "DrainFrom disjoint");
  ExpectTotalsMatch(disjoint, "drained disjoint");

  // Remap: slot 1 moves to 0, slot 0 is dropped, a fresh slot 1 starts
  // empty and counts its own rows.
  hfta.Remap({{}, {}}, {1, -1});
  EXPECT_EQ(hfta.TotalGroups(0), 2u);
  EXPECT_EQ(hfta.TotalGroups(1), 0u);
  hfta.Add(1, 9, Key1(4), AggregateState::FromCount(1));
  ExpectTotalsMatch(hfta, "Remap");

  // TakeQuery empties the slot; later Adds count from zero.
  const EpochResults taken = hfta.TakeQuery(0);
  EXPECT_EQ(taken.size(), 2u);
  EXPECT_EQ(hfta.TotalGroups(0), 0u);
  hfta.Add(0, 9, Key1(4), AggregateState::FromCount(1));
  EXPECT_EQ(hfta.TotalGroups(0), 1u);
  ExpectTotalsMatch(hfta, "TakeQuery");

  // Copies carry the counts with the rows.
  const Hfta copy = hfta;
  ExpectTotalsMatch(copy, "copy");
}

TEST(HftaTest, EpochSizedFromPredecessorHoldsSameRowsWithoutGrowing) {
  // Epoch 7's table is sized from epoch 6's 3000 rows; the same rows
  // grown from empty in a fresh HFTA must read back identically.
  const auto add_epoch = [](Hfta* hfta, uint64_t epoch, uint32_t salt) {
    for (uint32_t i = 0; i < 6000; ++i) {
      hfta->Add(0, epoch, Key1((i * 7919u + salt) % 3000),
                AggregateState::FromCount(i + 1));
    }
  };
  Hfta sized(1);
  add_epoch(&sized, 6, 0);
  sized.Add(0, 7, Key1(5), AggregateState::FromCount(1));
  const uint64_t bytes = sized.TotalBytes(0);
  add_epoch(&sized, 7, 11);
  EXPECT_EQ(sized.TotalBytes(0), bytes)
      << "3000 rows after a 3000-row epoch fit without growing";
  ExpectTotalsMatch(sized, "sized");

  Hfta grown(1);
  grown.Add(0, 7, Key1(5), AggregateState::FromCount(1));
  add_epoch(&grown, 7, 11);
  ExpectTotalsMatch(grown, "grown");
  EXPECT_TRUE(sized.Result(0, 7) == grown.Result(0, 7));
  // Same insertion order too: both tables saw the same Adds.
  std::vector<uint32_t> sized_order;
  std::vector<uint32_t> grown_order;
  for (const auto& [key, state] : sized.Result(0, 7)) {
    sized_order.push_back(key.values[0]);
  }
  for (const auto& [key, state] : grown.Result(0, 7)) {
    grown_order.push_back(key.values[0]);
  }
  EXPECT_EQ(sized_order, grown_order);
  EXPECT_EQ(sized.Result(0, 7).size(), 3000u);
}

}  // namespace
}  // namespace streamagg
