#include "stream/group_table.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <random>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

namespace streamagg {
namespace {

using Reference = std::unordered_map<GroupKey, AggregateState, GroupKeyHash>;

GroupKey MakeKey(int width, uint32_t seed) {
  GroupKey key;
  key.size = static_cast<uint8_t>(width);
  for (int i = 0; i < width; ++i) {
    key.values[static_cast<size_t>(i)] = seed * 2654435761u + 17u * i;
  }
  return key;
}

AggregateState MakeState(const std::vector<MetricSpec>& specs,
                         std::mt19937_64& rng) {
  AggregateState state = AggregateState::FromCount(1 + rng() % 5);
  state.num_metrics = static_cast<uint8_t>(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) state.metrics[i] = rng() % 1000;
  return state;
}

/// The table and the reference hold the same rows: sizes agree, every
/// reference row is found with an equal state, and iteration visits each
/// table row once.
void ExpectSameRows(const GroupTable& table, const Reference& reference) {
  ASSERT_EQ(table.size(), reference.size());
  for (const auto& [key, state] : reference) {
    const auto it = table.find(key);
    ASSERT_NE(it, table.end()) << key.ToString();
    EXPECT_EQ(it->second, state) << key.ToString();
    EXPECT_EQ(table.count(key), 1u);
  }
  size_t visited = 0;
  for (const auto& [key, state] : table) {
    const auto it = reference.find(key);
    ASSERT_NE(it, reference.end()) << key.ToString();
    EXPECT_EQ(state, it->second);
    ++visited;
  }
  EXPECT_EQ(visited, reference.size());
}

struct DifferentialCase {
  int width;
  std::vector<MetricSpec> specs;
};

// Names each case after its layout. Without it gtest prints the raw bytes
// of the struct, padding and vector pointers included, so the test names
// would change from run to run.
void PrintTo(const DifferentialCase& c, std::ostream* os) {
  *os << "width" << c.width << "_metrics" << c.specs.size();
}

class GroupTableDifferentialTest
    : public ::testing::TestWithParam<DifferentialCase> {};

TEST_P(GroupTableDifferentialTest, MatchesUnorderedMap) {
  const DifferentialCase& c = GetParam();
  std::mt19937_64 rng(0x6a7ab1e + static_cast<uint64_t>(c.width) * 31 +
                      c.specs.size());
  GroupTable table;
  Reference reference;
  // Few distinct keys relative to the operation count, so merges, hits and
  // misses all happen often.
  const uint32_t universe = 1500;
  for (int op = 0; op < 20000; ++op) {
    const GroupKey key =
        MakeKey(c.width, static_cast<uint32_t>(rng() % universe));
    switch (rng() % 8) {
      case 0:
      case 1: {  // try_emplace, merging on a hit, as the HFTA does.
        const AggregateState state = MakeState(c.specs, rng);
        auto [it, inserted] = table.try_emplace(key, state);
        auto [ref, ref_inserted] = reference.try_emplace(key, state);
        ASSERT_EQ(inserted, ref_inserted);
        if (!inserted) {
          it->second.Merge(state, c.specs);
          ref->second.Merge(state, c.specs);
        }
        EXPECT_EQ(it->first, key);
        EXPECT_EQ(it->second, ref->second);
        break;
      }
      case 2: {  // find
        const auto it = table.find(key);
        const auto ref = reference.find(key);
        ASSERT_EQ(it == table.end(), ref == reference.end());
        if (ref != reference.end()) {
          EXPECT_EQ(it->second, ref->second);
        }
        break;
      }
      case 3: {  // at
        if (reference.count(key) == 0) {
          EXPECT_THROW(table.at(key), std::out_of_range);
        } else {
          EXPECT_EQ(table.at(key), reference.at(key));
        }
        break;
      }
      case 4:  // count
        EXPECT_EQ(table.count(key), reference.count(key));
        break;
      case 5: {  // operator[] inserts a default state; give it the layout.
        AggregateState& state = table[key];
        AggregateState& ref = reference[key];
        EXPECT_EQ(state, ref);
        state.num_metrics = static_cast<uint8_t>(c.specs.size());
        ref.num_metrics = state.num_metrics;
        state.count += 3;
        ref.count += 3;
        break;
      }
      case 6: {  // copy, then diverge the copy only.
        GroupTable copy = table;
        EXPECT_TRUE(copy == table);
        EXPECT_EQ(copy.bytes(), table.bytes());
        copy[MakeKey(c.width, universe + 1)].count += 1;
        EXPECT_FALSE(copy == table);
        EXPECT_EQ(table.count(MakeKey(c.width, universe + 1)), 0u);
        break;
      }
      case 7: {  // move out and back.
        GroupTable moved = std::move(table);
        table = std::move(moved);
        break;
      }
    }
  }
  ExpectSameRows(table, reference);
  GroupTable rebuilt;
  for (const auto& [key, state] : reference) rebuilt.try_emplace(key, state);
  EXPECT_TRUE(rebuilt == table);
}

INSTANTIATE_TEST_SUITE_P(
    WidthsAndStates, GroupTableDifferentialTest,
    ::testing::Values(
        DifferentialCase{1, {}}, DifferentialCase{2, {}},
        DifferentialCase{4, {}}, DifferentialCase{16, {}},
        DifferentialCase{1, {{AggregateOp::kSum, 0}}},
        DifferentialCase{2,
                         {{AggregateOp::kSum, 0},
                          {AggregateOp::kMin, 1},
                          {AggregateOp::kMax, 1}}},
        DifferentialCase{4, {{AggregateOp::kMin, 2}, {AggregateOp::kMax, 3}}},
        DifferentialCase{16,
                         {{AggregateOp::kSum, 0},
                          {AggregateOp::kSum, 1},
                          {AggregateOp::kMin, 2},
                          {AggregateOp::kMax, 3}}}));

/// Keys whose hash lands on `home` in an index of `slots` slots.
std::vector<GroupKey> KeysWithHome(int width, size_t slots, size_t home,
                                   size_t n) {
  std::vector<GroupKey> out;
  for (uint32_t seed = 0; out.size() < n; ++seed) {
    const GroupKey key = MakeKey(width, seed);
    if ((GroupKeyHash{}(key) & (slots - 1)) == home) out.push_back(key);
  }
  return out;
}

TEST(GroupTableTest, LongProbeChainsFindEveryKey) {
  // reserve(64) gives 128 index slots; 60 keys sharing one home slot fill
  // a 60-long chain, and home slot 127 makes it wrap past the index end.
  for (const size_t home : {size_t{3}, size_t{127}}) {
    const std::vector<GroupKey> keys = KeysWithHome(2, 128, home, 61);
    GroupTable table;
    table.reserve(64);
    // The first insert fixes the width and reserves the key words.
    table.try_emplace(keys[0], AggregateState::FromCount(0));
    const size_t bytes = table.bytes();
    for (size_t i = 1; i + 1 < keys.size(); ++i) {
      ASSERT_TRUE(
          table.try_emplace(keys[i], AggregateState::FromCount(i)).second);
    }
    EXPECT_EQ(table.bytes(), bytes) << "reserved rows must not grow";
    for (size_t i = 0; i + 1 < keys.size(); ++i) {
      ASSERT_EQ(table.at(keys[i]).count, i) << "home " << home;
    }
    // The last key shares the chain but was never inserted.
    EXPECT_EQ(table.find(keys.back()), table.end());
    table.at(keys[30]).count += 100;
    EXPECT_EQ(table.at(keys[30]).count, 130u);
  }
}

TEST(GroupTableTest, GrowsOverManyDoublings) {
  const uint32_t n = 100000;
  for (const size_t hint : {size_t{0}, size_t{1000}}) {
    GroupTable table;
    table.reserve(hint);
    size_t bytes = table.bytes();
    int growths = 0;
    for (uint32_t i = 0; i < n; ++i) {
      ASSERT_TRUE(
          table.try_emplace(MakeKey(3, i), AggregateState::FromCount(i))
              .second);
      if (table.bytes() != bytes) {
        EXPECT_GT(table.bytes(), bytes);
        bytes = table.bytes();
        ++growths;
      }
    }
    EXPECT_GE(growths, 6) << "hint " << hint;
    ASSERT_EQ(table.size(), n);
    for (uint32_t i = 0; i < n; ++i) {
      ASSERT_EQ(table.at(MakeKey(3, i)).count, i) << "hint " << hint;
    }
    EXPECT_EQ(table.count(MakeKey(3, n)), 0u);
  }
}

TEST(GroupTableTest, ReservedRowsNeverGrow) {
  GroupTable table;
  table.reserve(5000);
  // The first insert fixes the width and reserves the key words.
  table.try_emplace(MakeKey(2, 0), AggregateState::FromCount(1));
  const size_t bytes = table.bytes();
  for (uint32_t i = 1; i < 5000; ++i) {
    table.try_emplace(MakeKey(2, i), AggregateState::FromCount(1));
  }
  EXPECT_EQ(table.bytes(), bytes);
  table.try_emplace(MakeKey(2, 5000), AggregateState::FromCount(1));
  EXPECT_GT(table.bytes(), bytes);
}

TEST(GroupTableTest, IteratesEveryRowOnceInInsertionOrder) {
  GroupTable table;
  std::vector<GroupKey> order;
  std::mt19937_64 rng(11);
  for (int i = 0; i < 3000; ++i) {
    const GroupKey key = MakeKey(2, static_cast<uint32_t>(rng() % 2000));
    if (table.try_emplace(key, AggregateState::FromCount(1)).second) {
      order.push_back(key);
    } else {
      table.at(key).count += 1;
    }
  }
  size_t i = 0;
  for (const auto& [key, state] : table) {
    ASSERT_LT(i, order.size());
    EXPECT_EQ(key, order[i]) << "row " << i;
    ++i;
  }
  EXPECT_EQ(i, order.size());
  // A const table visits the same rows.
  const GroupTable& view = table;
  EXPECT_EQ(std::distance(view.begin(), view.end()),
            static_cast<std::ptrdiff_t>(order.size()));
}

TEST(GroupTableTest, EqualityIgnoresOrder) {
  GroupTable forward;
  GroupTable backward;
  for (uint32_t i = 0; i < 500; ++i) {
    forward.try_emplace(MakeKey(4, i), AggregateState::FromCount(i));
    backward.try_emplace(MakeKey(4, 499 - i),
                         AggregateState::FromCount(499 - i));
  }
  EXPECT_TRUE(forward == backward);
  EXPECT_TRUE(backward == forward);
  EXPECT_NE(forward.begin()->first, backward.begin()->first);

  backward.at(MakeKey(4, 7)).count += 1;
  EXPECT_FALSE(forward == backward);
  backward.at(MakeKey(4, 7)).count -= 1;
  backward.try_emplace(MakeKey(4, 500), AggregateState::FromCount(1));
  EXPECT_FALSE(forward == backward);
  EXPECT_TRUE(GroupTable() == GroupTable());
  EXPECT_FALSE(forward == GroupTable());
}

TEST(GroupTableTest, AtOnMissingKeyThrows) {
  GroupTable table;
  EXPECT_THROW(table.at(MakeKey(2, 1)), std::out_of_range);
  table.try_emplace(MakeKey(2, 1), AggregateState::FromCount(1));
  EXPECT_THROW(table.at(MakeKey(2, 2)), std::out_of_range);
  const GroupTable& view = table;
  EXPECT_THROW(view.at(MakeKey(2, 2)), std::out_of_range);
  EXPECT_EQ(view.at(MakeKey(2, 1)).count, 1u);
}

TEST(GroupTableTest, KeyOfAnotherWidthIsNotFound) {
  GroupTable table;
  table.try_emplace(MakeKey(2, 5), AggregateState::FromCount(1));
  // Same leading words, one more word: a different group.
  GroupKey wider = MakeKey(2, 5);
  wider.size = 3;
  EXPECT_EQ(table.find(wider), table.end());
  EXPECT_EQ(table.count(wider), 0u);
  EXPECT_THROW(table.at(wider), std::out_of_range);
  GroupKey narrower = MakeKey(2, 5);
  narrower.size = 1;
  EXPECT_EQ(table.count(narrower), 0u);
  // Inserting one would mix widths in one key vector.
  EXPECT_THROW(table.try_emplace(wider, AggregateState::FromCount(1)),
               std::invalid_argument);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.at(MakeKey(2, 5)).count, 1u);
}

TEST(GroupTableTest, EmptyKeyIsOneGroup) {
  GroupTable table;
  const GroupKey empty;
  table.try_emplace(empty, AggregateState::FromCount(2));
  table.at(empty).count += 3;
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.at(empty).count, 5u);
  EXPECT_EQ(table.begin()->first, empty);
}

TEST(GroupTableTest, CopyKeepsCapacityAndMoveEmptiesTheSource) {
  GroupTable table;
  table.reserve(1000);
  for (uint32_t i = 0; i < 10; ++i) {
    table.try_emplace(MakeKey(1, i), AggregateState::FromCount(i));
  }
  const GroupTable copy = table;
  EXPECT_EQ(copy.bytes(), table.bytes());
  EXPECT_TRUE(copy == table);
  GroupTable assigned;
  assigned = table;
  EXPECT_EQ(assigned.bytes(), table.bytes());

  GroupTable moved = std::move(table);
  EXPECT_TRUE(moved == copy);
  EXPECT_EQ(moved.bytes(), copy.bytes());
  // The moved-from table is empty and usable at any width.
  EXPECT_TRUE(table.empty());  // NOLINT(bugprone-use-after-move)
  table.try_emplace(MakeKey(3, 1), AggregateState::FromCount(1));
  EXPECT_EQ(table.at(MakeKey(3, 1)).count, 1u);
}

}  // namespace
}  // namespace streamagg
