#include "stream/trace_stats.h"

#include <gtest/gtest.h>

#include "stream/flow_generator.h"
#include "stream/uniform_generator.h"

namespace streamagg {
namespace {

TEST(TraceStatsTest, GroupCountsMatchUniverse) {
  auto gen = UniformGenerator::Make(*Schema::Default(4), 200, 21);
  ASSERT_TRUE(gen.ok());
  const Trace trace = Trace::Generate(**gen, 20000, 10.0);
  TraceStats stats(&trace);
  // 100x oversampling: every group of the universe appears.
  EXPECT_EQ(stats.GroupCount(AttributeSet::Of({0, 1, 2, 3})), 200u);
  EXPECT_EQ(stats.GroupCount(AttributeSet()), 1u);
  // Projections can only be coarser.
  EXPECT_LE(stats.GroupCount(AttributeSet::Of({0, 1})), 200u);
  EXPECT_LE(stats.GroupCount(AttributeSet::Single(0)),
            stats.GroupCount(AttributeSet::Of({0, 1})));
}

TEST(TraceStatsTest, GroupCountMonotoneInAttributes) {
  auto gen = FlowGenerator::MakePaperTrace({});
  ASSERT_TRUE(gen.ok());
  const Trace trace = Trace::Generate(**gen, 100000, 62.0);
  TraceStats stats(&trace);
  for (uint32_t mask = 1; mask < 16; ++mask) {
    const AttributeSet set(mask);
    for (int extra = 0; extra < 4; ++extra) {
      if (set.ContainsIndex(extra)) continue;
      const AttributeSet bigger = set.Union(AttributeSet::Single(extra));
      EXPECT_LE(stats.GroupCount(set), stats.GroupCount(bigger))
          << set.ToString() << " vs " << bigger.ToString();
    }
  }
}

TEST(TraceStatsTest, UniformDataHasFlowLengthNearOne) {
  auto gen = UniformGenerator::Make(*Schema::Default(4), 1000, 23);
  ASSERT_TRUE(gen.ok());
  const Trace trace = Trace::Generate(**gen, 200000, 10.0);
  TraceStats stats(&trace);
  const double l = stats.AvgFlowLength(AttributeSet::Of({0, 1, 2, 3}));
  EXPECT_GE(l, 1.0);
  EXPECT_LT(l, 1.3);
  EXPECT_TRUE(stats.LooksUnclustered());
}

TEST(TraceStatsTest, FlowDataRecoversMeanFlowLength) {
  FlowGeneratorOptions options;
  options.mean_flow_length = 25.0;
  options.seed = 17;
  auto gen = FlowGenerator::MakePaperTrace(options);
  ASSERT_TRUE(gen.ok());
  const Trace trace = Trace::Generate(**gen, 400000, 62.0);
  TraceStats stats(&trace);
  const double l = stats.AvgFlowLength(AttributeSet::Of({0, 1, 2, 3}));
  // With flow ids present the value is exact records/flows, which
  // concentrates around the generator's configured mean of 25.
  EXPECT_GT(l, 25.0 * 0.85);
  EXPECT_LT(l, 25.0 * 1.15);
  EXPECT_FALSE(stats.LooksUnclustered());
}

TEST(TraceStatsTest, CachingIsConsistent) {
  auto gen = UniformGenerator::Make(*Schema::Default(3), 100, 29);
  ASSERT_TRUE(gen.ok());
  const Trace trace = Trace::Generate(**gen, 5000, 5.0);
  TraceStats stats(&trace);
  const AttributeSet ab = AttributeSet::Of({0, 1});
  EXPECT_EQ(stats.GroupCount(ab), stats.GroupCount(ab));
  EXPECT_DOUBLE_EQ(stats.AvgFlowLength(ab), stats.AvgFlowLength(ab));
}

}  // namespace
}  // namespace streamagg
