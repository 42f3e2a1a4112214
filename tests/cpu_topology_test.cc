// CPU topology discovery and affinity planning (util/cpu_topology.h). The
// planner is pure over a plain-data topology, so synthetic NUMA layouts can
// be tested exactly; Detect() is only sanity-checked against the live
// machine (the test must pass on any container).

#include "util/cpu_topology.h"

#include <gtest/gtest.h>

#include <set>

namespace streamagg {
namespace {

CpuTopology SyntheticTopology(int nodes, int cpus_per_node) {
  CpuTopology topology;
  int next = 0;
  for (int n = 0; n < nodes; ++n) {
    for (int c = 0; c < cpus_per_node; ++c) {
      topology.cpus.push_back(CpuInfo{next++, n});
    }
  }
  return topology;
}

TEST(CpuTopologyTest, ParseCpuListHandlesRangesAndSingles) {
  EXPECT_EQ(CpuTopology::ParseCpuList("0-3"),
            (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(CpuTopology::ParseCpuList("0-3,8,10-11"),
            (std::vector<int>{0, 1, 2, 3, 8, 10, 11}));
  EXPECT_EQ(CpuTopology::ParseCpuList("5"), (std::vector<int>{5}));
  EXPECT_EQ(CpuTopology::ParseCpuList(""), (std::vector<int>{}));
  // Malformed chunks are skipped, valid ones kept.
  EXPECT_EQ(CpuTopology::ParseCpuList("x,2,7-5,3"),
            (std::vector<int>{2, 3}));
}

TEST(CpuTopologyTest, DetectReturnsAtLeastOneCpu) {
  const CpuTopology topology = CpuTopology::Detect();
  ASSERT_GE(topology.num_cpus(), 1);
  ASSERT_GE(topology.num_nodes(), 1);
  // Sorted by (node, cpu) with no duplicate CPU ids.
  std::set<int> seen;
  int last_node = -1;
  for (const CpuInfo& cpu : topology.cpus) {
    EXPECT_GE(cpu.node, last_node);
    last_node = cpu.node;
    EXPECT_TRUE(seen.insert(cpu.cpu).second) << "duplicate cpu " << cpu.cpu;
  }
}

TEST(CpuTopologyTest, EmptyTopologyLeavesEverythingUnpinned) {
  const AffinityLayout layout = AffinityLayout::Plan(CpuTopology{}, 5);
  ASSERT_EQ(layout.shard_cpu.size(), 5u);
  for (int cpu : layout.shard_cpu) EXPECT_EQ(cpu, -1);
  for (int node : layout.shard_node) EXPECT_EQ(node, -1);
}

TEST(CpuTopologyTest, ShardsFillTheDriversNodeFirst) {
  const CpuTopology topology = SyntheticTopology(2, 4);  // 8 CPUs, 2 nodes.
  const AffinityLayout layout = AffinityLayout::Plan(topology, 4);
  // CPU 0 is left to the unpinned driver; the shards take node 0's other
  // three CPUs, then the first of node 1.
  EXPECT_EQ(layout.shard_cpu, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(layout.shard_node, (std::vector<int>{0, 0, 0, 1}));
}

TEST(CpuTopologyTest, ShardsSpillToNextNodeWhenPreferredIsFull) {
  // 2 nodes x 2 CPUs and 3 shards: only one fits beside the driver on node
  // 0; the rest spill.
  const CpuTopology topology = SyntheticTopology(2, 2);
  const AffinityLayout layout = AffinityLayout::Plan(topology, 3);
  EXPECT_EQ(layout.shard_node[0], 0);  // Fits beside the driver.
  EXPECT_EQ(layout.shard_node[1], 1);  // Node 0 full: spills.
  EXPECT_EQ(layout.shard_node[2], 1);
}

TEST(CpuTopologyTest, OverflowThreadsStayUnpinned) {
  // More threads than CPUs: the overflow must stay unpinned (-1), never
  // stacked onto an already-assigned CPU or the driver's.
  const CpuTopology topology = SyntheticTopology(1, 3);
  const AffinityLayout layout = AffinityLayout::Plan(topology, 4);
  EXPECT_EQ(layout.shard_cpu, (std::vector<int>{1, 2, -1, -1}));
}

TEST(CpuTopologyTest, PinCurrentThreadRejectsNegativeCpu) {
  EXPECT_FALSE(PinCurrentThreadToCpu(-1));
}

TEST(CpuTopologyTest, PinCurrentThreadToDetectedCpu) {
#if defined(__linux__)
  const CpuTopology topology = CpuTopology::Detect();
  ASSERT_GE(topology.num_cpus(), 1);
  // Pinning to a detected CPU should succeed on Linux (the test process is
  // allowed to restrict its own mask).
  EXPECT_TRUE(PinCurrentThreadToCpu(topology.cpus.front().cpu));
#else
  GTEST_SKIP() << "thread pinning is Linux-only";
#endif
}

}  // namespace
}  // namespace streamagg
