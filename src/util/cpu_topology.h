#ifndef STREAMAGG_UTIL_CPU_TOPOLOGY_H_
#define STREAMAGG_UTIL_CPU_TOPOLOGY_H_

#include <string>
#include <vector>

namespace streamagg {

/// One online logical CPU as seen by the scheduler.
struct CpuInfo {
  int cpu = 0;   ///< Logical CPU id (the id taskset/pthread affinity uses).
  int node = 0;  ///< NUMA node the CPU belongs to (0 on non-NUMA machines).
};

/// The machine's CPU/NUMA layout, as much of it as the platform exposes.
/// Discovery reads Linux sysfs (/sys/devices/system/node/node*/cpulist,
/// falling back to /sys/devices/system/cpu/online); on other platforms, or
/// when sysfs is unreadable, it degrades to hardware_concurrency() CPUs on
/// one node. The struct itself is plain data so affinity planning
/// (AffinityLayout::Plan) can be unit-tested against synthetic topologies.
struct CpuTopology {
  std::vector<CpuInfo> cpus;  ///< Online CPUs, sorted by (node, cpu).

  int num_cpus() const { return static_cast<int>(cpus.size()); }
  /// Number of distinct NUMA nodes (0 for an empty topology).
  int num_nodes() const;

  /// Discovers the live machine's topology. Never fails: the worst case is
  /// a single synthetic CPU on node 0.
  static CpuTopology Detect();

  /// Parses a sysfs-style CPU list ("0-3,8,10-11") into ids. Exposed for
  /// tests; malformed chunks are skipped.
  static std::vector<int> ParseCpuList(const std::string& text);
};

/// Placement of the shard workers of a threaded runtime
/// (dsms/sharded_runtime.h) onto a topology. The driver thread feeds every
/// shard and is never pinned; the planner leaves it the first CPU of the
/// first node and hands the shards the CPUs after it in node order, so the
/// workers fill the driver's node — where the queues they read are written
/// — before they spill to the next one. A CPU id of -1 means "leave the
/// thread unpinned" (more threads than CPUs, or an empty topology).
struct AffinityLayout {
  std::vector<int> shard_cpu;   ///< CPU per shard worker, -1 = unpinned.
  std::vector<int> shard_node;  ///< Node per shard worker, -1 = unknown.

  /// Plans a layout for `num_shards` workers over `topology`. Overflow
  /// threads stay unpinned rather than stacking onto an assigned CPU.
  static AffinityLayout Plan(const CpuTopology& topology, int num_shards);
};

/// Pins the calling thread to `cpu`. Returns true on success; on non-Linux
/// platforms (or when the kernel rejects the mask) it is a no-op returning
/// false — affinity is an optimization, never a correctness requirement.
bool PinCurrentThreadToCpu(int cpu);

}  // namespace streamagg

#endif  // STREAMAGG_UTIL_CPU_TOPOLOGY_H_
