#include "util/cpu_topology.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace streamagg {

namespace {

/// Reads one line of a sysfs file; empty string when unreadable.
std::string ReadSysfsLine(const std::string& path) {
  std::ifstream file(path);
  if (!file) return {};
  std::string line;
  std::getline(file, line);
  return line;
}

CpuTopology FallbackTopology() {
  CpuTopology topology;
  unsigned n = std::thread::hardware_concurrency();
  if (n == 0) n = 1;
  topology.cpus.reserve(n);
  for (unsigned c = 0; c < n; ++c) {
    topology.cpus.push_back(CpuInfo{static_cast<int>(c), 0});
  }
  return topology;
}

}  // namespace

std::vector<int> CpuTopology::ParseCpuList(const std::string& text) {
  std::vector<int> cpus;
  std::stringstream stream(text);
  std::string chunk;
  while (std::getline(stream, chunk, ',')) {
    if (chunk.empty()) continue;
    const size_t dash = chunk.find('-');
    char* end = nullptr;
    if (dash == std::string::npos) {
      const long cpu = std::strtol(chunk.c_str(), &end, 10);
      if (end != chunk.c_str() && cpu >= 0) cpus.push_back(static_cast<int>(cpu));
      continue;
    }
    const long lo = std::strtol(chunk.substr(0, dash).c_str(), &end, 10);
    const std::string hi_text = chunk.substr(dash + 1);
    const long hi = std::strtol(hi_text.c_str(), &end, 10);
    if (lo < 0 || hi < lo) continue;
    for (long cpu = lo; cpu <= hi; ++cpu) cpus.push_back(static_cast<int>(cpu));
  }
  return cpus;
}

int CpuTopology::num_nodes() const {
  int max_node = -1;
  for (const CpuInfo& cpu : cpus) max_node = std::max(max_node, cpu.node);
  return max_node + 1;
}

CpuTopology CpuTopology::Detect() {
  CpuTopology topology;
  // Preferred source: per-node cpulists give CPU ids and node membership in
  // one read. Nodes are probed densely from 0; a gap ends the scan (sysfs
  // node ids are dense on every kernel we care about).
  for (int node = 0;; ++node) {
    const std::string list = ReadSysfsLine(
        "/sys/devices/system/node/node" + std::to_string(node) + "/cpulist");
    if (list.empty()) break;
    for (int cpu : ParseCpuList(list)) {
      topology.cpus.push_back(CpuInfo{cpu, node});
    }
  }
  if (topology.cpus.empty()) {
    // Non-NUMA sysfs layout or masked /sys: take the online list as one node.
    for (int cpu :
         ParseCpuList(ReadSysfsLine("/sys/devices/system/cpu/online"))) {
      topology.cpus.push_back(CpuInfo{cpu, 0});
    }
  }
  if (topology.cpus.empty()) return FallbackTopology();
  std::sort(topology.cpus.begin(), topology.cpus.end(),
            [](const CpuInfo& a, const CpuInfo& b) {
              return a.node != b.node ? a.node < b.node : a.cpu < b.cpu;
            });
  topology.cpus.erase(
      std::unique(topology.cpus.begin(), topology.cpus.end(),
                  [](const CpuInfo& a, const CpuInfo& b) {
                    return a.cpu == b.cpu;
                  }),
      topology.cpus.end());
  return topology;
}

AffinityLayout AffinityLayout::Plan(const CpuTopology& topology,
                                    int num_shards) {
  AffinityLayout layout;
  layout.shard_cpu.assign(static_cast<size_t>(num_shards), -1);
  layout.shard_node.assign(static_cast<size_t>(num_shards), -1);
  std::vector<CpuInfo> order = topology.cpus;
  std::stable_sort(order.begin(), order.end(),
                   [](const CpuInfo& a, const CpuInfo& b) {
                     return a.node < b.node;
                   });
  // order[0] is the driver's; shard s takes the next CPU in node order.
  for (size_t s = 0; s < layout.shard_cpu.size() && s + 1 < order.size();
       ++s) {
    layout.shard_cpu[s] = order[s + 1].cpu;
    layout.shard_node[s] = order[s + 1].node;
  }
  return layout;
}

bool PinCurrentThreadToCpu(int cpu) {
#if defined(__linux__)
  if (cpu < 0) return false;
  cpu_set_t mask;
  CPU_ZERO(&mask);
  CPU_SET(static_cast<unsigned>(cpu), &mask);
  return pthread_setaffinity_np(pthread_self(), sizeof(mask), &mask) == 0;
#else
  (void)cpu;
  return false;
#endif
}

}  // namespace streamagg
