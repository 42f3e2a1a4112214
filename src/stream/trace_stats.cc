#include "stream/trace_stats.h"

#include <algorithm>
#include <vector>

#include "stream/group_table.h"
#include "util/hash.h"
#include "util/math.h"

namespace streamagg {

uint64_t TraceStats::GroupCount(AttributeSet set) {
  auto it = group_count_cache_.find(set.mask());
  if (it != group_count_cache_.end()) return it->second;
  uint64_t count = 0;
  if (set.empty()) {
    count = 1;
  } else {
    GroupTable seen;
    seen.reserve(trace_->size() / 4 + 16);
    for (const Record& r : trace_->records()) {
      seen.try_emplace(GroupKey::Project(r, set));
    }
    count = seen.size();
  }
  group_count_cache_.emplace(set.mask(), count);
  return count;
}

double TraceStats::AvgFlowLength(AttributeSet set) {
  auto it = flow_length_cache_.find(set.mask());
  if (it != flow_length_cache_.end()) return it->second;

  const size_t n = trace_->size();
  double result = 1.0;
  if (trace_->has_flow_ids() && n > 0) {
    // Exact: records per flow, from the flow boundaries recorded in the
    // trace (the paper derives flow length "temporally" from its tcpdump
    // data; our generator records the ground truth directly). The flows
    // are the trace's, whatever the attribute set, so count them once.
    if (num_flows_ == 0) {
      std::vector<uint32_t> ids = trace_->flow_ids();
      std::sort(ids.begin(), ids.end());
      num_flows_ = static_cast<uint64_t>(
          std::unique(ids.begin(), ids.end()) - ids.begin());
    }
    result = static_cast<double>(n) / static_cast<double>(num_flows_);
    flow_length_cache_.emplace(set.mask(), result);
    return result;
  }
  const uint64_t g = GroupCount(set);
  if (g >= 2 && n > 0) {
    // Probe a single-slot table with b = g buckets and measure the empirical
    // collision rate; under the clustered model x_emp = x_random(g, b) / l_a
    // (paper Equation 15), so l_a = x_random / x_emp.
    const uint64_t b = g;
    struct Slot {
      GroupKey key;
      bool occupied = false;
    };
    std::vector<Slot> table(b);
    const uint64_t seed = 0x666c6f77ULL;  // Fixed seed: estimates are cached.
    uint64_t collisions = 0;
    for (const Record& r : trace_->records()) {
      GroupKey key = GroupKey::Project(r, set);
      Slot& slot = table[HashWords(key.values.data(), key.size, seed) % b];
      if (!slot.occupied) {
        slot.key = key;
        slot.occupied = true;
      } else if (!(slot.key == key)) {
        ++collisions;
        slot.key = key;
      }
    }
    const double x_emp =
        static_cast<double>(collisions) / static_cast<double>(n);
    const double x_model = RandomHashCollisionRate(static_cast<double>(g),
                                                   static_cast<double>(b));
    const double upper =
        std::max(1.0, static_cast<double>(n) / static_cast<double>(g));
    if (x_emp <= 0.0) {
      result = upper;
    } else {
      result = std::clamp(x_model / x_emp, 1.0, upper);
    }
  }
  flow_length_cache_.emplace(set.mask(), result);
  return result;
}

bool TraceStats::LooksUnclustered() {
  const AttributeSet all = trace_->schema().AllAttributes();
  return AvgFlowLength(all) < 1.5;
}

}  // namespace streamagg
