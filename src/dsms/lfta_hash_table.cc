#include "dsms/lfta_hash_table.h"

#include <cassert>
#include <utility>

#include "util/dcheck.h"

namespace streamagg {

LftaHashTable::LftaHashTable(uint64_t num_buckets, int key_width,
                             std::vector<MetricSpec> metrics, uint64_t seed)
    : num_buckets_(num_buckets),
      key_width_(key_width),
      metrics_(std::move(metrics)),
      slot_words_(key_width + 1 +
                  kMetricWords * static_cast<int>(metrics_.size())),
      seed_(seed) {
  assert(num_buckets >= 1);
  assert(key_width >= 1 && key_width <= kMaxAttributes);
  assert(metrics_.size() <= static_cast<size_t>(kMaxMetrics));
  slots_.assign(num_buckets_ * static_cast<uint64_t>(slot_words_), 0u);
}

ProbeOutcome LftaHashTable::Probe(const GroupKey& key, uint64_t add_count,
                                  GroupKey* evicted_key,
                                  uint64_t* evicted_count) {
  STREAMAGG_DCHECK(metrics_.empty() &&
                   "count-only Probe on a table with metrics; use ProbeState");
  AggregateState evicted;
  const ProbeOutcome outcome = ProbeState(
      key, AggregateState::FromCount(add_count), evicted_key,
      evicted_count != nullptr ? &evicted : nullptr);
  if (evicted_count != nullptr && outcome == ProbeOutcome::kCollision) {
    *evicted_count = evicted.count;
  }
  return outcome;
}

void LftaHashTable::ResetStats() {
  probes_ = 0;
  collisions_ = 0;
  updates_ = 0;
  occupied_hwm_ = occupied_;
  flushed_entries_ = 0;
  flushes_ = 0;
}

}  // namespace streamagg
