#ifndef STREAMAGG_DSMS_LFTA_HASH_TABLE_H_
#define STREAMAGG_DSMS_LFTA_HASH_TABLE_H_

#include <cstdint>
#include <vector>

#include "obs/metrics.h"
#include "stream/aggregate.h"
#include "stream/record.h"
#include "util/dcheck.h"
#include "util/hash.h"
#include "util/status.h"

namespace streamagg {

/// Outcome of probing an LFTA hash table with a group key.
enum class ProbeOutcome {
  kInserted,  ///< Bucket was empty; the group was installed.
  kUpdated,   ///< Bucket held the same group; its state was merged.
  kCollision, ///< Bucket held a different group; it was evicted and replaced.
};

/// Gigascope-style low-level aggregation hash table (paper Section 2.2):
/// one {group, state} entry per bucket, where the state is the running
/// count(*) plus any additional distributive metrics (sum/min/max of an
/// attribute). A probe either merges into the resident group, installs into
/// an empty bucket, or *collides* — evicting the resident entry so the
/// caller can propagate it (to the HFTA, or to fed relations when phantoms
/// are configured).
///
/// Memory accounting follows the paper: each bucket stores `key_width`
/// 4-byte attribute words, one 4-byte counter, and kMetricWords words per
/// metric, so a table occupies
/// num_buckets * (key_width + 1 + kMetricWords * metrics) words.
class LftaHashTable {
 public:
  /// Creates a count-only table (the paper's setting).
  LftaHashTable(uint64_t num_buckets, int key_width, uint64_t seed)
      : LftaHashTable(num_buckets, key_width, {}, seed) {}

  /// Creates a table maintaining count(*) plus `metrics`.
  /// Requires num_buckets >= 1, 1 <= key_width <= kMaxAttributes and at
  /// most kMaxMetrics metrics.
  LftaHashTable(uint64_t num_buckets, int key_width,
                std::vector<MetricSpec> metrics, uint64_t seed);

  LftaHashTable(const LftaHashTable&) = delete;
  LftaHashTable& operator=(const LftaHashTable&) = delete;
  LftaHashTable(LftaHashTable&&) = default;
  LftaHashTable& operator=(LftaHashTable&&) = default;

  /// Probes with `key`, folding `add` into its running state (record-level
  /// probes pass AggregateState::FromRecord or FromCount(1); probes fed by
  /// a parent's eviction carry the evicted partial state). On kCollision
  /// the displaced entry is written to *evicted_key / *evicted_state before
  /// the new group is installed. `add.num_metrics` must match the table's
  /// metric count.
  ProbeOutcome ProbeState(const GroupKey& key, const AggregateState& add,
                          GroupKey* evicted_key, AggregateState* evicted_state) {
    return ProbeStateAt(BucketOf(key), key, add, evicted_key, evicted_state);
  }

  /// Count-only convenience for tables without metrics.
  ProbeOutcome Probe(const GroupKey& key, uint64_t add_count,
                     GroupKey* evicted_key, uint64_t* evicted_count);

  /// The bucket `key` maps to: the shared hash + fast-range helper
  /// (util/hash.h BucketOfWords), which the batched columnar kernel also
  /// resolves buckets through — one inlined mapping, no drift between the
  /// single-record and batched paths.
  uint64_t BucketOf(const GroupKey& key) const {
    return BucketOfWords(key.values.data(), static_cast<size_t>(key.size),
                         seed_, num_buckets_);
  }

  /// The fast-range bucket of a precomputed 64-bit key hash (the batched
  /// kernel hashes whole chunks up front via HashWordsBatch).
  uint64_t BucketOfHash(uint64_t hash) const {
    return FastRange64(hash, num_buckets_);
  }

  uint64_t seed() const { return seed_; }

  /// Hints the prefetcher at `bucket`'s slot. Batched ingest computes each
  /// chunk's buckets up front, prefetches them, then probes — by the time a
  /// probe touches its slot the line is (ideally) already in cache.
  void Prefetch(uint64_t bucket) const {
    __builtin_prefetch(SlotAt(bucket), /*rw=*/1, /*locality=*/3);
  }

  /// ProbeState with a precomputed bucket (must equal BucketOf(key)); lets
  /// batch loops hash/prefetch ahead without hashing twice. Defined inline
  /// below so the batched chunk loop can inline the whole probe and hoist
  /// the table-constant loads (key_width_, slot base, metric specs) out of
  /// its per-record iteration.
  ProbeOutcome ProbeStateAt(uint64_t bucket, const GroupKey& key,
                            const AggregateState& add, GroupKey* evicted_key,
                            AggregateState* evicted_state);

  // --- Batched columnar probe API (docs/probe_kernel.md §2) ---------------
  // The chunked kernel classifies every bucket of a chunk against the
  // resident slots, then applies the outcomes in record order. Split from
  // ProbeStateAt so the classify pass is a pure read sweep; each Apply
  // method replicates the counter effects of the matching ProbeStateAt
  // branch exactly, so a classify+apply sequence is bit-identical to the
  // serial probe. A classification is stale once an earlier record of the
  // chunk *inserted into or collided on* the same bucket (merges leave the
  // resident key and occupancy untouched); the kernel tracks those dirty
  // buckets and falls back to ProbeStateAt for them.

  /// What a probe of `bucket` with `key` would find, without modifying
  /// anything.
  enum class SlotClass : uint8_t { kEmpty, kMatch, kMismatch };
  SlotClass ClassifySlot(uint64_t bucket, const GroupKey& key) const {
    const uint32_t* slot = SlotAt(bucket);
    if (slot[key_width_] == 0) return SlotClass::kEmpty;
    for (int i = 0; i < key_width_; ++i) {
      if (slot[i] != key.values[i]) return SlotClass::kMismatch;
    }
    return SlotClass::kMatch;
  }

  /// The kInserted branch of ProbeStateAt for a bucket classified kEmpty.
  void ApplyInsert(uint64_t bucket, const GroupKey& key,
                   const AggregateState& add) {
    ++probes_;
    StoreEntry(SlotAt(bucket), key, add);
    ++occupied_;
    STREAMAGG_TELEMETRY_COUNTERS(
        if (occupied_ > occupied_hwm_) occupied_hwm_ = occupied_;);
  }

  /// The kUpdated branch of ProbeStateAt for a bucket classified kMatch.
  void ApplyMerge(uint64_t bucket, const AggregateState& add) {
    ++probes_;
    ++updates_;
    MergeSlot(SlotAt(bucket), add);
  }

  /// The kCollision branch of ProbeStateAt for a bucket classified
  /// kMismatch: the resident entry lands in *evicted_key / *evicted_state.
  void ApplyCollision(uint64_t bucket, const GroupKey& key,
                      const AggregateState& add, GroupKey* evicted_key,
                      AggregateState* evicted_state) {
    ++probes_;
    ++collisions_;
    uint32_t* slot = SlotAt(bucket);
    LoadEntry(slot, evicted_key, evicted_state);
    StoreEntry(slot, key, add);
  }

  /// Invokes fn(key, state) for every occupied bucket, then empties the
  /// table. Used for end-of-epoch processing (paper Section 3.2.2).
  template <typename Fn>
  void FlushState(Fn&& fn) {
    STREAMAGG_TELEMETRY_COUNTERS(flushed_entries_ += occupied_; ++flushes_;);
    for (uint64_t bucket = 0; bucket < num_buckets_; ++bucket) {
      uint32_t* slot = SlotAt(bucket);
      if (slot[key_width_] == 0) continue;
      GroupKey key;
      AggregateState state;
      LoadEntry(slot, &key, &state);
      slot[key_width_] = 0;
      fn(key, state);
    }
    occupied_ = 0;
  }

  /// Count-only flush convenience: fn(key, count).
  template <typename Fn>
  void Flush(Fn&& fn) {
    FlushState([&](const GroupKey& key, const AggregateState& state) {
      fn(key, state.count);
    });
  }

  /// Invokes fn(key, count) for every occupied bucket without clearing.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (uint64_t bucket = 0; bucket < num_buckets_; ++bucket) {
      const uint32_t* slot = SlotAt(bucket);
      if (slot[key_width_] == 0) continue;
      GroupKey key;
      AggregateState state;
      LoadEntry(slot, &key, &state);
      fn(key, state.count);
    }
  }

  uint64_t num_buckets() const { return num_buckets_; }
  int key_width() const { return key_width_; }
  const std::vector<MetricSpec>& metrics() const { return metrics_; }
  int slot_words() const { return slot_words_; }
  /// Total LFTA memory footprint in 4-byte words.
  uint64_t memory_words() const {
    return num_buckets_ * static_cast<uint64_t>(slot_words_);
  }
  uint64_t occupied_buckets() const { return occupied_; }

  // Lifetime statistics (monotonic; not reset by Flush).
  uint64_t probes() const { return probes_; }
  uint64_t collisions() const { return collisions_; }
  uint64_t updates() const { return updates_; }
  /// Inserts into empty buckets = probes - updates - collisions.
  uint64_t inserts() const { return probes_ - updates_ - collisions_; }
  // Telemetry tallies (docs/observability.md); frozen at their last value
  // when compiled out with STREAMAGG_TELEMETRY_LEVEL=0.
  /// Highest simultaneous occupancy ever reached.
  uint64_t occupied_hwm() const { return occupied_hwm_; }
  /// Total entries drained by FlushState/Flush calls.
  uint64_t flushed_entries() const { return flushed_entries_; }
  /// Number of FlushState/Flush calls.
  uint64_t flushes() const { return flushes_; }
  /// Empirical collision rate = collisions / probes (0 when unprobed).
  double CollisionRate() const {
    return probes_ == 0
               ? 0.0
               : static_cast<double>(collisions_) / static_cast<double>(probes_);
  }
  void ResetStats();

 private:
  uint32_t* SlotAt(uint64_t bucket) {
    return slots_.data() + bucket * static_cast<uint64_t>(slot_words_);
  }
  const uint32_t* SlotAt(uint64_t bucket) const {
    return slots_.data() + bucket * static_cast<uint64_t>(slot_words_);
  }
  void LoadEntry(const uint32_t* slot, GroupKey* key,
                 AggregateState* state) const;
  void StoreEntry(uint32_t* slot, const GroupKey& key,
                  const AggregateState& state);
  /// Folds `add` directly into an occupied slot's count/metric words — the
  /// kUpdated fast path, skipping the LoadEntry/Merge/StoreEntry round trip
  /// (no GroupKey copy, no rewrite of the key words).
  void MergeSlot(uint32_t* slot, const AggregateState& add);
  uint64_t num_buckets_;
  int key_width_;
  std::vector<MetricSpec> metrics_;
  int slot_words_;
  uint64_t seed_;
  /// Bucket layout: key_width attribute words, one count word (zero marks
  /// an empty bucket; live counts are clamped to >= 1), then kMetricWords
  /// words per metric (64-bit states split into two words).
  std::vector<uint32_t> slots_;
  uint64_t occupied_ = 0;

  // probes_/collisions_/updates_ are load-bearing (CollisionRate feeds the
  // adaptive controller), so they stay unconditional; the tallies below are
  // telemetry-only and compile out at STREAMAGG_TELEMETRY_LEVEL=0.
  uint64_t probes_ = 0;
  uint64_t collisions_ = 0;
  uint64_t updates_ = 0;
  uint64_t occupied_hwm_ = 0;
  uint64_t flushed_entries_ = 0;
  uint64_t flushes_ = 0;
};

inline void LftaHashTable::LoadEntry(const uint32_t* slot, GroupKey* key,
                                     AggregateState* state) const {
  key->size = static_cast<uint8_t>(key_width_);
  for (int i = 0; i < key_width_; ++i) key->values[i] = slot[i];
  state->count = slot[key_width_];
  state->num_metrics = static_cast<uint8_t>(metrics_.size());
  for (size_t m = 0; m < metrics_.size(); ++m) {
    const uint32_t lo = slot[key_width_ + 1 + 2 * m];
    const uint32_t hi = slot[key_width_ + 2 + 2 * m];
    state->metrics[m] = (static_cast<uint64_t>(hi) << 32) | lo;
  }
}

inline void LftaHashTable::StoreEntry(uint32_t* slot, const GroupKey& key,
                                      const AggregateState& state) {
  for (int i = 0; i < key_width_; ++i) slot[i] = key.values[i];
  // The count word doubles as the occupancy marker: clamp into
  // [1, UINT32_MAX] (counts are bounded by the trace length in practice).
  uint64_t count = state.count;
  if (count == 0) count = 1;
  if (count > 0xffffffffull) count = 0xffffffffull;
  slot[key_width_] = static_cast<uint32_t>(count);
  for (size_t m = 0; m < metrics_.size(); ++m) {
    slot[key_width_ + 1 + 2 * m] = static_cast<uint32_t>(state.metrics[m]);
    slot[key_width_ + 2 + 2 * m] =
        static_cast<uint32_t>(state.metrics[m] >> 32);
  }
}

inline void LftaHashTable::MergeSlot(uint32_t* slot,
                                     const AggregateState& add) {
  // Count word: 64-bit accumulate, clamped to the 32-bit slot word exactly
  // as StoreEntry would (the word doubles as the occupancy marker, and the
  // resident count is >= 1 so the sum never clamps to 0).
  uint64_t count = static_cast<uint64_t>(slot[key_width_]) + add.count;
  if (count > 0xffffffffull) count = 0xffffffffull;
  slot[key_width_] = static_cast<uint32_t>(count);
  for (size_t m = 0; m < metrics_.size(); ++m) {
    uint32_t* lo = &slot[key_width_ + 1 + 2 * m];
    uint32_t* hi = &slot[key_width_ + 2 + 2 * m];
    const uint64_t resident = (static_cast<uint64_t>(*hi) << 32) | *lo;
    uint64_t merged = resident;
    switch (metrics_[m].op) {
      case AggregateOp::kSum:
        merged = resident + add.metrics[m];
        break;
      case AggregateOp::kMin:
        merged = resident < add.metrics[m] ? resident : add.metrics[m];
        break;
      case AggregateOp::kMax:
        merged = resident > add.metrics[m] ? resident : add.metrics[m];
        break;
    }
    *lo = static_cast<uint32_t>(merged);
    *hi = static_cast<uint32_t>(merged >> 32);
  }
}

inline ProbeOutcome LftaHashTable::ProbeStateAt(uint64_t bucket,
                                                const GroupKey& key,
                                                const AggregateState& add,
                                                GroupKey* evicted_key,
                                                AggregateState* evicted_state) {
  STREAMAGG_DCHECK(key.size == key_width_);
  STREAMAGG_DCHECK(add.count >= 1);
  STREAMAGG_DCHECK(add.num_metrics == metrics_.size());
  STREAMAGG_DCHECK(bucket == BucketOf(key));
  ++probes_;
  uint32_t* slot = SlotAt(bucket);
  if (slot[key_width_] == 0) {
    StoreEntry(slot, key, add);
    ++occupied_;
    STREAMAGG_TELEMETRY_COUNTERS(
        if (occupied_ > occupied_hwm_) occupied_hwm_ = occupied_;);
    return ProbeOutcome::kInserted;
  }
  bool same = true;
  for (int i = 0; i < key_width_; ++i) {
    if (slot[i] != key.values[i]) {
      same = false;
      break;
    }
  }
  if (same) {
    MergeSlot(slot, add);
    ++updates_;
    return ProbeOutcome::kUpdated;
  }
  ++collisions_;
  if (evicted_key != nullptr || evicted_state != nullptr) {
    GroupKey rk;
    AggregateState rs;
    LoadEntry(slot, &rk, &rs);
    if (evicted_key != nullptr) *evicted_key = rk;
    if (evicted_state != nullptr) *evicted_state = rs;
  }
  StoreEntry(slot, key, add);
  return ProbeOutcome::kCollision;
}

}  // namespace streamagg

#endif  // STREAMAGG_DSMS_LFTA_HASH_TABLE_H_
