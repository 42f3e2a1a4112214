#ifndef STREAMAGG_STREAM_RECORD_H_
#define STREAMAGG_STREAM_RECORD_H_

#include <array>
#include <cstdint>
#include <string>

#include "stream/attribute_set.h"
#include "util/dcheck.h"
#include "util/hash.h"

namespace streamagg {

/// A single stream tuple: up to kMaxAttributes 4-byte attribute values plus
/// a timestamp in seconds. Matches the paper's setup where every attribute
/// value is a 4-byte unit (Section 6.1).
struct Record {
  std::array<uint32_t, kMaxAttributes> values{};
  double timestamp = 0.0;

  uint32_t value(int index) const { return values[index]; }
};

/// The grouping key of a record projected onto an attribute set: the member
/// attribute values in increasing attribute order. Fixed-size and inline so
/// HFTA maps and reference aggregators avoid allocation.
struct GroupKey {
  std::array<uint32_t, kMaxAttributes> values{};
  uint8_t size = 0;

  /// Projects `record` onto `set`. Allocation-free (iterates the mask);
  /// per-relation hot loops should precompute a ProjectionPlan instead so
  /// the bit scan is hoisted out of the per-record path.
  static GroupKey Project(const Record& record, AttributeSet set) {
    GroupKey key;
    set.ForEachIndex(
        [&](int i) { key.values[key.size++] = record.values[i]; });
    return key;
  }

  /// Projects an existing key for attribute set `from` onto a subset `to`.
  /// Requires to ⊆ from.
  static GroupKey ProjectKey(const GroupKey& key, AttributeSet from,
                             AttributeSet to);

  bool operator==(const GroupKey& o) const {
    if (size != o.size) return false;
    for (uint8_t i = 0; i < size; ++i) {
      if (values[i] != o.values[i]) return false;
    }
    return true;
  }

  /// Orders keys by width, then word by word: a sort order for printing
  /// and checksums that does not depend on any table's order.
  bool operator<(const GroupKey& o) const {
    if (size != o.size) return size < o.size;
    for (uint8_t i = 0; i < size; ++i) {
      if (values[i] != o.values[i]) return values[i] < o.values[i];
    }
    return false;
  }

  /// Debug rendering, e.g. "(3,17)".
  std::string ToString() const;
};

/// A precomputed projection: which source positions feed each output key
/// word, fixed-size and branch-free so batched ingest loops carry no
/// allocation and no per-record bit scanning. Two flavours share the
/// representation: ForRecord plans read record attribute positions,
/// ForKey plans read positions within a wider parent key
/// (ConfigurationRuntime builds one per raw relation and one per
/// parent->child feeding edge at construction).
struct ProjectionPlan {
  std::array<uint8_t, kMaxAttributes> src{};
  uint8_t size = 0;

  /// Plan projecting a Record onto `set` (source positions are schema
  /// attribute indices).
  static ProjectionPlan ForRecord(AttributeSet set) {
    ProjectionPlan plan;
    set.ForEachIndex([&](int i) {
      plan.src[plan.size++] = static_cast<uint8_t>(i);
    });
    return plan;
  }

  /// Plan narrowing a key laid out per `from` onto the subset `to`
  /// (source positions are positions within the `from` key). Requires
  /// to ⊆ from.
  static ProjectionPlan ForKey(AttributeSet from, AttributeSet to) {
    STREAMAGG_DCHECK(to.IsSubsetOf(from));
    ProjectionPlan plan;
    uint8_t pos = 0;
    from.ForEachIndex([&](int i) {
      if (to.ContainsIndex(i)) plan.src[plan.size++] = pos;
      ++pos;
    });
    return plan;
  }

  GroupKey Apply(const uint32_t* values) const {
    GroupKey key;
    key.size = size;
    for (uint8_t i = 0; i < size; ++i) key.values[i] = values[src[i]];
    return key;
  }
  GroupKey Apply(const Record& record) const {
    return Apply(record.values.data());
  }
  GroupKey Apply(const GroupKey& key) const { return Apply(key.values.data()); }
};

/// Hash functor for GroupKey. GroupTable indexes its rows by the same hash
/// of the key words.
struct GroupKeyHash {
  static constexpr uint64_t kSeed = 0x5151bead5151beadULL;
  size_t operator()(const GroupKey& k) const {
    return static_cast<size_t>(HashWords(k.values.data(), k.size, kSeed));
  }
};

}  // namespace streamagg

#endif  // STREAMAGG_STREAM_RECORD_H_
