#ifndef STREAMAGG_DSMS_HFTA_H_
#define STREAMAGG_DSMS_HFTA_H_

#include <cstdint>
#include <map>
#include <vector>

#include "stream/aggregate.h"
#include "stream/group_table.h"
#include "stream/record.h"

namespace streamagg {

/// Per-epoch aggregation result of one query: group -> partial-free final
/// state (count plus the query's declared metrics), in a flat GroupTable
/// that iterates in insertion order. An insert invalidates references into
/// the table (stream/group_table.h).
using EpochAggregate = GroupTable;

/// Every epoch's aggregate of one query, in increasing epoch order.
using EpochResults = std::map<uint64_t, EpochAggregate>;

/// The high-level query node (paper Section 2.1): receives partial
/// {group, state} entries evicted from the LFTA and combines entries for the
/// same group and epoch into the final query answers. Each (query, epoch)
/// result is one GroupTable: keys and states in flat vectors behind an
/// open-addressing index, so a transfer that creates a group appends to
/// memory the table already holds instead of allocating a node.
class Hfta {
 public:
  /// Count-only queries (the paper's setting).
  explicit Hfta(int num_queries)
      : Hfta(std::vector<std::vector<MetricSpec>>(
            static_cast<size_t>(num_queries))) {}

  /// One metric list per query; incoming states must follow it.
  explicit Hfta(std::vector<std::vector<MetricSpec>> per_query_metrics)
      : metrics_(std::move(per_query_metrics)),
        per_query_(metrics_.size()),
        rows_(metrics_.size(), 0),
        bytes_(metrics_.size(), 0),
        targets_(metrics_.size()) {}

  /// Accepts one evicted entry for `query_index` in `epoch`, merging it
  /// with any partial state already held for the group. Each call models
  /// one LFTA-to-HFTA transfer (cost c2 in the paper's model). A query's
  /// transfers overwhelmingly target its current epoch, while consecutive
  /// transfers alternate between queries, so each query caches its last
  /// target aggregate and skips the std::map lookup while the epoch stays
  /// the same. Safe because std::map mapped references are stable under
  /// insertion, and every operation that moves or drops a query's maps
  /// (Remap, TakeQuery, DrainFrom, copy and move) resets the targets.
  void Add(int query_index, uint64_t epoch, const GroupKey& key,
           const AggregateState& state) {
    AddTarget& target = targets_.slots[static_cast<size_t>(query_index)];
    if (target.aggregate == nullptr || target.epoch != epoch) {
      target.aggregate = &EpochTable(query_index, epoch);
      target.epoch = epoch;
    }
    Fold(query_index, target.aggregate, key, state);
    ++transfers_;
  }

  int num_queries() const { return static_cast<int>(per_query_.size()); }
  const std::vector<MetricSpec>& query_metrics(int query_index) const {
    return metrics_[query_index];
  }
  /// Every query's metric list, by query index.
  const std::vector<std::vector<MetricSpec>>& layout() const {
    return metrics_;
  }

  /// Total number of LFTA-to-HFTA transfers observed (c2 operations).
  uint64_t transfers() const { return transfers_; }

  /// Telemetry gauge: distinct (group, epoch) result rows currently held
  /// for `query_index` — the HFTA's memory pressure for that query. O(1):
  /// every operation that inserts, moves or drops rows keeps the count.
  uint64_t TotalGroups(int query_index) const {
    return rows_[query_index];
  }

  /// Telemetry gauge: bytes the epoch tables of `query_index` hold (keys,
  /// states and index, by capacity; GroupTable::bytes). O(1) like
  /// TotalGroups: every insert that grows a table adds its growth.
  uint64_t TotalBytes(int query_index) const {
    return bytes_[query_index];
  }

  /// Epochs for which `query_index` received any data, in increasing order.
  std::vector<uint64_t> Epochs(int query_index) const;

  /// Final aggregate of `query_index` for `epoch` (empty if none).
  const EpochAggregate& Result(int query_index, uint64_t epoch) const;

  /// Sums counts over all groups for a query/epoch (equals the number of
  /// records in that epoch when the pipeline is lossless).
  uint64_t TotalCount(int query_index, uint64_t epoch) const;

  /// Folds all of `other`'s results into this HFTA (same query set and
  /// metric lists required). Transfer counts are accumulated as well.
  void MergeFrom(const Hfta& other);

  /// MergeFrom that empties `other`: its rows and transfer count move into
  /// this HFTA, and it keeps its query slots. Epochs this HFTA lacks are
  /// spliced over without copying. ShardedRuntime's barrier drains each
  /// replica's private HFTA into the results this way.
  void DrainFrom(Hfta* other);

  /// Moves every epoch of `query_index` out and leaves the slot empty; a
  /// later Add starts afresh. Archives a dropped query without a copy.
  EpochResults TakeQuery(int query_index);

  /// Rewires the query slots after churn: slot `i` of the remapped HFTA
  /// adopts the results and metric list of old slot `source[i]`, or starts
  /// empty with metrics `new_metrics[i]` when `source[i]` is -1 (a freshly
  /// added query). Old slots not named by `source` are discarded (dropped
  /// queries). Resets every Add target: they point into the per-query maps
  /// this call reshapes, so a stale one would write a dropped query's
  /// groups into freed storage.
  void Remap(std::vector<std::vector<MetricSpec>> new_metrics,
             const std::vector<int>& source);

 private:
  /// The table of `query_index` for `epoch`. A new one is sized for as
  /// many rows as the query's previous epoch holds, so the flush appends
  /// into memory already allocated instead of growing row by row.
  EpochAggregate& EpochTable(int query_index, uint64_t epoch);

  /// Folds {key, state} into `table`, one of `query_index`'s epoch
  /// tables, keeping its row and byte counts.
  void Fold(int query_index, EpochAggregate* table, const GroupKey& key,
            const AggregateState& state) {
    const uint64_t bytes = table->bytes();
    auto [it, inserted] = table->try_emplace(key, state);
    if (inserted) {
      ++rows_[query_index];
      bytes_[query_index] += table->bytes() - bytes;
    } else {
      it->second.Merge(state, metrics_[query_index]);
    }
  }

  /// One query's cached Add target; see Add.
  struct AddTarget {
    EpochAggregate* aggregate = nullptr;
    uint64_t epoch = 0;
  };
  /// One AddTarget per query slot. Copying or moving an HFTA never carries
  /// them over (a copied one would alias the source's maps): these copy
  /// operations, which moves also use, start every target empty.
  struct AddTargets {
    explicit AddTargets(size_t n) : slots(n) {}
    AddTargets(const AddTargets& o) : slots(o.slots.size()) {}
    AddTargets& operator=(const AddTargets& o) {
      slots.assign(o.slots.size(), AddTarget{});
      return *this;
    }
    std::vector<AddTarget> slots;
  };

  std::vector<std::vector<MetricSpec>> metrics_;
  std::vector<EpochResults> per_query_;
  /// Rows held per query: the sum of its epochs' sizes (TotalGroups).
  std::vector<uint64_t> rows_;
  /// Bytes held per query: the sum of its epochs' bytes() (TotalBytes).
  std::vector<uint64_t> bytes_;
  uint64_t transfers_ = 0;
  AddTargets targets_;
  EpochAggregate empty_;
};

}  // namespace streamagg

#endif  // STREAMAGG_DSMS_HFTA_H_
