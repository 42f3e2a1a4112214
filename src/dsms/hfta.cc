#include "dsms/hfta.h"

#include <iterator>
#include <utility>

namespace streamagg {

std::vector<uint64_t> Hfta::Epochs(int query_index) const {
  std::vector<uint64_t> out;
  out.reserve(per_query_[query_index].size());
  for (const auto& [epoch, agg] : per_query_[query_index]) {
    out.push_back(epoch);
  }
  return out;
}

const EpochAggregate& Hfta::Result(int query_index, uint64_t epoch) const {
  const auto& epochs = per_query_[query_index];
  auto it = epochs.find(epoch);
  return it == epochs.end() ? empty_ : it->second;
}

EpochAggregate& Hfta::EpochTable(int query_index, uint64_t epoch) {
  EpochResults& epochs = per_query_[query_index];
  auto [it, created] = epochs.try_emplace(epoch);
  if (created) {
    if (it != epochs.begin()) it->second.reserve(std::prev(it)->second.size());
    bytes_[query_index] += it->second.bytes();
  }
  return it->second;
}

void Hfta::MergeFrom(const Hfta& other) {
  for (int q = 0; q < num_queries() && q < other.num_queries(); ++q) {
    for (const auto& [epoch, groups] : other.per_query_[q]) {
      EpochAggregate& into = per_query_[q][epoch];
      for (const auto& [key, state] : groups) Fold(q, &into, key, state);
    }
  }
  transfers_ += other.transfers_;
}

void Hfta::DrainFrom(Hfta* other) {
  // Splice the epochs this HFTA lacks, then merge those both hold. The
  // spliced rows and bytes are the source's counts less what stays behind
  // for the merge, which counts its own insertions.
  for (int q = 0; q < num_queries() && q < other->num_queries(); ++q) {
    per_query_[q].merge(other->per_query_[q]);
    uint64_t rows_left = 0;
    uint64_t bytes_left = 0;
    for (const auto& [epoch, groups] : other->per_query_[q]) {
      rows_left += groups.size();
      bytes_left += groups.bytes();
    }
    rows_[q] += other->rows_[q] - rows_left;
    bytes_[q] += other->bytes_[q] - bytes_left;
  }
  MergeFrom(*other);
  // A fresh HFTA: no rows, no transfers, and no targets into spliced nodes.
  *other = Hfta(other->metrics_);
}

EpochResults Hfta::TakeQuery(int query_index) {
  targets_.slots[static_cast<size_t>(query_index)] = AddTarget{};
  rows_[query_index] = 0;
  bytes_[query_index] = 0;
  return std::exchange(per_query_[query_index], EpochResults{});
}

void Hfta::Remap(std::vector<std::vector<MetricSpec>> new_metrics,
                 const std::vector<int>& source) {
  std::vector<EpochResults> remapped(new_metrics.size());
  std::vector<uint64_t> rows(new_metrics.size(), 0);
  std::vector<uint64_t> bytes(new_metrics.size(), 0);
  for (size_t i = 0; i < source.size() && i < remapped.size(); ++i) {
    const int from = source[i];
    if (from >= 0 && from < num_queries()) {
      remapped[i] = std::move(per_query_[from]);
      new_metrics[i] = metrics_[from];
      rows[i] = std::exchange(rows_[from], 0);
      bytes[i] = std::exchange(bytes_[from], 0);
    }
  }
  per_query_ = std::move(remapped);
  rows_ = std::move(rows);
  bytes_ = std::move(bytes);
  metrics_ = std::move(new_metrics);
  targets_ = AddTargets(per_query_.size());
}

uint64_t Hfta::TotalCount(int query_index, uint64_t epoch) const {
  uint64_t total = 0;
  for (const auto& [key, state] : Result(query_index, epoch)) {
    total += state.count;
  }
  return total;
}

}  // namespace streamagg
