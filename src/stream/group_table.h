#ifndef STREAMAGG_STREAM_GROUP_TABLE_H_
#define STREAMAGG_STREAM_GROUP_TABLE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "stream/aggregate.h"
#include "stream/record.h"

namespace streamagg {

/// The one group -> state table of the system's results: an HFTA's
/// (query, epoch) aggregate, the reference aggregator's answers, rollups,
/// sliding windows and TraceStats' distinct-group counts.
///
/// Layout. Every key of a table has the table's one width (its first
/// insert sets it), so the keys sit back to back in one vector of 32-bit
/// words, `width` words per row. The states sit in a dense vector in
/// insertion order. An index of entry numbers, a power of two at load at
/// most one half, finds a key's row by linear probing. A row costs
/// 4 * width bytes of key, sizeof(AggregateState) = 48 of state and 8 to
/// 16 of index, against about 150 for a std::unordered_map node.
///
/// It keeps the std::unordered_map calls its callers use (size, find,
/// at, count, operator[], try_emplace, order-free ==, copy, move), with
/// these differences:
/// - Iteration visits rows in insertion order and yields
///   std::pair<GroupKey, AggregateState&> by value: the key is built from
///   the key vector, so a pointer to it dangles after that iteration.
/// - An insert may reallocate, so it invalidates every reference, pointer
///   and iterator into the table.
/// - A key of another width is never found; inserting one throws
///   std::invalid_argument.
/// - Rows are never erased.
class GroupTable {
 public:
  template <bool kConst>
  class Iterator;
  using iterator = Iterator<false>;
  using const_iterator = Iterator<true>;

  GroupTable() = default;
  /// A copy keeps the source's capacities, so it reports the same bytes()
  /// and takes as many rows before it grows.
  GroupTable(const GroupTable& other);
  GroupTable& operator=(const GroupTable& other);
  GroupTable(GroupTable&&) noexcept = default;
  GroupTable& operator=(GroupTable&&) noexcept = default;

  size_t size() const { return states_.size(); }
  bool empty() const { return states_.empty(); }

  /// Makes room for `rows` rows without growing. An empty table does not
  /// know its key width yet, so its first insert reserves the key words.
  void reserve(size_t rows);

  /// Bytes the table holds: keys, states and index, by capacity.
  size_t bytes() const {
    return (keys_.capacity() + index_.capacity()) * sizeof(uint32_t) +
           states_.capacity() * sizeof(AggregateState);
  }

  iterator begin() { return iterator(this, 0); }
  iterator end() { return iterator(this, size()); }
  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, size()); }

  iterator find(const GroupKey& key) { return iterator(this, Find(key)); }
  const_iterator find(const GroupKey& key) const {
    return const_iterator(this, Find(key));
  }
  size_t count(const GroupKey& key) const { return Find(key) < size(); }

  /// The state of `key`; throws std::out_of_range when the table lacks it.
  AggregateState& at(const GroupKey& key) { return states_[Checked(key)]; }
  const AggregateState& at(const GroupKey& key) const {
    return states_[Checked(key)];
  }

  /// The state of `key`, inserting a default state when absent.
  AggregateState& operator[](const GroupKey& key) {
    return states_[Insert(key, AggregateState{}).first];
  }

  /// Inserts {key, state} unless `key` is present. Returns the row and
  /// whether it was inserted.
  std::pair<iterator, bool> try_emplace(
      const GroupKey& key, const AggregateState& state = AggregateState{}) {
    const auto [entry, inserted] = Insert(key, state);
    return {iterator(this, entry), inserted};
  }

  /// Equal when both hold the same keys with equal states, in any order.
  friend bool operator==(const GroupTable& a, const GroupTable& b);

  /// A row: its key built by value, its state by reference.
  template <bool kConst>
  class Iterator {
   public:
    using Table = std::conditional_t<kConst, const GroupTable, GroupTable>;
    using State =
        std::conditional_t<kConst, const AggregateState, AggregateState>;
    using value_type = std::pair<GroupKey, State&>;
    using reference = value_type;
    using difference_type = std::ptrdiff_t;
    using iterator_category = std::forward_iterator_tag;
    /// What `it->` reaches through: the row, alive for the full expression.
    struct Arrow {
      value_type row;
      const value_type* operator->() const { return &row; }
    };

    Iterator() = default;
    Iterator(Table* table, size_t entry) : table_(table), entry_(entry) {}
    /// iterator converts to const_iterator.
    template <bool kOther, typename = std::enable_if_t<kConst && !kOther>>
    Iterator(const Iterator<kOther>& other)  // NOLINT: implicit by design.
        : table_(other.table_), entry_(other.entry_) {}

    value_type operator*() const {
      return {table_->KeyAt(entry_), table_->states_[entry_]};
    }
    Arrow operator->() const { return Arrow{**this}; }
    Iterator& operator++() {
      ++entry_;
      return *this;
    }
    Iterator operator++(int) {
      Iterator old = *this;
      ++entry_;
      return old;
    }
    friend bool operator==(const Iterator& a, const Iterator& b) {
      return a.entry_ == b.entry_ && a.table_ == b.table_;
    }

   private:
    template <bool>
    friend class Iterator;
    Table* table_ = nullptr;
    size_t entry_ = 0;
  };

 private:
  static constexpr size_t kMinSlots = 8;

  uint64_t Hash(const uint32_t* words) const {
    return HashWords(words, width_, GroupKeyHash::kSeed);
  }
  const uint32_t* KeyWords(size_t entry) const {
    return keys_.data() + entry * width_;
  }
  GroupKey KeyAt(size_t entry) const {
    GroupKey key;
    key.size = width_;
    std::copy_n(KeyWords(entry), width_, key.values.begin());
    return key;
  }

  /// The index slot holding `words`' entry number, or the empty slot where
  /// it would go. Terminates because the index is at most half full.
  size_t Slot(const uint32_t* words, uint64_t hash) const {
    const size_t mask = index_.size() - 1;
    for (size_t slot = hash & mask;; slot = (slot + 1) & mask) {
      const uint32_t entry = index_[slot];
      if (entry == 0 || KeyEquals(entry - 1, words)) return slot;
    }
  }
  /// A plain loop: std::equal on a runtime width becomes a memcmp call.
  bool KeyEquals(size_t entry, const uint32_t* words) const {
    const uint32_t* stored = KeyWords(entry);
    for (uint8_t i = 0; i < width_; ++i) {
      if (stored[i] != words[i]) return false;
    }
    return true;
  }

  /// The row of `key`, or size() when absent.
  size_t Find(const GroupKey& key) const {
    if (empty() || key.size != width_) return size();
    const uint32_t entry =
        index_[Slot(key.values.data(), Hash(key.values.data()))];
    return entry == 0 ? size() : entry - 1;
  }
  size_t Checked(const GroupKey& key) const {
    const size_t entry = Find(key);
    if (entry == size()) {
      throw std::out_of_range("GroupTable::at: no row for group " +
                              key.ToString());
    }
    return entry;
  }

  /// The row of `key`, appending {key, state} when absent, and whether it
  /// appended.
  std::pair<size_t, bool> Insert(const GroupKey& key,
                                 const AggregateState& state) {
    if (empty()) {
      StartRows(key.size);
    } else if (key.size != width_) {
      WidthMismatch(key);
    }
    const uint64_t hash = Hash(key.values.data());
    size_t slot = Slot(key.values.data(), hash);
    if (index_[slot] != 0) return {index_[slot] - 1, false};
    if (2 * (size() + 1) > index_.size()) {
      Rehash(2 * index_.size());
      slot = Slot(key.values.data(), hash);
    }
    index_[slot] = static_cast<uint32_t>(size() + 1);
    keys_.insert(keys_.end(), key.values.begin(),
                 key.values.begin() + width_);
    states_.push_back(state);
    return {size() - 1, true};
  }

  /// Fixes the width at the first insert and sizes the key vector like
  /// the states.
  void StartRows(uint8_t width);
  [[noreturn]] void WidthMismatch(const GroupKey& key) const;
  /// Rebuilds the index at `slots` slots (a power of two).
  void Rehash(size_t slots);

  uint8_t width_ = 0;  ///< Words per key; meaningful while rows exist.
  std::vector<uint32_t> keys_;
  std::vector<AggregateState> states_;
  /// Entry number + 1 per slot, 0 for an empty slot.
  std::vector<uint32_t> index_;
};

}  // namespace streamagg

#endif  // STREAMAGG_STREAM_GROUP_TABLE_H_
