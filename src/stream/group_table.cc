#include "stream/group_table.h"

#include <string>

namespace streamagg {

GroupTable::GroupTable(const GroupTable& other)
    : width_(other.width_), index_(other.index_) {
  keys_.reserve(other.keys_.capacity());
  keys_.assign(other.keys_.begin(), other.keys_.end());
  states_.reserve(other.states_.capacity());
  states_.assign(other.states_.begin(), other.states_.end());
}

GroupTable& GroupTable::operator=(const GroupTable& other) {
  if (this != &other) *this = GroupTable(other);
  return *this;
}

void GroupTable::reserve(size_t rows) {
  states_.reserve(rows);
  if (!empty()) keys_.reserve(rows * width_);
  size_t slots = kMinSlots;
  while (slots < 2 * rows) slots *= 2;
  if (slots > index_.size()) Rehash(slots);
}

bool operator==(const GroupTable& a, const GroupTable& b) {
  if (a.size() != b.size()) return false;
  if (a.empty()) return true;
  if (a.width_ != b.width_) return false;
  for (size_t entry = 0; entry < a.size(); ++entry) {
    const uint32_t* words = a.KeyWords(entry);
    const uint32_t other = b.index_[b.Slot(words, b.Hash(words))];
    if (other == 0 || !(a.states_[entry] == b.states_[other - 1])) {
      return false;
    }
  }
  return true;
}

void GroupTable::StartRows(uint8_t width) {
  width_ = width;
  if (index_.empty()) Rehash(kMinSlots);
  keys_.reserve(states_.capacity() * width_);
}

void GroupTable::WidthMismatch(const GroupKey& key) const {
  throw std::invalid_argument(
      "GroupTable: group " + key.ToString() + " has " +
      std::to_string(key.size) + " words, the table's keys " +
      std::to_string(width_));
}

void GroupTable::Rehash(size_t slots) {
  index_.assign(slots, 0);
  const size_t mask = slots - 1;
  for (size_t entry = 0; entry < size(); ++entry) {
    size_t slot = Hash(KeyWords(entry)) & mask;
    while (index_[slot] != 0) slot = (slot + 1) & mask;
    index_[slot] = static_cast<uint32_t>(entry + 1);
  }
}

}  // namespace streamagg
