// Table of in-flight records keyed by a dense, nonzero 64-bit id.
//
// The KV processor numbers admitted operations 1, 2, 3, ... and looks each
// one up on every pipeline step. Ids are dense and mostly retire in order,
// so open addressing on `id & (capacity - 1)` with linear probing almost
// always finds an op at its home entry with one compare. Every entry stores
// its id (0 marks a free entry) and every lookup compares it, so a lookup of
// an id that already retired comes back empty rather than aliasing a live
// op. Erase shifts later entries of the probe run back into the hole, so
// runs stay contiguous without tombstones; it swaps rather than moves, so an
// entry's buffers stay in the table for the next op that lands there.
//
// The capacity is a power of two, at least twice the expected live count.
// It doubles before the table passes half full: the caller's admission bound
// does not cover every record (fast-path ops retire outside the reservation
// station's count), so the table grows instead of failing. Growth moves
// records; callers hold no record reference across an Insert.
#ifndef SRC_CORE_ID_TABLE_H_
#define SRC_CORE_ID_TABLE_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/assert.h"

namespace kvd {

// T is default-constructible and movable, with a `uint64_t id` member that
// a default-constructed T leaves 0.
template <typename T>
class IdTable {
 public:
  explicit IdTable(size_t expected_live)
      : entries_(std::bit_ceil(2 * std::max<size_t>(expected_live, 1))) {}

  // The record for `id`, or nullptr when no record holds it.
  T* Find(uint64_t id) {
    const size_t mask = entries_.size() - 1;
    for (size_t i = id & mask;; i = (i + 1) & mask) {
      if (entries_[i].id == id) {
        return &entries_[i];
      }
      if (entries_[i].id == 0) {
        return nullptr;
      }
    }
  }

  // Claims a record for the fresh nonzero `id`. The record keeps whatever
  // its previous holder left besides the id: callers assign what they read.
  T& Insert(uint64_t id) {
    KVD_CHECK(id != 0);
    if (2 * (size_ + 1) > entries_.size()) {
      std::vector<T> old(entries_.size() * 2);
      old.swap(entries_);
      size_ = 0;
      for (T& entry : old) {
        if (entry.id != 0) {
          Insert(entry.id) = std::move(entry);
        }
      }
    }
    const size_t mask = entries_.size() - 1;
    size_t i = id & mask;
    for (; entries_[i].id != 0; i = (i + 1) & mask) {
      KVD_CHECK_MSG(entries_[i].id != id, "id inserted twice");
    }
    KVD_CHECK(2 * (size_ + 1) <= entries_.size());
    size_++;
    entries_[i].id = id;
    return entries_[i];
  }

  // Frees `entry`, which Find or Insert returned.
  void Erase(T& entry) {
    const size_t mask = entries_.size() - 1;
    size_t hole = static_cast<size_t>(&entry - entries_.data());
    KVD_CHECK(hole < entries_.size() && entry.id != 0);
    for (size_t next = (hole + 1) & mask; entries_[next].id != 0;
         next = (next + 1) & mask) {
      // The entry at `next` may fill the hole unless its home lies strictly
      // between the hole and `next` (cyclically).
      const size_t home = entries_[next].id & mask;
      if (((next - home) & mask) >= ((next - hole) & mask)) {
        std::swap(entries_[hole], entries_[next]);
        hole = next;
      }
    }
    entries_[hole].id = 0;
    size_--;
  }

  size_t size() const { return size_; }
  size_t capacity() const { return entries_.size(); }

 private:
  std::vector<T> entries_;
  size_t size_ = 0;
};

}  // namespace kvd

#endif  // SRC_CORE_ID_TABLE_H_
