// Read-your-writes watermarks of a group router (DESIGN.md §9, §14).
//
// One flat, open-addressed table of 16 B entries: a key's 64-bit hash, and
// the group that acknowledged a write of the key packed with that write's
// log index. No key bytes are kept, and the table allocates once per growth,
// not once per key. Two keys whose hashes collide in one group share an
// entry holding the larger index. That is safe: a required index is a lower
// bound on what the serving replica must have applied, so a merge can only
// make a read wait longer.
//
// The table doubles while it stays at most half full, up to `max_slots`.
// At that size an insert of a new (hash, group) evicts the first entry at or
// after the new one's home slot and folds its index into its group's floor;
// every lookup in a group returns at least that floor. So the table never
// holds more than max_slots / 2 entries, and an eviction only makes reads in
// the victim's group wait for an index that group has already committed.
#ifndef SRC_REPLICA_WATERMARK_TABLE_H_
#define SRC_REPLICA_WATERMARK_TABLE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace kvd {

class WatermarkTable {
 public:
  // 2^20 slots of 16 B: 16 MiB, at most 2^19 live entries.
  static constexpr size_t kMaxSlots = size_t{1} << 20;

  // `max_slots`: a power of two, at least 2.
  explicit WatermarkTable(size_t max_slots = kMaxSlots);

  // Raises the watermark of (hash, group) to `index` (index 0 changes
  // nothing). Returns true when the insert evicted another entry.
  bool Raise(uint64_t hash, uint32_t group, uint64_t index);

  // The index a read of the key with this hash must find applied in
  // `group`: its entry's index or the group's floor, whichever is higher.
  uint64_t Required(uint64_t hash, uint32_t group) const {
    const uint64_t floor = group < floors_.size() ? floors_[group] : 0;
    for (size_t i = Home(hash, group);; i = (i + 1) & mask_) {
      const Entry& entry = slots_[i];
      if (entry.word == 0) {
        return floor;
      }
      if (entry.hash == hash && GroupOf(entry.word) == group) {
        return std::max(floor, IndexOf(entry.word));
      }
    }
  }

  // Entries held. Only an eviction removes one, to make room for another,
  // so this never falls: it is also the high-water mark.
  size_t live() const { return live_; }
  size_t max_live() const { return max_slots_ / 2; }

 private:
  static constexpr int kIndexBits = 48;
  static constexpr uint64_t kIndexMask = (uint64_t{1} << kIndexBits) - 1;

  // `word` is group << kIndexBits | index, and 0 in an empty slot: an entry
  // always holds an index of at least 1.
  struct Entry {
    uint64_t hash = 0;
    uint64_t word = 0;
  };

  static uint32_t GroupOf(uint64_t word) {
    return static_cast<uint32_t>(word >> kIndexBits);
  }
  static uint64_t IndexOf(uint64_t word) { return word & kIndexMask; }
  // Fibonacci hashing over the key hash and the group: the top bits of one
  // multiply pick the slot.
  size_t Home(uint64_t hash, uint32_t group) const {
    return static_cast<size_t>(((hash + group) * 0x9e3779b97f4a7c15ull) >> shift_);
  }
  // The first empty slot on the probe path of (hash, group).
  size_t FreeSlot(uint64_t hash, uint32_t group) const;
  void Grow();
  // Empties the slot and closes the gap it leaves in its probe run.
  void Erase(size_t slot);

  size_t max_slots_;
  std::vector<Entry> slots_;
  size_t mask_ = 0;
  int shift_ = 0;  // 64 - log2(slots)
  size_t live_ = 0;
  std::vector<uint64_t> floors_;  // per group, grown on its first eviction
};

}  // namespace kvd

#endif  // SRC_REPLICA_WATERMARK_TABLE_H_
