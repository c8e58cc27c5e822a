#include "src/replica/watermark_table.h"

#include <algorithm>
#include <bit>

#include "src/common/assert.h"

namespace kvd {
namespace {

constexpr size_t kInitialSlots = 64;

}  // namespace

WatermarkTable::WatermarkTable(size_t max_slots) : max_slots_(max_slots) {
  KVD_CHECK(max_slots >= 2 && std::has_single_bit(max_slots));
  const size_t slots = std::min(kInitialSlots, max_slots);
  slots_.resize(slots);
  mask_ = slots - 1;
  shift_ = 64 - std::countr_zero(slots);
}

size_t WatermarkTable::FreeSlot(uint64_t hash, uint32_t group) const {
  size_t i = Home(hash, group);
  while (slots_[i].word != 0) {
    i = (i + 1) & mask_;
  }
  return i;
}

bool WatermarkTable::Raise(uint64_t hash, uint32_t group, uint64_t index) {
  if (index == 0) {
    return false;
  }
  KVD_CHECK(group <= (~uint64_t{0} >> kIndexBits));
  // Log indices stay far below 2^48; saturating keeps a huge one a bound.
  const uint64_t word =
      uint64_t{group} << kIndexBits | std::min(index, kIndexMask);
  size_t i = Home(hash, group);
  for (; slots_[i].word != 0; i = (i + 1) & mask_) {
    Entry& entry = slots_[i];
    if (entry.hash == hash && GroupOf(entry.word) == group) {
      entry.word = std::max(entry.word, word);  // same group: max index
      return false;
    }
  }
  bool evicted = false;
  if (2 * (live_ + 1) > slots_.size()) {
    if (slots_.size() < max_slots_) {
      Grow();
    } else {
      // Full at the cap: the first entry at or after the new one's home
      // makes room, its index folded into its group's floor.
      size_t victim = Home(hash, group);
      while (slots_[victim].word == 0) {
        victim = (victim + 1) & mask_;
      }
      const uint32_t victim_group = GroupOf(slots_[victim].word);
      if (victim_group >= floors_.size()) {
        floors_.resize(victim_group + 1, 0);
      }
      floors_[victim_group] =
          std::max(floors_[victim_group], IndexOf(slots_[victim].word));
      Erase(victim);
      evicted = true;
    }
    i = FreeSlot(hash, group);
  }
  slots_[i] = Entry{hash, word};
  live_++;
  return evicted;
}

void WatermarkTable::Erase(size_t hole) {
  // Backward-shift deletion: pull each later entry of the run into the hole
  // unless that would move it before its home slot.
  for (size_t j = (hole + 1) & mask_; slots_[j].word != 0; j = (j + 1) & mask_) {
    const size_t home = Home(slots_[j].hash, GroupOf(slots_[j].word));
    if (((j - home) & mask_) >= ((j - hole) & mask_)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole] = Entry{};
  live_--;
}

void WatermarkTable::Grow() {
  std::vector<Entry> old(slots_.size() * 2);
  old.swap(slots_);
  mask_ = slots_.size() - 1;
  shift_--;
  for (const Entry& entry : old) {
    if (entry.word != 0) {
      slots_[FreeSlot(entry.hash, GroupOf(entry.word))] = entry;
    }
  }
}

}  // namespace kvd
