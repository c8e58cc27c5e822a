#include "src/alloc/host_daemon.h"

#include <algorithm>
#include <utility>

#include "src/common/assert.h"

namespace kvd {

uint64_t HostDaemon::ArenaBytes(const SlabConfig& config) {
  uint64_t total = 0;
  for (uint8_t cls = 0; cls < config.NumClasses(); cls++) {
    total += DequeStack::BytesFor(config.region_size / config.ClassBytes(cls));
  }
  return total;
}

HostDaemon::HostDaemon(const SlabConfig& config, std::unique_ptr<Merger> merger)
    : config_(config),
      merger_(merger ? std::move(merger)
                     : std::make_unique<RadixSortMerger>(/*num_threads=*/1)),
      arena_(ArenaBytes(config)),
      bitmap_(config.region_size, config.min_slab_bytes) {
  config_.Validate();
  // Carve one double-ended stack per class out of the arena, each sized for
  // the worst case of the whole region freed at that class.
  uint64_t base = 0;
  for (uint8_t cls = 0; cls < config_.NumClasses(); cls++) {
    const uint64_t capacity = config_.region_size / config_.ClassBytes(cls);
    stacks_.emplace_back(arena_, base, capacity);
    base += DequeStack::BytesFor(capacity);
  }
  // The whole region starts as free slabs of the largest class, pushed in
  // descending address order so low addresses are handed out first.
  const uint8_t top = static_cast<uint8_t>(config_.NumClasses() - 1);
  const uint32_t top_bytes = config_.ClassBytes(top);
  for (uint64_t offset = config_.region_size; offset >= top_bytes; offset -= top_bytes) {
    KVD_CHECK(stacks_[top].PushRight(config_.region_base + offset - top_bytes));
  }
}

void HostDaemon::CloneFrom(const HostDaemon& source) {
  KVD_CHECK_MSG(config_ == source.config_, "cloning a daemon of another layout");
  arena_.CloneFrom(source.arena_);
  bitmap_ = source.bitmap_;
  stats_ = source.stats_;
}

bool HostDaemon::SplitDownTo(uint8_t cls) {
  // Find the nearest larger class with a free slab.
  uint8_t source = cls;
  bool found = false;
  for (uint8_t c = cls + 1; c < config_.NumClasses(); c++) {
    if (!stacks_[c].empty()) {
      source = c;
      found = true;
      break;
    }
  }
  if (!found) {
    return false;
  }
  uint64_t address = 0;
  KVD_CHECK(stacks_[source].PopRight(&address));
  // Halve repeatedly; the upper half of each split lands in its own pool.
  // Slab entries are copied between pools without computation because the
  // type travels with the entry (paper §3.3.2).
  for (uint8_t c = source; c > cls; c--) {
    const uint32_t half = config_.ClassBytes(c) / 2;
    KVD_CHECK(stacks_[c - 1].PushRight(address + half));
    stats_.splits++;
  }
  KVD_CHECK(stacks_[cls].PushRight(address));
  return true;
}

bool HostDaemon::LazyMergeUpTo(uint8_t cls) {
  stats_.merge_passes++;
  bool progressed = false;
  for (uint8_t c = 0; c < cls; c++) {
    if (stacks_[c].size() < 2) {
      continue;
    }
    // Drain the pool from the host end; offsets are region-relative for the
    // merger's buddy alignment checks.
    std::vector<uint64_t> offsets;
    offsets.reserve(stacks_[c].size());
    uint64_t address = 0;
    while (stacks_[c].PopRight(&address)) {
      offsets.push_back(address - config_.region_base);
    }
    MergeResult result = merger_->Merge(offsets, config_.ClassBytes(c));
    if (result.merged.empty()) {
      for (uint64_t offset : offsets) {
        KVD_CHECK(stacks_[c].PushRight(config_.region_base + offset));
      }
      continue;
    }
    progressed = true;
    stats_.slabs_merged += result.merged.size();
    for (uint64_t offset : result.unmerged) {
      KVD_CHECK(stacks_[c].PushRight(config_.region_base + offset));
    }
    for (uint64_t offset : result.merged) {
      KVD_CHECK(stacks_[c + 1].PushRight(config_.region_base + offset));
    }
  }
  return progressed && (!stacks_[cls].empty() || SplitDownTo(cls));
}

size_t HostDaemon::PopBatch(uint8_t cls, std::span<uint64_t> out) {
  KVD_CHECK(cls < config_.NumClasses());
  size_t produced = 0;
  while (produced < out.size()) {
    if (stacks_[cls].empty() && !SplitDownTo(cls) && !LazyMergeUpTo(cls)) {
      break;
    }
    // The NIC's synchronization consumes the pool's left end (Figure 8).
    if (!stacks_[cls].PopLeft(&out[produced])) {
      break;
    }
    produced++;
  }
  return produced;
}

void HostDaemon::PushBatch(uint8_t cls, std::span<const uint64_t> addresses) {
  KVD_CHECK(cls < config_.NumClasses());
  for (uint64_t address : addresses) {
    KVD_CHECK(stacks_[cls].PushLeft(address));
  }
}

uint64_t HostDaemon::FreeBytes() const {
  const uint64_t free_granules =
      bitmap_.total_granules() - bitmap_.allocated_granules();
  return free_granules * bitmap_.granule_bytes();
}

}  // namespace kvd
