// Host-side slab daemon (paper §3.3.2, §4, Figure 8 right side).
//
// The daemon owns the host-side free-slab stacks (one per size class) —
// real DequeStack structures in the daemon's memory arena — plus the
// global allocation bitmap, and the split/merge machinery:
//   - splitting: when a small pool runs dry, a larger slab is split by
//     copying entries between pools (no computation: the slab type is in the
//     entry itself)
//   - lazy merging: only when a pool is almost empty *and* no larger pool has
//     slabs to split does the daemon coalesce buddies from smaller classes,
//     using a pluggable Merger (radix sort by default — Figure 12)
#ifndef SRC_ALLOC_HOST_DAEMON_H_
#define SRC_ALLOC_HOST_DAEMON_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/alloc/allocation_bitmap.h"
#include "src/alloc/dstack.h"
#include "src/alloc/merger.h"
#include "src/alloc/slab_config.h"

namespace kvd {

struct DaemonStats {
  uint64_t splits = 0;        // one larger slab split into two smaller
  uint64_t merge_passes = 0;  // lazy-merge invocations
  uint64_t slabs_merged = 0;  // buddy pairs coalesced

  bool operator==(const DaemonStats&) const = default;
};

class HostDaemon {
 public:
  explicit HostDaemon(const SlabConfig& config,
                      std::unique_ptr<Merger> merger = nullptr);

  // Pops up to out.size() free slabs of class `cls` into `out`, splitting
  // larger slabs and lazily merging smaller ones as needed. Returns the
  // number of slabs produced (0 means the region is exhausted for this size).
  size_t PopBatch(uint8_t cls, std::span<uint64_t> out);

  // Returns freed slabs of class `cls` from the NIC to the host pool.
  void PushBatch(uint8_t cls, std::span<const uint64_t> addresses);

  // Takes `source`'s pools, bitmap and stats (equal configs). The merger
  // keeps no state between passes, so there is none of its to copy.
  void CloneFrom(const HostDaemon& source);

  uint64_t StackDepth(uint8_t cls) const { return stacks_[cls].size(); }
  uint64_t FreeBytes() const;

  // The daemon's own memory arena holding the per-class double-ended stacks
  // (Figure 8's host side) — exposed for inspection in tests.
  const HostMemory& stack_arena() const { return arena_; }

  AllocationBitmap& bitmap() { return bitmap_; }
  const AllocationBitmap& bitmap() const { return bitmap_; }
  const DaemonStats& stats() const { return stats_; }
  const SlabConfig& config() const { return config_; }

 private:
  // Splits one slab of some class > cls down to produce one slab of `cls`
  // (intermediate halves land in their pools). Returns false if no larger
  // slab exists.
  bool SplitDownTo(uint8_t cls);

  // Merges buddies upward until class `cls` has at least one slab or no
  // progress can be made. Returns true if class `cls` gained a slab.
  bool LazyMergeUpTo(uint8_t cls);

  static uint64_t ArenaBytes(const SlabConfig& config);

  SlabConfig config_;
  std::unique_ptr<Merger> merger_;
  // The host-side pools live as double-ended stacks in the daemon's own
  // memory (paper Figure 8): the NIC syncs against the left ends, the
  // daemon's split/merge logic works the right ends.
  HostMemory arena_;
  std::vector<DequeStack> stacks_;  // per class
  AllocationBitmap bitmap_;
  DaemonStats stats_;
};

}  // namespace kvd

#endif  // SRC_ALLOC_HOST_DAEMON_H_
