// The monotonic (epoch, index) operation log of a replica (DESIGN.md §9).
//
// Indices are 1-based and global across epochs: entry i+1 always follows
// entry i, whatever epoch either carries. A log stores a contiguous suffix
// [base+1, end]; everything at or below `base` has been trimmed (or replaced
// by a snapshot after state transfer) and survives only as `base_epoch`, the
// epoch of the entry that used to sit at `base` — enough to verify that a
// peer's log is a prefix of ours.
#ifndef SRC_REPLICA_REPLICA_LOG_H_
#define SRC_REPLICA_REPLICA_LOG_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <vector>

#include "src/replica/replica_wire.h"

namespace kvd {

class ReplicaLog {
 public:
  // Appends at index end()+1.
  void Append(LogEntry entry) {
    entries_.push_back(std::move(entry));
    peak_ = std::max(peak_, entries_.size());
  }

  uint64_t base() const { return base_; }
  uint64_t base_epoch() const { return base_epoch_; }
  uint64_t end() const { return base_ + entries_.size(); }
  size_t size() const { return entries_.size(); }
  // High-water mark of size().
  size_t peak() const { return peak_; }
  bool Contains(uint64_t index) const { return index > base_ && index <= end(); }

  // Epoch of the entry at `index`. Defined for the trimmed boundary
  // (index == base) and for the empty prefix (index == 0 -> epoch 0).
  uint64_t EpochAt(uint64_t index) const;

  const LogEntry& At(uint64_t index) const;

  // Last index of the window that starts at `first` and holds at most
  // `max_entries`: min(end, first + max_entries - 1), which is first - 1
  // for an empty window (first == end + 1: a heartbeat).
  uint64_t WindowLast(uint64_t first, uint32_t max_entries) const;

  // Encodes `header` as a kAppend carrying entries [first, last], read in
  // place: the window is copied once, into the message bytes.
  std::vector<uint8_t> EncodeWindow(const ReplicaMessage& header, uint64_t first,
                                    uint64_t last) const;

  // Drops oldest entries until at most `max_entries` remain (raises base).
  void Trim(uint64_t max_entries);

  // Replaces the whole log with a snapshot boundary: base = index, empty
  // suffix. Used after full-partition state transfer.
  void ResetToSnapshot(uint64_t index, uint64_t epoch);

 private:
  uint64_t base_ = 0;
  uint64_t base_epoch_ = 0;
  std::deque<LogEntry> entries_;
  size_t peak_ = 0;
};

}  // namespace kvd

#endif  // SRC_REPLICA_REPLICA_LOG_H_
