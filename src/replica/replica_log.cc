#include "src/replica/replica_log.h"

#include <algorithm>

#include "src/common/assert.h"

namespace kvd {

uint64_t ReplicaLog::EpochAt(uint64_t index) const {
  if (index == 0) {
    return 0;
  }
  if (index == base_) {
    return base_epoch_;
  }
  KVD_CHECK_MSG(Contains(index), "epoch lookup outside the stored log");
  return entries_[index - base_ - 1].epoch;
}

const LogEntry& ReplicaLog::At(uint64_t index) const {
  KVD_CHECK_MSG(Contains(index), "log lookup outside the stored log");
  return entries_[index - base_ - 1];
}

uint64_t ReplicaLog::WindowLast(uint64_t first, uint32_t max_entries) const {
  KVD_CHECK_MSG(first > base_, "window starts below the trimmed base");
  KVD_CHECK_MSG(first <= end() + 1, "window starts past the log end");
  return std::min(end(), first + max_entries - 1);
}

std::vector<uint8_t> ReplicaLog::EncodeWindow(const ReplicaMessage& header,
                                              uint64_t first, uint64_t last) const {
  size_t entry_bytes = 0;
  for (uint64_t index = first; index <= last; index++) {
    entry_bytes += EncodedLogEntryBytes(At(index));
  }
  std::vector<uint8_t> out = EncodeAppendHead(
      header, static_cast<uint32_t>(last + 1 - first), entry_bytes);
  for (uint64_t index = first; index <= last; index++) {
    EncodeLogEntry(out, At(index));
  }
  return out;
}

void ReplicaLog::Trim(uint64_t max_entries) {
  while (entries_.size() > max_entries) {
    base_epoch_ = entries_.front().epoch;
    entries_.pop_front();
    base_++;
  }
}

void ReplicaLog::ResetToSnapshot(uint64_t index, uint64_t epoch) {
  entries_.clear();
  base_ = index;
  base_epoch_ = epoch;
}

}  // namespace kvd
