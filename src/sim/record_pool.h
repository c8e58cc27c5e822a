// Free-listed storage for per-request completion records.
//
// Every timed hop (event core, DMA engine, PCIe link, load dispatcher) parks
// the state of an in-flight request — the caller's `done` plus whatever the
// hop needs when the request completes — in a record it owns, and hands the
// simulator or a token pool only `[this, index]`. That closure fits
// std::function's local buffer, so the hop allocates nothing per request.
//
// Records live in one vector addressed by a stable index; released indices
// are reused LIFO, so the vector grows only to the peak number of requests
// in flight at once (`peak()`), never to the total issued. The vector may
// reallocate on Acquire: never hold a reference to a record across a call
// that can acquire from the same pool. Growth moves records, never copies
// them, so the heap buffers a record owns stay where they are: the KV
// processor borrows op bytes that live in pooled records.
#ifndef SRC_SIM_RECORD_POOL_H_
#define SRC_SIM_RECORD_POOL_H_

#include <cstdint>
#include <type_traits>
#include <vector>

#include "src/common/assert.h"

namespace kvd {

template <typename T>
class RecordPool {
  static_assert(std::is_nothrow_move_constructible_v<T>,
                "growth must move records, not copy them");

 public:
  // Returns the index of a free record. A reused record keeps whatever its
  // last holder left in it (moved-from callbacks, stale fields): callers
  // assign every field they read.
  uint32_t Acquire() {
    uint32_t index;
    if (!free_.empty()) {
      index = free_.back();
      free_.pop_back();
    } else {
      index = static_cast<uint32_t>(records_.size());
      records_.emplace_back();
    }
    live_++;
    if (live_ > peak_) {
      peak_ = live_;
    }
    return index;
  }

  void Release(uint32_t index) {
    KVD_DCHECK(index < records_.size());
    KVD_DCHECK(live_ > 0);
    free_.push_back(index);
    live_--;
  }

  T& operator[](uint32_t index) { return records_[index]; }
  const T& operator[](uint32_t index) const { return records_[index]; }

  // Records currently held.
  uint32_t live() const { return live_; }
  // High-water mark of live(); also the number of records ever allocated.
  uint32_t peak() const { return peak_; }
  size_t size() const { return records_.size(); }

 private:
  std::vector<T> records_;
  std::vector<uint32_t> free_;
  uint32_t live_ = 0;
  uint32_t peak_ = 0;
};

}  // namespace kvd

#endif  // SRC_SIM_RECORD_POOL_H_
