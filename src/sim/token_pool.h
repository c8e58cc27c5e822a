// Counted-resource abstraction for simulated hardware limits.
//
// PCIe DMA tags (64 per engine), posted/non-posted header credits (88/84),
// and reservation-station entries (256) are all fixed pools that requests
// must acquire before issue and release on completion. Waiters are granted
// FIFO, matching the in-order arbitration of the modelled hardware queues.
#ifndef SRC_SIM_TOKEN_POOL_H_
#define SRC_SIM_TOKEN_POOL_H_

#include <cstdint>
#include <functional>
#include <string>

#include "src/common/assert.h"
#include "src/common/ring_fifo.h"

namespace kvd {

class TokenPool {
 public:
  TokenPool(std::string name, uint32_t capacity)
      : name_(std::move(name)), capacity_(capacity), available_(capacity) {}

  // Acquires `count` tokens; `granted` runs immediately if they are free,
  // otherwise when enough releases have happened (FIFO among waiters).
  void Acquire(uint32_t count, std::function<void()> granted);

  // Returns tokens to the pool and wakes eligible waiters in order.
  void Release(uint32_t count);

  // Non-blocking acquire; returns false (and takes nothing) if unavailable.
  bool TryAcquire(uint32_t count);

  uint32_t available() const { return available_; }
  uint32_t capacity() const { return capacity_; }
  size_t waiters() const { return waiters_.size(); }
  const std::string& name() const { return name_; }

  // Peak-usage statistics for utilization reporting.
  uint32_t peak_in_use() const { return peak_in_use_; }
  uint64_t total_acquires() const { return total_acquires_; }

 private:
  struct Waiter {
    uint32_t count = 0;
    std::function<void()> granted;
  };

  void NoteAcquired(uint32_t count);

  std::string name_;
  uint32_t capacity_;
  uint32_t available_;
  uint32_t peak_in_use_ = 0;
  uint64_t total_acquires_ = 0;
  RingFifo<Waiter> waiters_;
};

}  // namespace kvd

#endif  // SRC_SIM_TOKEN_POOL_H_
