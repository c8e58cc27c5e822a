// Counted-resource abstraction for simulated hardware limits.
//
// PCIe DMA tags (64 per engine), posted/non-posted header credits (88/84),
// and reservation-station entries (256) are all fixed pools that requests
// must acquire before issue and release on completion. Waiters are granted
// FIFO, matching the in-order arbitration of the modelled hardware queues.
//
// A release that is known in advance (a PCIe credit comes back a fixed time
// after the host takes the request) goes through ReleaseAt, which takes a
// reserved slot on the simulator (src/sim/simulator.h) instead of scheduling
// an event. The pool adds the tokens back on its next Acquire or TryAcquire
// once the slot has passed, and schedules a real event into the slot only
// while a waiter needs the tokens, so the grants come at exactly the instants
// a release event would have made them.
#ifndef SRC_SIM_TOKEN_POOL_H_
#define SRC_SIM_TOKEN_POOL_H_

#include <cstdint>
#include <functional>
#include <string>

#include "src/common/assert.h"
#include "src/common/ring_fifo.h"
#include "src/common/units.h"
#include "src/sim/simulator.h"

namespace kvd {

class TokenPool {
 public:
  // `sim` is needed only by ReleaseAt.
  TokenPool(std::string name, uint32_t capacity, Simulator* sim = nullptr)
      : name_(std::move(name)), capacity_(capacity), available_(capacity), sim_(sim) {}

  // Acquires `count` tokens; `granted` runs immediately if they are free,
  // otherwise when enough releases have happened (FIFO among waiters).
  void Acquire(uint32_t count, std::function<void()> granted);

  // Returns tokens to the pool and wakes eligible waiters in order.
  void Release(uint32_t count);

  // Returns tokens at `when`, as a Release event scheduled now would. Calls
  // must come in time order.
  void ReleaseAt(uint32_t count, SimTime when);

  // Non-blocking acquire; returns false (and takes nothing) if unavailable.
  bool TryAcquire(uint32_t count);

  // Free tokens, counting timed releases whose moment has passed.
  uint32_t available() const;
  uint32_t capacity() const { return capacity_; }
  size_t waiters() const { return waiters_.size(); }
  const std::string& name() const { return name_; }

  // Peak-usage statistics for utilization reporting.
  uint32_t peak_in_use() const { return peak_in_use_; }
  uint64_t total_acquires() const { return total_acquires_; }
  // Grants that had to queue behind a full pool or an earlier waiter.
  uint64_t waited_grants() const { return waited_grants_; }

 private:
  struct Waiter {
    uint32_t count = 0;
    std::function<void()> granted;
  };
  struct TimedRelease {
    SimTime when = 0;
    uint64_t sequence = 0;  // the slot reserved for it
    uint32_t count = 0;
  };

  void NoteAcquired(uint32_t count);
  // Adds back the timed releases whose slot has passed.
  void Settle();
  void GrantWaiters();
  // Schedules the earliest timed release as an event while a waiter needs it.
  void ArmWake();
  void Wake();

  std::string name_;
  uint32_t capacity_;
  uint32_t available_;
  Simulator* sim_;
  uint32_t peak_in_use_ = 0;
  uint64_t total_acquires_ = 0;
  uint64_t waited_grants_ = 0;
  RingFifo<Waiter> waiters_;
  RingFifo<TimedRelease> timed_;  // in (when, sequence) order
  uint32_t timed_tokens_ = 0;     // held by timed_
  bool wake_armed_ = false;
};

}  // namespace kvd

#endif  // SRC_SIM_TOKEN_POOL_H_
