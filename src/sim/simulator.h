// Discrete-event simulation core.
//
// All hardware models (PCIe link, NIC DRAM, network, KV-processor clock) are
// driven by one Simulator instance. Events execute in (time, sequence) order;
// the sequence tiebreak makes same-timestamp behaviour deterministic, which
// keeps every benchmark bit-reproducible across runs.
//
// The queue is a std::priority_queue of 24 B (when, sequence, slot) keys.
// The callbacks themselves sit still in a free-listed RecordPool and the
// key's slot points at one, so a sift moves only keys, and a recycled slot
// reuses its std::function storage.
//
// A *reserved event* is a (when, sequence) slot taken without an event: a
// model whose moment usually does no work (a PCIe credit coming back with
// nobody waiting for it) reserves the slot, asks `Passed` once it needs to
// know whether the moment has come, and schedules a callback into the slot
// only if someone turns out to be waiting. Every other event keeps the
// sequence number it would have had beside a real event, so the run is the
// same bit for bit, minus the events that did nothing.
#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "src/common/units.h"
#include "src/sim/record_pool.h"

namespace kvd {

class Simulator {
 public:
  using Callback = std::function<void()>;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime Now() const { return now_; }

  // Schedules `fn` to run `delay` picoseconds from now.
  void Schedule(SimTime delay, Callback fn) { ScheduleAt(now_ + delay, std::move(fn)); }

  // Schedules `fn` at absolute time `when` (must not be in the past).
  void ScheduleAt(SimTime when, Callback fn);

  // Takes the sequence number an event scheduled at `when` now would get,
  // and schedules nothing. RunUntilIdle ends no earlier than `when`.
  uint64_t Reserve(SimTime when);

  // True once the slot (when, sequence) lies at or before the event running
  // or last run. After RunUntil or RunUntilIdle every slot at or before
  // Now() has passed.
  bool Passed(SimTime when, uint64_t sequence) const {
    return when < now_ || (when == now_ && sequence < horizon_);
  }

  // Runs `fn` in the reserved slot (when, sequence), which must not have
  // passed. A slot takes at most one callback.
  void ScheduleAt(SimTime when, uint64_t sequence, Callback fn);

  // Runs the earliest pending event. Returns false when the queue is empty.
  bool Step();

  // Runs events until none remain at or before `deadline`; advances the clock
  // to `deadline` even if the queue drains earlier.
  void RunUntil(SimTime deadline);

  // Runs until the event queue is empty, then advances the clock to the
  // latest reserved slot if that lies later.
  void RunUntilIdle();

  size_t pending_events() const { return queue_.size(); }
  uint64_t executed_events() const { return executed_; }
  // High-water mark of pending events: the callback pool never grows past it.
  uint32_t peak_pending_events() const { return callbacks_.peak(); }

 private:
  struct Key {
    SimTime when;
    uint64_t sequence;
    uint32_t slot;  // index into callbacks_
  };
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      return a.when != b.when ? a.when > b.when : a.sequence > b.sequence;
    }
  };

  SimTime now_ = 0;
  // At now_, the sequences below horizon_ have passed: one past the event
  // running or last run, or every sequence taken once RunUntil* has drained
  // the queue up to now_.
  uint64_t horizon_ = 0;
  uint64_t next_sequence_ = 0;
  SimTime reserved_until_ = 0;
  uint64_t executed_ = 0;
  std::priority_queue<Key, std::vector<Key>, Later> queue_;
  RecordPool<Callback> callbacks_;
};

}  // namespace kvd

#endif  // SRC_SIM_SIMULATOR_H_
