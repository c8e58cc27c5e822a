#include "src/sim/simulator.h"

#include <utility>

#include "src/common/assert.h"

namespace kvd {

void Simulator::ScheduleAt(SimTime when, Callback fn) {
  KVD_CHECK_MSG(when >= now_, "event scheduled in the past");
  const uint32_t slot = callbacks_.Acquire();
  callbacks_[slot] = std::move(fn);
  queue_.push(Key{when, next_sequence_++, slot});
}

bool Simulator::Step() {
  if (queue_.empty()) {
    return false;
  }
  const Key top = queue_.top();
  queue_.pop();
  // Move the callback out and free its slot before running it: the callback
  // may schedule events, which may reuse the slot or grow the pool.
  Callback fn = std::move(callbacks_[top.slot]);
  callbacks_.Release(top.slot);
  now_ = top.when;
  executed_++;
  fn();
  return true;
}

void Simulator::RunUntil(SimTime deadline) {
  while (!queue_.empty() && queue_.top().when <= deadline) {
    Step();
  }
  if (now_ < deadline) {
    now_ = deadline;
  }
}

void Simulator::RunUntilIdle() {
  while (Step()) {
  }
}

}  // namespace kvd
