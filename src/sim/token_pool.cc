#include "src/sim/token_pool.h"

#include <utility>

namespace kvd {

void TokenPool::NoteAcquired(uint32_t count) {
  available_ -= count;
  total_acquires_++;
  const uint32_t in_use = capacity_ - available_;
  if (in_use > peak_in_use_) {
    peak_in_use_ = in_use;
  }
}

void TokenPool::Settle() {
  while (!timed_.empty() && sim_->Passed(timed_.front().when, timed_.front().sequence)) {
    available_ += timed_.front().count;
    timed_tokens_ -= timed_.front().count;
    timed_.pop_front();
  }
}

uint32_t TokenPool::available() const {
  uint32_t free = available_;
  for (size_t i = 0; i < timed_.size() && sim_->Passed(timed_[i].when, timed_[i].sequence);
       i++) {
    free += timed_[i].count;
  }
  return free;
}

void TokenPool::Acquire(uint32_t count, std::function<void()> granted) {
  KVD_CHECK_MSG(count <= capacity_, "acquire larger than pool capacity");
  Settle();
  // FIFO fairness: if anyone is already waiting, queue behind them even if
  // tokens are currently free (they are reserved for the head waiter).
  if (waiters_.empty() && available_ >= count) {
    NoteAcquired(count);
    granted();
    return;
  }
  waiters_.push_back(Waiter{count, std::move(granted)});
  ArmWake();
}

bool TokenPool::TryAcquire(uint32_t count) {
  KVD_CHECK(count <= capacity_);
  Settle();
  if (!waiters_.empty() || available_ < count) {
    return false;
  }
  NoteAcquired(count);
  return true;
}

void TokenPool::Release(uint32_t count) {
  Settle();
  available_ += count;
  KVD_CHECK_MSG(available_ + timed_tokens_ <= capacity_, "token double-release");
  GrantWaiters();
  ArmWake();
}

void TokenPool::ReleaseAt(uint32_t count, SimTime when) {
  KVD_CHECK_MSG(sim_ != nullptr, "ReleaseAt needs the pool's simulator");
  KVD_CHECK_MSG(timed_.empty() || when >= timed_[timed_.size() - 1].when,
                "timed releases out of time order");
  timed_.push_back(TimedRelease{when, sim_->Reserve(when), count});
  timed_tokens_ += count;
  KVD_CHECK_MSG(available_ + timed_tokens_ <= capacity_, "token double-release");
  ArmWake();
}

void TokenPool::GrantWaiters() {
  while (!waiters_.empty() && available_ >= waiters_.front().count) {
    Waiter waiter = std::move(waiters_.front());
    waiters_.pop_front();
    NoteAcquired(waiter.count);
    waited_grants_++;
    waiter.granted();
  }
}

void TokenPool::ArmWake() {
  if (wake_armed_ || waiters_.empty() || timed_.empty()) {
    return;
  }
  wake_armed_ = true;
  sim_->ScheduleAt(timed_.front().when, timed_.front().sequence, [this] { Wake(); });
}

void TokenPool::Wake() {
  wake_armed_ = false;
  Settle();
  GrantWaiters();
  ArmWake();
}

}  // namespace kvd
