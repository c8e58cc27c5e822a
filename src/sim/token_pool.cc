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

void TokenPool::Acquire(uint32_t count, std::function<void()> granted) {
  KVD_CHECK_MSG(count <= capacity_, "acquire larger than pool capacity");
  // FIFO fairness: if anyone is already waiting, queue behind them even if
  // tokens are currently free (they are reserved for the head waiter).
  if (waiters_.empty() && available_ >= count) {
    NoteAcquired(count);
    granted();
    return;
  }
  waiters_.push_back(Waiter{count, std::move(granted)});
}

bool TokenPool::TryAcquire(uint32_t count) {
  KVD_CHECK(count <= capacity_);
  if (!waiters_.empty() || available_ < count) {
    return false;
  }
  NoteAcquired(count);
  return true;
}

void TokenPool::Release(uint32_t count) {
  available_ += count;
  KVD_CHECK_MSG(available_ <= capacity_, "token double-release");
  while (!waiters_.empty() && available_ >= waiters_.front().count) {
    Waiter waiter = std::move(waiters_.front());
    waiters_.pop_front();
    NoteAcquired(waiter.count);
    waiter.granted();
  }
}

}  // namespace kvd
