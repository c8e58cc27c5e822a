// A FIFO over one power-of-two ring of slots.
//
// std::deque allocates a node every few pushes when its elements are large
// and the queue stays short, which is exactly the shape of the simulator's
// admission backlog and token-pool waiters. This ring grows by doubling to
// the peak number of elements held at once and keeps that storage for its
// lifetime, so a warm queue allocates nothing.
//
// Slots are default-constructed objects: push moves into one, pop resets it
// to T{} so whatever the popped element owned is released on time. Growth
// moves the whole ring and its capacity is up to twice its peak, so it suits
// short queues; a long one (the replica log) keeps std::deque's exact fit.
#ifndef SRC_COMMON_RING_FIFO_H_
#define SRC_COMMON_RING_FIFO_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "src/common/assert.h"

namespace kvd {

template <typename T>
class RingFifo {
 public:
  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }

  void push_back(T value) {
    if (size_ == slots_.size()) {
      Grow();
    }
    slots_[(head_ + size_) & (slots_.size() - 1)] = std::move(value);
    size_++;
  }

  T& front() {
    KVD_DCHECK(size_ > 0);
    return slots_[head_];
  }

  void pop_front() {
    KVD_DCHECK(size_ > 0);
    slots_[head_] = T{};
    head_ = (head_ + 1) & (slots_.size() - 1);
    size_--;
  }

  // The element `i` places behind the front.
  T& operator[](size_t i) {
    KVD_DCHECK(i < size_);
    return slots_[(head_ + i) & (slots_.size() - 1)];
  }
  const T& operator[](size_t i) const {
    KVD_DCHECK(i < size_);
    return slots_[(head_ + i) & (slots_.size() - 1)];
  }

 private:
  void Grow() {
    std::vector<T> grown(slots_.empty() ? 8 : 2 * slots_.size());
    for (size_t i = 0; i < size_; i++) {
      grown[i] = std::move((*this)[i]);
    }
    slots_ = std::move(grown);
    head_ = 0;
  }

  std::vector<T> slots_;
  size_t head_ = 0;
  size_t size_ = 0;
};

}  // namespace kvd

#endif  // SRC_COMMON_RING_FIFO_H_
