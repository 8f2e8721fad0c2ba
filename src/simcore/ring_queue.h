// A FIFO queue over one power-of-two ring buffer that doubles when full and
// never shrinks. Once a queue has reached its working size, push and pop
// never touch the allocator; std::deque instead allocates and frees a node
// every 512 bytes of traffic. Used on the simulator's per-request path
// (worker event backlog, accept queues).
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "util/check.h"

namespace hermes::sim {

template <class T>
class RingQueue {
 public:
  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }

  T& front() {
    HERMES_DCHECK(size_ != 0);
    return buf_[head_];
  }
  const T& front() const {
    HERMES_DCHECK(size_ != 0);
    return buf_[head_];
  }

  void push_back(const T& v) {
    if (size_ == buf_.size()) grow();
    buf_[(head_ + size_) & (buf_.size() - 1)] = v;
    ++size_;
  }

  void pop_front() {
    HERMES_DCHECK(size_ != 0);
    head_ = (head_ + 1) & (buf_.size() - 1);
    --size_;
  }

 private:
  void grow() {
    std::vector<T> next(std::max<size_t>(8, buf_.size() * 2));
    for (size_t i = 0; i < size_; ++i) {
      next[i] = std::move(buf_[(head_ + i) & (buf_.size() - 1)]);
    }
    buf_.swap(next);
    head_ = 0;
  }

  std::vector<T> buf_;  // capacity: zero or a power of two
  size_t head_ = 0;
  size_t size_ = 0;
};

}  // namespace hermes::sim
