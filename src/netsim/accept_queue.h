// Per-listening-socket accept queue: connections that completed the TCP
// handshake but have not yet been accept()ed by a userspace worker
// (paper §2.1, Fig. 1).
//
// Bounded like the kernel's (listen backlog); overflow drops the connection,
// which the sim layer counts — under reuseport a hung worker's queue filling
// up is exactly the failure mode the paper describes.
#pragma once

#include <cstddef>

#include "netsim/connection.h"
#include "simcore/ring_queue.h"
#include "util/check.h"

namespace hermes::netsim {

class AcceptQueue {
 public:
  explicit AcceptQueue(size_t backlog = 1024) : backlog_(backlog) {}

  // Returns false (and drops) when the backlog is full.
  bool push(Connection c) {
    HERMES_DCHECK(c.valid() && c.state() == ConnState::Queued);
    if (queue_.size() >= backlog_) {
      ++dropped_;
      return false;
    }
    queue_.push_back(c);
    if (queue_.size() > high_watermark_) high_watermark_ = queue_.size();
    return true;
  }

  // accept(): dequeue the oldest pending connection; invalid view if empty.
  Connection pop() {
    if (queue_.empty()) return Connection{};
    Connection c = queue_.front();
    queue_.pop_front();
    return c;
  }

  // Account a backlog-overflow drop decided by the caller before any
  // connection state was allocated (the admit fast path).
  void note_drop() { ++dropped_; }

  bool empty() const { return queue_.empty(); }
  size_t size() const { return queue_.size(); }
  size_t backlog() const { return backlog_; }
  uint64_t dropped() const { return dropped_; }
  size_t high_watermark() const { return high_watermark_; }

 private:
  size_t backlog_;
  sim::RingQueue<Connection> queue_;  // grows to its peak depth, then stays
  uint64_t dropped_ = 0;
  size_t high_watermark_ = 0;
};

}  // namespace hermes::netsim
