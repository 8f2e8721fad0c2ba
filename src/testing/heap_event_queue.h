// The original binary-heap event queue, retained verbatim as the reference
// implementation of sim::EventQueue (simcore/event_queue.h).
// tests/event_wheel_test.cc drives it and EventQueue with identical
// operation scripts and requires bit-identical firing order, timestamps,
// and clock reads. Test-only: no simulation code uses it.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "util/check.h"
#include "util/types.h"

namespace hermes::sim {

class HeapEventQueue {
 public:
  using Callback = std::function<void()>;

  class Handle {
   public:
    Handle() = default;

   private:
    friend class HeapEventQueue;
    explicit Handle(uint64_t seq) : seq_(seq) {}
    uint64_t seq_ = 0;  // 0 = null handle
  };

  SimTime now() const { return now_; }

  Handle schedule_at(SimTime at, Callback cb) {
    HERMES_CHECK_MSG(at >= now_, "cannot schedule in the past");
    const uint64_t seq = ++next_seq_;
    heap_.push(Entry{at, seq, std::move(cb)});
    ++live_;
    return Handle{seq};
  }

  Handle schedule_after(SimTime delay, Callback cb) {
    return schedule_at(now_ + delay, std::move(cb));
  }

  void cancel(Handle h) {
    if (h.seq_ != 0) cancelled_.push_back(h.seq_);
  }

  bool empty() const { return live_ == 0; }
  size_t pending() const { return live_; }

  bool step() {
    while (!heap_.empty()) {
      Entry e = pop_top();
      if (is_cancelled(e.seq)) continue;
      now_ = e.at;
      e.cb();
      return true;
    }
    return false;
  }

  void run_until(SimTime until) {
    while (!heap_.empty()) {
      if (heap_.top().at > until) break;
      Entry e = pop_top();
      if (is_cancelled(e.seq)) continue;
      now_ = e.at;
      e.cb();
    }
    if (now_ < until) now_ = until;
  }

  void run_all() {
    while (step()) {
    }
  }

 private:
  struct Entry {
    SimTime at;
    uint64_t seq;
    Callback cb;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;  // stable FIFO among equal timestamps
    }
  };

  Entry pop_top() {
    Entry e = std::move(const_cast<Entry&>(heap_.top()));
    heap_.pop();
    --live_;
    return e;
  }

  bool is_cancelled(uint64_t seq) {
    for (size_t i = 0; i < cancelled_.size(); ++i) {
      if (cancelled_[i] == seq) {
        cancelled_[i] = cancelled_.back();
        cancelled_.pop_back();
        return true;
      }
    }
    return false;
  }

  SimTime now_ = SimTime::zero();
  uint64_t next_seq_ = 0;
  size_t live_ = 0;
  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  std::vector<uint64_t> cancelled_;
};

}  // namespace hermes::sim
