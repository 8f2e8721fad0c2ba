// Discrete-event simulation core: a monotone virtual clock plus a calendar
// of timestamped callbacks.
//
// All of netsim/ and sim/ is driven by one EventQueue. Determinism rule:
// events at equal timestamps fire in insertion order (stable FIFO
// tie-break), so runs are exactly reproducible for a given seed.
//
// EventQueue is a hierarchical timing wheel over an indexed event
// calendar. Event records live in fixed-size chunks that never move,
// free-listed through their own chain field and addressed by
// generation-tagged handles, so cancel() is O(1) and scheduling allocates
// nothing once the chunks exist. Each record carries its callback inline
// (EventCallback: captures up to 32 bytes stored in place), and fire()
// runs it where it lies. The wheel gives O(1) schedule plus O(levels)
// amortized fire — no per-event priority-queue churn, which is what the
// million-connection fleet simulation needs. tests/event_wheel_test.cc
// validates it bit-identically (same firing order, same clock) against the
// original binary-heap implementation, kept as the oracle in
// testing/heap_event_queue.h.
//
// Wheel geometry: kWheelLevels levels of 64 slots at 1 ns tick granularity.
// Level l slots span 64^l ns, so the in-wheel horizon is 64^kWheelLevels ns
// (~68.7 simulated seconds for 6 levels) past the level-(top) window start;
// events beyond it sit in an overflow list that is redistributed when the
// wheel advances that far (rare: once per 64^levels ns). Because level-0
// slots are a single nanosecond wide, every record in a level-0 slot shares
// one timestamp, and slot chains are FIFO by construction (cascades
// preserve relative order and fresh schedules append), so draining a slot
// head-to-tail reproduces the heap's (time, insertion-seq) order exactly.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/check.h"
#include "util/types.h"

namespace hermes::sim {

// A move-only void() callable. A capture of up to kInlineBytes (8-byte
// aligned, nothrow-movable) is stored in place; anything larger lives on
// the heap behind a pointer kept in the same buffer. An empty callback
// (default-constructed, moved-from or reset) holds nothing.
class EventCallback {
 public:
  static constexpr size_t kInlineBytes = 32;

  EventCallback() = default;

  template <class F, class D = std::decay_t<F>,
            class = std::enable_if_t<!std::is_same_v<D, EventCallback>>>
  EventCallback(F&& f) {  // NOLINT(google-explicit-constructor)
    emplace(std::forward<F>(f));
  }

  EventCallback(EventCallback&& o) noexcept { take(o); }
  EventCallback& operator=(EventCallback&& o) noexcept {
    if (this != &o) {
      reset();
      take(o);
    }
    return *this;
  }
  EventCallback(const EventCallback&) = delete;
  EventCallback& operator=(const EventCallback&) = delete;
  ~EventCallback() { reset(); }

  // Replace the held callable with `f`, constructed in place.
  template <class F, class D = std::decay_t<F>>
  void emplace(F&& f) {
    reset();
    if constexpr (fits_inline<D>()) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      D* heap = new D(std::forward<F>(f));
      std::memcpy(buf_, &heap, sizeof(heap));
      ops_ = &kHeapOps<D>;
    }
  }

  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  explicit operator bool() const { return ops_ != nullptr; }
  void operator()() { ops_->invoke(buf_); }

  template <class F>
  static constexpr bool fits_inline() {
    return sizeof(F) <= kInlineBytes && alignof(F) <= 8 &&
           std::is_nothrow_move_constructible_v<F>;
  }

 private:
  struct Ops {
    void (*invoke)(void* buf);
    void (*relocate)(void* dst, void* src);  // move-construct, destroy src
    void (*destroy)(void* buf);
  };

  template <class D>
  static D* heap_ptr(void* buf) {
    D* p;
    std::memcpy(&p, buf, sizeof(p));
    return p;
  }

  template <class D>
  static constexpr Ops kInlineOps{
      [](void* b) { (*static_cast<D*>(b))(); },
      [](void* dst, void* src) {
        ::new (dst) D(std::move(*static_cast<D*>(src)));
        static_cast<D*>(src)->~D();
      },
      [](void* b) { static_cast<D*>(b)->~D(); }};

  template <class D>
  static constexpr Ops kHeapOps{
      [](void* b) { (*heap_ptr<D>(b))(); },
      [](void* dst, void* src) { std::memcpy(dst, src, sizeof(D*)); },
      [](void* b) { delete heap_ptr<D>(b); }};

  void take(EventCallback& o) {
    if (o.ops_ == nullptr) return;
    o.ops_->relocate(buf_, o.buf_);
    ops_ = o.ops_;
    o.ops_ = nullptr;
  }

  const Ops* ops_ = nullptr;
  alignas(8) unsigned char buf_[kInlineBytes];
};

class EventQueue {
 public:
  using Callback = EventCallback;

  // Opaque handle for cancellation. Cancelling an already-fired or already-
  // cancelled event is a harmless no-op: the handle carries the record's
  // generation tag, so a reused record slot never aliases an old handle.
  class Handle {
   public:
    Handle() = default;

   private:
    friend class EventQueue;
    Handle(uint32_t idx, uint32_t gen)
        : bits_((static_cast<uint64_t>(gen) << 32) | (idx + 1ull)) {}
    uint32_t idx() const { return static_cast<uint32_t>(bits_ & 0xffffffffu) - 1; }
    uint32_t gen() const { return static_cast<uint32_t>(bits_ >> 32); }
    uint64_t bits_ = 0;  // 0 = null handle
  };

  // The first record chunk comes with the queue. Allocated at the first
  // schedule instead, it landed inside the memory an LbDevice's set-up
  // frees (several MB of eBPF analysis state) and split it, which raised
  // short_conn's peak RSS from about 13.3 to 15.5-16 MB.
  EventQueue() {
    chunks_.push_back(std::make_unique<Record[]>(kChunkRecords));
  }
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  SimTime now() const { return now_; }

  // Schedule `f` (any void() callable, or an EventCallback) to run at
  // absolute time `at` (must be >= now()).
  template <class F>
  Handle schedule_at(SimTime at, F&& f) {
    HERMES_CHECK_MSG(at >= now_, "cannot schedule in the past");
    const uint32_t idx = alloc_record();
    Record& r = rec(idx);
    r.at = at;
    if constexpr (std::is_same_v<std::decay_t<F>, Callback>) {
      r.cb = std::forward<F>(f);
    } else {
      r.cb.emplace(std::forward<F>(f));
    }
    HERMES_DCHECK(static_cast<bool>(r.cb));
    place(idx);
    ++live_;
    return Handle{idx, r.gen};
  }

  template <class F>
  Handle schedule_after(SimTime delay, F&& f) {
    return schedule_at(now_ + delay, std::forward<F>(f));
  }

  // An empty callback marks a record cancelled (still chained, reaped when
  // popped) or free. A firing record's generation is already bumped, so
  // cancelling an event from inside its own callback does nothing.
  void cancel(Handle h) {
    if (h.bits_ == 0) return;
    const uint32_t idx = h.idx();
    if (idx >= used_) return;
    Record& r = rec(idx);
    if (r.gen != h.gen() || !r.cb) return;
    r.cb.reset();  // release captured state eagerly
    --live_;
  }

  bool empty() const { return live_ == 0; }
  size_t pending() const { return live_; }
  // Record chunks allocated so far (each holds kChunkRecords records).
  size_t record_chunks() const { return chunks_.size(); }

  // Run the next event; returns false if the queue is empty.
  bool step() {
    if (live_ == 0) return false;
    while (true) {
      const uint32_t idx = pop_next(kNoLimit);
      HERMES_DCHECK(idx != kNil);  // live_ > 0 guarantees one exists
      if (fire(idx)) return true;
    }
  }

  // Run until the queue drains or the clock passes `until`.
  // Events scheduled exactly at `until` are executed.
  void run_until(SimTime until) {
    const uint64_t limit = tick_of(until);
    while (live_ != 0) {
      const uint32_t idx = pop_next(limit);
      if (idx == kNil) break;
      fire(idx);
    }
    if (now_ < until) now_ = until;
  }

  void run_all() {
    while (step()) {
    }
  }

 private:
  static constexpr int kLevelBits = 6;
  static constexpr uint32_t kSlots = 64;
  static constexpr int kWheelLevels = 6;
  static constexpr uint32_t kNil = 0xffffffffu;
  static constexpr uint64_t kNoLimit = ~0ull;
  static constexpr uint32_t kChunkBits = 10;
  static constexpr uint32_t kChunkRecords = 1u << kChunkBits;

  // One entry in the indexed event calendar. `gen` tags each reuse so
  // stale handles can never cancel a successor event. `next` chains
  // records within a wheel slot (or the overflow list, or the free list)
  // in FIFO order.
  struct Record {
    SimTime at{};
    Callback cb;
    uint32_t gen = 0;
    uint32_t next = kNil;
  };
  static_assert(sizeof(Record) <= 56, "Record must stay within 56 bytes");

  struct Slot {
    uint32_t head = kNil;
    uint32_t tail = kNil;
  };

  static uint64_t tick_of(SimTime t) { return static_cast<uint64_t>(t.ns()); }

  // Slot width of level l in ticks: 64^l.
  static constexpr uint64_t span(int level) {
    return 1ull << (kLevelBits * level);
  }
  // Ticks covered by level l's whole window: 64^(l+1).
  static constexpr uint64_t window(int level) {
    return 1ull << (kLevelBits * (level + 1));
  }

  Record& rec(uint32_t idx) {
    return chunks_[idx >> kChunkBits][idx & (kChunkRecords - 1)];
  }

  // Pop the free list (most recently released first), else take the next
  // never-used record, adding a chunk when the last one is full.
  uint32_t alloc_record() {
    if (free_head_ != kNil) {
      const uint32_t idx = free_head_;
      free_head_ = rec(idx).next;
      return idx;
    }
    if ((used_ >> kChunkBits) == chunks_.size()) {
      chunks_.push_back(std::make_unique<Record[]>(kChunkRecords));
    }
    return used_++;
  }

  void release_record(uint32_t idx) {
    Record& r = rec(idx);
    HERMES_DCHECK(!r.cb);
    ++r.gen;  // stale handles die here
    r.next = free_head_;
    free_head_ = idx;
  }

  void append(Slot& slot, uint32_t idx) {
    rec(idx).next = kNil;
    if (slot.head == kNil) {
      slot.head = slot.tail = idx;
    } else {
      rec(slot.tail).next = idx;
      slot.tail = idx;
    }
  }

  // File a record into the lowest level whose window contains its tick, or
  // the overflow list. Windows only move forward and base_[l] <= any
  // running clock value, so t >= now() always lands somewhere.
  void place(uint32_t idx) {
    const uint64_t t = tick_of(rec(idx).at);
    for (int l = 0; l < kWheelLevels; ++l) {
      if (t < base_[l] + window(l)) {
        HERMES_DCHECK(t >= base_[l]);
        const uint32_t s = static_cast<uint32_t>((t - base_[l]) / span(l));
        append(wheel_[l][s], idx);
        occupancy_[l] |= 1ull << s;
        return;
      }
    }
    append(overflow_, idx);
  }

  // Redistribute one level-l slot into level l-1, re-windowing l-1 onto the
  // slot's range. Chain order is preserved, so per-slot FIFO (= insertion
  // order) survives every cascade. Cancelled records are reaped here
  // rather than carried down level by level (a worker's epoll timeout is
  // usually cancelled long before it would fire).
  void cascade(int l, uint32_t s) {
    base_[l - 1] = base_[l] + static_cast<uint64_t>(s) * span(l);
    uint32_t idx = wheel_[l][s].head;
    wheel_[l][s] = Slot{};
    occupancy_[l] &= ~(1ull << s);
    while (idx != kNil) {
      const uint32_t next = rec(idx).next;
      if (rec(idx).cb) {
        place(idx);
      } else {
        release_record(idx);
      }
      idx = next;
    }
  }

  // Rebase the whole wheel onto the earliest overflow tick `min_t` and
  // refile the overflow list (order-preserving). Only called when every
  // level is empty, so no in-wheel record can conflict with the new bases.
  void rebase_from_overflow(uint64_t min_t) {
    HERMES_DCHECK(overflow_.head != kNil);
    for (int l = 0; l < kWheelLevels; ++l) {
      // Align base_[l] down to a span(l) boundary containing min_t; bases
      // stay monotonically non-increasing with level (nesting invariant).
      base_[l] = (min_t / span(l)) * span(l);
    }
    uint32_t idx = overflow_.head;
    overflow_ = Slot{};
    while (idx != kNil) {
      const uint32_t next = rec(idx).next;
      place(idx);
      idx = next;
    }
  }

  // Pop the earliest record with tick <= limit, cascading upper levels down
  // as needed; kNil if the earliest event is beyond `limit`. Levels are
  // nested (every level-l record is at or beyond the end of level l-1's
  // window), so the earliest record always sits at the lowest occupied
  // level. Re-windowing only happens toward slots at or below `limit`, so
  // the wheel never advances past a run_until() boundary.
  uint32_t pop_next(uint64_t limit) {
    while (true) {
      int lowest = -1;
      for (int l = 0; l < kWheelLevels; ++l) {
        if (occupancy_[l] != 0) {
          lowest = l;
          break;
        }
      }
      if (lowest < 0) {
        if (overflow_.head == kNil) return kNil;
        // Everything in-wheel drained; bring the far future into range.
        uint64_t min_t = ~0ull;
        for (uint32_t i = overflow_.head; i != kNil; i = rec(i).next) {
          min_t = std::min(min_t, tick_of(rec(i).at));
        }
        if (min_t > limit) return kNil;
        rebase_from_overflow(min_t);
        continue;
      }
      const auto s = static_cast<uint32_t>(
          __builtin_ctzll(occupancy_[lowest]));
      const uint64_t slot_start =
          base_[lowest] + static_cast<uint64_t>(s) * span(lowest);
      if (slot_start > limit) return kNil;
      if (lowest == 0) {
        Slot& slot = wheel_[0][s];
        const uint32_t idx = slot.head;
        slot.head = rec(idx).next;
        if (slot.head == kNil) {
          slot.tail = kNil;
          occupancy_[0] &= ~(1ull << s);
        }
        return idx;
      }
      cascade(lowest, s);
    }
  }

  // Fire (or reap) one popped record. Returns true if a live callback ran.
  // The callback runs in place: chunks never move, and the record joins
  // the free list only after the call, so events the callback schedules
  // can neither reuse nor relocate it.
  bool fire(uint32_t idx) {
    Record& r = rec(idx);
    if (!r.cb) {
      release_record(idx);  // cancelled: reap lazily
      return false;
    }
    now_ = r.at;
    --live_;
    ++r.gen;  // the event's handle goes stale before its body runs
    r.cb();
    r.cb.reset();
    r.next = free_head_;
    free_head_ = idx;
    return true;
  }

  SimTime now_ = SimTime::zero();
  size_t live_ = 0;
  std::vector<std::unique_ptr<Record[]>> chunks_;
  uint32_t used_ = 0;          // records ever handed out (high-water mark)
  uint32_t free_head_ = kNil;  // free list, chained through Record::next
  Slot wheel_[kWheelLevels][kSlots]{};
  uint64_t occupancy_[kWheelLevels]{};
  uint64_t base_[kWheelLevels]{};
  Slot overflow_{};
};

// A self-rescheduling event body. Wraps `f(self)` where `self` may be passed
// back to schedule_at/schedule_after to re-arm the same body; every queue
// entry owns its own copy of the captured state. Recurring events must use
// this rather than the shared_ptr<function> self-capture idiom: a closure
// holding a shared_ptr to itself is a refcount cycle that never frees once
// the queue stops before the closure's final firing.
template <class F>
class Rearming {
 public:
  explicit Rearming(F f) : f_(std::move(f)) {}
  void operator()() { f_(*this); }

 private:
  F f_;
};

template <class F>
Rearming(F) -> Rearming<F>;

}  // namespace hermes::sim
