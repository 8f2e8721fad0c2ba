// Hermes stage 2: the cascading worker filter (paper Algo. 1, §5.2.2).
//
// schedule() is the coarse-grained filter every worker runs at the end of
// its epoll event loop:
//   1. FilterTime:  drop workers whose loop-entry timestamp is stale
//                   (hung/crashed detection) — stability first;
//   2. FilterCount(conn):  keep workers with connections < avg + theta
//                   (guards against the "lag effect" of synchronized surges
//                   over accumulated connections);
//   3. FilterCount(event): keep workers with pending events < avg + theta
//                   (fast responders, lower latency).
// The filtering ORDER is a design decision the paper justifies; the
// ablation bench swaps it to show why. theta = theta_ratio * avg (Fig. 15).
//
// The implementation (DESIGN.md §8) does one SoA gather over the group
// slice, then branchless bit-walking (`w &= w - 1`) over surviving
// candidates only, with exact 128-bit fixed-point threshold math (see
// theta_permille_of). tests/sched_fast_test.cc proves its bitmaps
// bit-identical to the scalar transcription of Algo. 1 kept as the
// differential oracle in testing/sched_reference.h.
//
// Single O(n) pass per filter over at most 64 workers; no allocation on the
// hot path.
#pragma once

#include <cstdint>

#include "core/bitmap.h"
#include "core/config.h"
#include "core/wst.h"
#include "util/types.h"

namespace hermes::core {

struct ScheduleResult {
  WorkerBitmap bitmap = 0;       // workers surviving all filters
  uint32_t after_time = 0;       // survivors after FilterTime
  uint32_t after_conn = 0;       // survivors after FilterCount(conn)
  uint32_t after_event = 0;      // survivors after FilterCount(event)
  uint32_t selected = 0;         // popcount(bitmap)
  // Set by HermesRuntime::schedule_and_sync: true when the bitmap was
  // stored into M_sel, false when the sync was change-suppressed or
  // dropped by fault injection.
  bool published = false;
};

// theta_ratio quantized to permille for the exact integer threshold
// comparison `v*n*1000 < sum*(1000 + theta_permille)`. Clamped to
// [0, 10^15] so |sum * (1000 + tpm)| < 2^69 * 2^50 stays far inside
// a signed 128-bit product.
int64_t theta_permille_of(double theta_ratio);

class Scheduler {
 public:
  explicit Scheduler(HermesConfig cfg) : cfg_(cfg) {}

  const HermesConfig& config() const { return cfg_; }
  // Live policy updates (PolicyEndpoint / ops tooling). Safe: the
  // scheduler reads its config afresh on every schedule() call.
  HermesConfig& mutable_config() { return cfg_; }
  void set_theta_ratio(double r) { cfg_.theta_ratio = r; }

  // Run Algo. 1 over the first `limit` workers of the WST starting at
  // `base` (group slicing for >64-worker machines); limit <= 64.
  ScheduleResult schedule(const WorkerStatusTable& wst, SimTime now,
                          WorkerId base = 0, uint32_t limit = 0) const;

  // Ablation hook: run the cascade in a custom stage order.
  ScheduleResult schedule_with_order(const WorkerStatusTable& wst, SimTime now,
                                     const FilterStage* order,
                                     uint32_t num_stages, WorkerId base = 0,
                                     uint32_t limit = 0) const;

  // Filter core over an already-gathered SoA slice (arrays indexed
  // 0..limit-1). Exposed so the two-level variant can gather every group's
  // slots in one WST scan and filter per group from the same arrays.
  ScheduleResult schedule_gathered(const int64_t* loop_enter_ns,
                                   const int64_t* pending_events,
                                   const int64_t* connections, uint32_t limit,
                                   SimTime now, const FilterStage* order,
                                   uint32_t num_stages) const;

  // FilterTime predicate exposed for reuse (degradation, probes).
  bool is_hung(const WorkerSnapshot& snap, SimTime now) const {
    return now.ns() - snap.loop_enter_ns > cfg_.hang_threshold.ns();
  }

 private:
  HermesConfig cfg_;
};

}  // namespace hermes::core
