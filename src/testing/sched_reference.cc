#include "testing/sched_reference.h"

#include "core/bitmap.h"
#include "util/check.h"

namespace hermes::core {

namespace {

// FilterCount (Algo. 1 lines 11-13): keep workers whose metric is below
// avg + theta, where avg is computed over the *current* candidate set.
//
// The comparison is exact fixed-point: with n candidates and metric sum
// `sum`, "v < avg*(1 + theta)" becomes `v*n*1000 < sum*(1000 + tpm)` and
// the degenerate all-equal pass rule "v == avg" becomes `v*n == sum` —
// no division, no doubles, so values above 2^53 cannot be misclassified
// by rounding. Bounds: |metric| < 2^63, n <= 64, so |v*n*1000| < 2^79 and
// |sum*(1000+tpm)| < 2^69 * 2^50 = 2^119, both inside __int128.
//
// Returns the filtered bitmap; `metric` indexes by absolute worker id.
template <typename MetricFn>
WorkerBitmap filter_count(WorkerBitmap candidates, WorkerId base,
                          uint32_t limit, int64_t theta_permille,
                          MetricFn&& metric) {
  const uint32_t n = count_nonzero_bits(candidates);
  if (n == 0) return 0;
  __int128 sum = 0;
  for (uint32_t i = 0; i < limit; ++i) {
    if (bitmap_test(candidates, i)) {
      sum += metric(base + i);
    }
  }
  const __int128 rhs = sum * (1000 + theta_permille);
  WorkerBitmap out = 0;
  for (uint32_t i = 0; i < limit; ++i) {
    if (!bitmap_test(candidates, i)) continue;
    const __int128 vn = static_cast<__int128>(metric(base + i)) * n;
    // R_i < Avg + theta. When every candidate has the same value, the
    // strict comparison with theta == 0 would empty the set; treat the
    // degenerate all-equal case as all-pass (v*n == sum for everyone).
    if (vn * 1000 < rhs || vn == sum) out = bitmap_set(out, i);
  }
  return out;
}

}  // namespace

ScheduleResult schedule_reference_with_order(
    const HermesConfig& cfg, const WorkerStatusTable& wst, SimTime now,
    const FilterStage* order, uint32_t num_stages, WorkerId base,
    uint32_t limit) {
  if (limit == 0) {
    limit = wst.num_workers() - base;
  }
  HERMES_CHECK(limit <= kMaxWorkersPerGroup && base + limit <= wst.num_workers());

  // Snapshot the slice once: each metric is an individual atomic read; the
  // table is read lock-free while writers keep updating (paper §5.3.1).
  WorkerSnapshot snaps[kMaxWorkersPerGroup];
  for (uint32_t i = 0; i < limit; ++i) {
    snaps[i] = wst.read(base + i);
  }

  const int64_t tpm = theta_permille_of(cfg.theta_ratio);
  const auto is_hung = [&](const WorkerSnapshot& snap) {
    return now.ns() - snap.loop_enter_ns > cfg.hang_threshold.ns();
  };
  ScheduleResult res;
  WorkerBitmap w = limit == 64 ? ~0ull : ((1ull << limit) - 1);

  for (uint32_t s = 0; s < num_stages; ++s) {
    switch (order[s]) {
      case FilterStage::Time: {
        WorkerBitmap out = 0;
        for (uint32_t i = 0; i < limit; ++i) {
          if (bitmap_test(w, i) && !is_hung(snaps[i])) {
            out = bitmap_set(out, i);
          }
        }
        w = out;
        res.after_time = count_nonzero_bits(w);
        break;
      }
      case FilterStage::Connections:
        w = filter_count(w, base, limit, tpm,
                         [&](WorkerId id) { return snaps[id - base].connections; });
        res.after_conn = count_nonzero_bits(w);
        break;
      case FilterStage::PendingEvents:
        w = filter_count(w, base, limit, tpm, [&](WorkerId id) {
          return snaps[id - base].pending_events;
        });
        res.after_event = count_nonzero_bits(w);
        break;
    }
  }

  res.bitmap = w;
  res.selected = count_nonzero_bits(w);
  return res;
}

}  // namespace hermes::core
