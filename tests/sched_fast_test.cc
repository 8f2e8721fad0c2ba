// Scheduling fast path (DESIGN.md §8): core::Scheduler against the
// reference implementation kept in testing/sched_reference.h.
//
// The contract is bit-identical bitmaps: both implement exact 128-bit
// fixed-point threshold math, differing only in traversal (scalar loops
// over per-worker snapshots vs one SoA gather + set-bit walking). The
// differential sweep here crosses >=10k randomized WST snapshots with all
// 6 stage orders, theta in {0, 0.1, 0.5} and group limits {1, 2, 63, 64},
// mixing metric magnitudes up to ~2^60 in half the snapshots so the >2^53
// range — where the old double-precision filter misclassified — stays
// covered, and small counts only in the other half, where theta decides
// verdicts. A
// second sweep drives the two-level variant (one WST scan for every group,
// HermesRuntime::schedule_all_groups) at 128 and 192 workers and checks
// each group against the reference on that group's slice.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/hermes.h"
#include "core/scheduler.h"
#include "core/wst.h"
#include "simcore/rng.h"
#include "test_util.h"
#include "testing/sched_reference.h"

namespace hermes {
namespace {

using core::FilterStage;
using core::ScheduleResult;
using core::Scheduler;
using core::WorkerStatusTable;

// All 6 permutations of the three cascade stages.
constexpr FilterStage kOrders[6][3] = {
    {FilterStage::Time, FilterStage::Connections, FilterStage::PendingEvents},
    {FilterStage::Time, FilterStage::PendingEvents, FilterStage::Connections},
    {FilterStage::Connections, FilterStage::Time, FilterStage::PendingEvents},
    {FilterStage::Connections, FilterStage::PendingEvents, FilterStage::Time},
    {FilterStage::PendingEvents, FilterStage::Time, FilterStage::Connections},
    {FilterStage::PendingEvents, FilterStage::Connections, FilterStage::Time},
};
constexpr double kThetas[] = {0.0, 0.1, 0.5};
constexpr uint32_t kLimits[] = {1, 2, 63, 64};

// A metric value of varied magnitude: mostly small counts, sometimes huge
// (beyond 2^53, where double rounding is lossy). Snapshots draw either
// from the full mix (`huge`) or from small counts only: once a ~2^60 value
// is in the candidate set it dominates the average, so theta could not
// change a verdict and the theta axis would go untested.
int64_t random_metric(sim::Rng& rng, bool huge) {
  if (!huge) return static_cast<int64_t>(rng.next_below(1000));
  switch (rng.next_below(4)) {
    case 0: return 0;
    case 1: return static_cast<int64_t>(rng.next_below(1000));
    case 2: return static_cast<int64_t>(rng.next_below(1u << 30));
    default:
      return (int64_t{1} << 60) + static_cast<int64_t>(rng.next_below(8));
  }
}

// The scheduler's result and the reference's, in that order, for the
// whole table in the configured stage order.
std::vector<ScheduleResult> schedule_both(const core::HermesConfig& cfg,
                                          const WorkerStatusTable& wst,
                                          SimTime now) {
  return {Scheduler(cfg).schedule(wst, now),
          core::schedule_reference_with_order(cfg, wst, now, cfg.stage_order,
                                              cfg.num_stages)};
}

TEST(SchedFastDifferentialTest, FastMatchesReferenceBitForBit) {
  sim::Rng rng(0x5eedfa57);
  const SimTime now = SimTime::seconds(100);
  uint64_t snapshots = 0;

  for (uint32_t limit : kLimits) {
    auto buf = testing::wst_buffer(limit);
    for (int iter = 0; iter < 2500; ++iter) {
      auto wst = WorkerStatusTable::init(buf.data(), limit);
      const bool huge = rng.bernoulli(0.5);
      for (WorkerId w = 0; w < limit; ++w) {
        // Heartbeats spread across [now - 100ms, now]: both sides of the
        // 50 ms hang threshold, plus never-started workers.
        if (rng.bernoulli(0.1)) {
          wst.update_avail(w, SimTime::zero());
        } else {
          wst.update_avail(
              w, now - SimTime::millis(static_cast<int64_t>(rng.next_below(100))));
        }
        wst.add_connections(w, random_metric(rng, huge));
        wst.add_pending(w, random_metric(rng, huge));
      }
      ++snapshots;

      for (const auto& order : kOrders) {
        for (double theta : kThetas) {
          core::HermesConfig cfg;
          cfg.theta_ratio = theta;
          Scheduler sched(cfg);
          const ScheduleResult fast =
              sched.schedule_with_order(wst, now, order, 3, 0, limit);
          const ScheduleResult ref = core::schedule_reference_with_order(
              cfg, wst, now, order, 3, 0, limit);
          ASSERT_EQ(fast.bitmap, ref.bitmap)
              << "limit=" << limit << " theta=" << theta << " iter=" << iter;
          ASSERT_EQ(fast.after_time, ref.after_time);
          ASSERT_EQ(fast.after_conn, ref.after_conn);
          ASSERT_EQ(fast.after_event, ref.after_event);
          ASSERT_EQ(fast.selected, ref.selected);
        }
      }
    }
  }
  EXPECT_GE(snapshots, 10000u);
}

// The two-level variant: one gather over the whole table, then every
// group filtered from its slice of the shared SoA arrays
// (Scheduler::schedule_gathered). Each group's result must equal the
// reference run on that group's slice alone.
TEST(SchedFastDifferentialTest, AllGroupsMatchReferencePerGroup) {
  sim::Rng rng(0x2b1e7e1);
  const SimTime now = SimTime::seconds(100);
  uint64_t groups_checked = 0;

  for (uint32_t workers : {128u, 192u}) {
    core::HermesRuntime::Options opts;
    opts.num_workers = workers;
    core::HermesRuntime rt(opts);
    WorkerStatusTable& wst = rt.wst();
    const uint32_t wpg = rt.workers_per_group();
    ASSERT_GT(rt.num_groups(), 1u);
    std::vector<ScheduleResult> out(rt.num_groups());

    for (int iter = 0; iter < 200; ++iter) {
      // Same snapshot distribution as the single-group sweep, written as
      // deltas onto the runtime's own table.
      const bool huge = rng.bernoulli(0.5);
      for (WorkerId w = 0; w < workers; ++w) {
        const core::WorkerSnapshot cur = wst.read(w);
        wst.update_avail(
            w, rng.bernoulli(0.1)
                   ? SimTime::zero()
                   : now - SimTime::millis(
                               static_cast<int64_t>(rng.next_below(100))));
        wst.add_connections(w, random_metric(rng, huge) - cur.connections);
        wst.add_pending(w, random_metric(rng, huge) - cur.pending_events);
      }

      for (const auto& order : kOrders) {
        for (double theta : kThetas) {
          core::HermesConfig& cfg = rt.scheduler().mutable_config();
          cfg.theta_ratio = theta;
          std::copy(order, order + 3, cfg.stage_order);
          rt.schedule_all_groups(0, now, out.data());
          for (uint32_t g = 0; g < rt.num_groups(); ++g) {
            const WorkerId base = g * wpg;
            const uint32_t limit = std::min(wpg, workers - base);
            const ScheduleResult ref = core::schedule_reference_with_order(
                cfg, wst, now, order, 3, base, limit);
            ASSERT_EQ(out[g].bitmap, ref.bitmap)
                << "workers=" << workers << " group=" << g
                << " theta=" << theta << " iter=" << iter;
            ASSERT_EQ(out[g].after_time, ref.after_time);
            ASSERT_EQ(out[g].after_conn, ref.after_conn);
            ASSERT_EQ(out[g].after_event, ref.after_event);
            ASSERT_EQ(out[g].selected, ref.selected);
            ++groups_checked;
          }
        }
      }
    }
  }
  EXPECT_EQ(groups_checked, 200u * 18u * (2u + 3u));
}

// Regression for the latent double-rounding bug the fixed-point rewrite
// fixes (old src/core/scheduler.cc:31): with connections {2^60, 2^60,
// 2^60 + 1} and theta = 0, double math rounds sum to 3*2^60, makes
// avg == 2^60 exactly, and rounds worker 2's value down onto the average —
// the `v == avg` degenerate check then wrongly kept the over-threshold
// worker. Exact integer math filters it: v*n = 3*2^60 + 3 > sum =
// 3*2^60 + 1, and v*n != sum.
TEST(SchedFastDifferentialTest, Above2Pow53OverThresholdWorkerIsFiltered) {
  constexpr uint32_t kWorkers = 3;
  auto buf = testing::wst_buffer(kWorkers);
  auto wst = WorkerStatusTable::init(buf.data(), kWorkers);
  const SimTime now = SimTime::seconds(1);
  constexpr int64_t kBig = int64_t{1} << 60;
  for (WorkerId w = 0; w < kWorkers; ++w) {
    wst.update_avail(w, now);
    wst.add_connections(w, w == 2 ? kBig + 1 : kBig);
  }

  core::HermesConfig cfg;
  cfg.theta_ratio = 0.0;
  for (const ScheduleResult& res : schedule_both(cfg, wst, now)) {
    EXPECT_TRUE(core::bitmap_test(res.bitmap, 0));
    EXPECT_TRUE(core::bitmap_test(res.bitmap, 1));
    EXPECT_FALSE(core::bitmap_test(res.bitmap, 2))
        << "over-threshold worker passed via rounding";
    EXPECT_EQ(res.selected, 2u);
  }
}

// The degenerate all-equal pass rule survives the rewrite even above 2^53:
// every candidate at exactly the same huge value passes with theta = 0.
TEST(SchedFastDifferentialTest, AllEqualHugeMetricsKeepEveryone) {
  constexpr uint32_t kWorkers = 5;
  auto buf = testing::wst_buffer(kWorkers);
  auto wst = WorkerStatusTable::init(buf.data(), kWorkers);
  const SimTime now = SimTime::seconds(1);
  for (WorkerId w = 0; w < kWorkers; ++w) {
    wst.update_avail(w, now);
    wst.add_connections(w, (int64_t{1} << 60) + 7);
    wst.add_pending(w, (int64_t{1} << 59) + 3);
  }
  core::HermesConfig cfg;
  cfg.theta_ratio = 0.0;
  for (const ScheduleResult& res : schedule_both(cfg, wst, now)) {
    EXPECT_EQ(res.selected, kWorkers);
  }
}

// theta quantization: the permille conversion is exact for the paper's
// sweep values and clamps the extremes that would overflow the product.
TEST(SchedFastDifferentialTest, ThetaPermilleQuantization) {
  EXPECT_EQ(core::theta_permille_of(0.0), 0);
  EXPECT_EQ(core::theta_permille_of(0.1), 100);
  EXPECT_EQ(core::theta_permille_of(0.5), 500);
  EXPECT_EQ(core::theta_permille_of(1.5), 1500);
  EXPECT_EQ(core::theta_permille_of(-1.0), 0);            // clamped low
  EXPECT_EQ(core::theta_permille_of(1e18), 1000000000000000);  // clamped high
}

}  // namespace
}  // namespace hermes
