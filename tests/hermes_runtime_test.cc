// HermesRuntime end-to-end with the netsim kernel: the full closed loop of
// stages 1-3 without the workload simulator.
#include <gtest/gtest.h>

#include <map>

#include "core/hermes.h"
#include "netsim/netstack.h"
#include "simcore/rng.h"

namespace hermes::core {
namespace {

netsim::FourTuple rand_tuple(sim::Rng& rng, uint16_t dport) {
  return netsim::FourTuple{static_cast<uint32_t>(rng.next_u64()),
                           0x0a000001,
                           static_cast<uint16_t>(rng.next_u64()), dport};
}

class RuntimeTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kWorkers = 4;

  RuntimeTest() : runtime_(make_options()) {
    netsim::NetStack::Config cfg;
    cfg.mode = netsim::DispatchMode::HermesMode;
    cfg.num_workers = kWorkers;
    ns_.emplace(cfg);
    ns_->add_port(80);

    // Wire stage 3: per-port sockarray from the port's socket cookies.
    std::vector<uint64_t> cookies;
    for (WorkerId w = 0; w < kWorkers; ++w) {
      cookies.push_back(ns_->worker_socket(80, w)->cookie());
    }
    attachment_ = runtime_.attach_port(cookies);
    ns_->group(80)->attach_program(&runtime_.vm(), attachment_.program.get());
  }

  static HermesRuntime::Options make_options() {
    HermesRuntime::Options o;
    o.num_workers = kWorkers;
    return o;
  }

  void all_alive(SimTime now) {
    for (WorkerId w = 0; w < kWorkers; ++w) {
      runtime_.hooks_for(w).on_loop_enter(now);
    }
  }

  std::map<WorkerId, int> drive_connections(int n, uint64_t seed) {
    sim::Rng rng(seed);
    std::map<WorkerId, int> got;
    ns_->set_socket_ready_fn(
        [&](WorkerId w, netsim::ListeningSocket&) { ++got[w]; });
    for (int i = 0; i < n; ++i) {
      ns_->on_connection_request(rand_tuple(rng, 80), 80, 0, SimTime::zero());
    }
    return got;
  }

  HermesRuntime runtime_;
  std::optional<netsim::NetStack> ns_;
  PortAttachment attachment_;
};

TEST_F(RuntimeTest, FullLoopDispatchesOnlyToSelectedWorkers) {
  const SimTime now = SimTime::millis(10);
  all_alive(now);
  // Make workers 1 and 3 heavily loaded: scheduler must exclude them.
  runtime_.hooks_for(1).wst();  // (hooks are value handles; use wst directly)
  runtime_.wst().add_connections(1, 1000);
  runtime_.wst().add_connections(3, 800);

  const auto res = runtime_.schedule_and_sync(/*self=*/0, now);
  EXPECT_EQ(res.bitmap, 0b0101u);
  EXPECT_EQ(runtime_.kernel_bitmap(), 0b0101u);

  auto got = drive_connections(500, 42);
  EXPECT_GT(got[0], 0);
  EXPECT_GT(got[2], 0);
  EXPECT_EQ(got.count(1), 0u);
  EXPECT_EQ(got.count(3), 0u);
  EXPECT_EQ(ns_->group(80)->stats().bpf_selections, 500u);
}

TEST_F(RuntimeTest, SingleSurvivorFallsBackToHashing) {
  // Three workers hung: only one passes the coarse filter, which is below
  // the kernel's n>1 requirement -> plain reuseport hashing.
  const SimTime now = SimTime::seconds(1);
  all_alive(now);
  for (WorkerId w : {1u, 2u, 3u}) {
    runtime_.wst().update_avail(w, SimTime::zero());
  }
  const auto res = runtime_.schedule_and_sync(0, now);
  EXPECT_EQ(res.selected, 1u);

  auto got = drive_connections(400, 43);
  // Fallback hashing spreads over everyone — including "overloaded" ones.
  EXPECT_EQ(ns_->group(80)->stats().bpf_fallbacks, 400u);
  EXPECT_GE(got.size(), 3u);
}

TEST_F(RuntimeTest, HungWorkerBypassedAfterSync) {
  const SimTime now = SimTime::seconds(1);
  all_alive(now);
  runtime_.wst().update_avail(2, SimTime::zero());  // hung long ago
  runtime_.schedule_and_sync(0, now);
  auto got = drive_connections(300, 44);
  EXPECT_EQ(got.count(2), 0u);
  EXPECT_EQ(got[0] + got[1] + got[3], 300);
}

TEST_F(RuntimeTest, StaleBitmapRefreshedByNextSync) {
  const SimTime t1 = SimTime::millis(10);
  all_alive(t1);
  runtime_.wst().add_connections(0, 1000);
  runtime_.schedule_and_sync(1, t1);
  EXPECT_FALSE(bitmap_test(runtime_.kernel_bitmap(), 0));

  // Worker 0 drains; any worker's next schedule pass restores it.
  runtime_.wst().add_connections(0, -1000);
  const SimTime t2 = SimTime::millis(15);
  all_alive(t2);
  runtime_.schedule_and_sync(3, t2);
  EXPECT_TRUE(bitmap_test(runtime_.kernel_bitmap(), 0));
}

TEST_F(RuntimeTest, CountersTrackSchedulesAndSyncs) {
  // Two back-to-back syncs of distinct bitmaps: both publish.
  const SimTime now = SimTime::millis(5);
  all_alive(now);
  auto res = runtime_.schedule_and_sync(0, now);
  EXPECT_TRUE(res.published);
  EXPECT_EQ(res.selected, 4u);
  runtime_.wst().add_connections(2, 1000);  // over the connection threshold
  res = runtime_.schedule_and_sync(1, now);
  EXPECT_TRUE(res.published);
  EXPECT_EQ(res.selected, 3u);
  EXPECT_EQ(runtime_.counters().schedules, 2u);
  EXPECT_EQ(runtime_.counters().syncs, 2u);
  EXPECT_EQ(runtime_.counters().syncs_suppressed, 0u);
  EXPECT_EQ(runtime_.counters().workers_selected_sum, 7u);
}

TEST_F(RuntimeTest, FastPathSuppressesUnchangedSyncWithinRefreshInterval) {
  const SimTime now = SimTime::millis(5);
  all_alive(now);
  auto res = runtime_.schedule_and_sync(0, now);
  EXPECT_TRUE(res.published);
  // Identical bitmap within sync_refresh_interval: store skipped.
  res = runtime_.schedule_and_sync(1, now + SimTime::millis(1));
  EXPECT_FALSE(res.published);
  EXPECT_EQ(runtime_.counters().syncs, 1u);
  EXPECT_EQ(runtime_.counters().syncs_suppressed, 1u);
  // Changed bitmap: published immediately even inside the interval.
  runtime_.wst().add_connections(2, 1000);
  res = runtime_.schedule_and_sync(0, now + SimTime::millis(2));
  EXPECT_TRUE(res.published);
  EXPECT_FALSE(bitmap_test(runtime_.kernel_bitmap(), 2));
  // Identical again, but the refresh interval elapsed: forced publish.
  const SimTime later =
      now + SimTime::millis(2) + runtime_.config().sync_refresh_interval;
  all_alive(later);
  res = runtime_.schedule_and_sync(1, later);
  EXPECT_TRUE(res.published);
  EXPECT_EQ(runtime_.counters().syncs, 3u);
  EXPECT_EQ(runtime_.counters().syncs_suppressed, 1u);
  // schedules counts every run, suppressed or not.
  EXPECT_EQ(runtime_.counters().schedules, 4u);
}

TEST(RuntimeGroupTest, TwoLevelRuntimeFor128Workers) {
  HermesRuntime::Options o;
  o.num_workers = 128;
  o.config.workers_per_group = 64;
  HermesRuntime rt(o);
  EXPECT_EQ(rt.num_groups(), 2u);

  const SimTime now = SimTime::millis(1);
  for (WorkerId w = 0; w < 128; ++w) rt.hooks_for(w).on_loop_enter(now);

  // Worker 70 (group 1) schedules only group 1's slice.
  rt.wst().add_connections(100, 5000);
  const auto res = rt.schedule_and_sync(70, now);
  EXPECT_EQ(res.selected, 63u);                       // group 1 minus worker 100
  EXPECT_FALSE(bitmap_test(res.bitmap, 100 - 64));    // group-relative bit
  EXPECT_EQ(rt.kernel_bitmap(1), res.bitmap);
  EXPECT_EQ(rt.kernel_bitmap(0), 0u);  // group 0 not scheduled yet
}

TEST(RuntimeGroupTest, OddWorkerCountLastGroupSmaller) {
  HermesRuntime::Options o;
  o.num_workers = 70;
  o.config.workers_per_group = 64;
  HermesRuntime rt(o);
  EXPECT_EQ(rt.num_groups(), 2u);
  const SimTime now = SimTime::millis(1);
  for (WorkerId w = 0; w < 70; ++w) rt.hooks_for(w).on_loop_enter(now);
  const auto res = rt.schedule_and_sync(69, now);
  EXPECT_EQ(res.selected, 6u);  // workers 64..69
}

TEST(RuntimeShmTest, ExternalMemoryBacksWst) {
  std::vector<uint8_t> buf(WorkerStatusTable::required_bytes(4) + 64);
  const auto addr = reinterpret_cast<uintptr_t>(buf.data());
  void* mem = reinterpret_cast<void*>((addr + 63) & ~uintptr_t{63});

  HermesRuntime::Options o;
  o.num_workers = 4;
  o.wst_memory = mem;
  HermesRuntime rt(o);
  rt.wst().add_connections(2, 7);

  // Another attach to the same bytes sees the update (the multi-process
  // path; full fork()-based coverage lives in wst_test).
  auto other = WorkerStatusTable::attach(mem);
  EXPECT_EQ(other.connections(2), 7);
}

}  // namespace
}  // namespace hermes::core
