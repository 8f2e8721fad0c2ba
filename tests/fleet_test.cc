// Fleet tests: Maglev table properties (balance, minimal disruption on
// membership churn), front-tier routing consistency, PCC violation
// accounting under LB add/remove, fleet-scale imbalance, and the multi-LB
// operations the deployment scenarios use (MultiLbTest: canary drain,
// sandbox pinning, per-device join mode, lockstep clocks).
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "sim/fleet.h"

namespace hermes::sim {
namespace {

LbDevice::ConnPlan sticky_plan() {
  // Connections that stay open: many requests with a long constant gap, so
  // the live set is stable while audits run.
  LbDevice::ConnPlan plan;
  plan.remaining = 1000;
  plan.cost_us = DistSpec::constant(50);
  plan.bytes = DistSpec::constant(400);
  plan.gap_us = DistSpec::constant(5'000'000);  // 5 s between requests
  return plan;
}

Fleet::Config small_fleet(uint32_t num_lbs) {
  Fleet::Config fc;
  fc.num_lbs = num_lbs;
  fc.device.mode = netsim::DispatchMode::HermesMode;
  fc.device.num_workers = 2;
  fc.device.num_ports = 4;
  fc.device.backlog = 4096;
  fc.device.observability = false;
  fc.seed = 7;
  return fc;
}

TEST(MaglevTest, SlotsBalancedAcrossBackends) {
  MaglevTable table(65537);
  const std::vector<uint32_t> backends = {0, 1, 2, 3, 4};
  table.build(backends);
  std::map<uint32_t, uint32_t> owned;
  for (uint32_t s = 0; s < table.size(); ++s) ++owned[table.slot_owner(s)];
  ASSERT_EQ(owned.size(), backends.size());
  const double expect = 65537.0 / 5.0;
  for (const auto& [id, n] : owned) {
    EXPECT_GT(n, expect * 0.99) << "backend " << id;
    EXPECT_LT(n, expect * 1.01) << "backend " << id;
  }
}

TEST(MaglevTest, RemovalDisruptsOnlyRemovedBackendsSlots) {
  MaglevTable before(65537), after(65537);
  before.build({0, 1, 2, 3});
  after.build({0, 1, 3});
  uint32_t moved_surviving = 0, total_surviving = 0;
  for (uint32_t s = 0; s < before.size(); ++s) {
    if (before.slot_owner(s) == 2) continue;  // removed backend's slots
    ++total_surviving;
    if (after.slot_owner(s) != before.slot_owner(s)) ++moved_surviving;
  }
  // Maglev's disruption bound: slots owned by survivors barely move.
  EXPECT_LT(static_cast<double>(moved_surviving) /
                static_cast<double>(total_surviving),
            0.03);
}

TEST(MaglevTest, AdditionRemapsRoughlyOneNth) {
  MaglevTable before(65537), after(65537);
  before.build({0, 1, 2, 3});
  after.build({0, 1, 2, 3, 4});
  uint32_t moved = 0;
  for (uint32_t s = 0; s < before.size(); ++s) {
    if (after.slot_owner(s) != before.slot_owner(s)) ++moved;
  }
  const double frac = static_cast<double>(moved) / 65537.0;
  EXPECT_GT(frac, 0.15);  // the new backend must take ~1/5
  EXPECT_LT(frac, 0.30);  // ...but not much more than that
}

TEST(FleetTest, OpenBurstRoutesByTupleHashWithZeroViolations) {
  Fleet fleet(small_fleet(4));
  const size_t established = fleet.open_burst(0, sticky_plan(), 2000);
  EXPECT_GT(established, 1900u);
  // Every connection sits on the device its tuple hash routes to.
  const auto audit = fleet.audit_pcc();
  EXPECT_EQ(audit.checked, established);
  EXPECT_EQ(audit.maglev_violations, 0u);
  // Devices all got a share.
  for (size_t d = 0; d < fleet.device_count(); ++d) {
    EXPECT_GT(fleet.device(d).live_connections(), 0u) << "device " << d;
  }
}

TEST(FleetTest, RequestsCompleteAcrossFleetInLockstep) {
  Fleet fleet(small_fleet(3));
  fleet.open_burst(0, sticky_plan(), 600);
  fleet.run_until(SimTime::millis(500));
  // Every accepted connection delivered (at least) its first request.
  EXPECT_GT(fleet.total_completed(), 500u);
  EXPECT_EQ(fleet.now(), SimTime::millis(500));
}

TEST(FleetTest, AddLbRemapsSmallFractionUnderMaglev) {
  Fleet fleet(small_fleet(4));
  const size_t established = fleet.open_burst(0, sticky_plan(), 4000);
  fleet.run_until(SimTime::millis(200));

  fleet.add_lb();
  const auto audit = fleet.audit_pcc();
  EXPECT_EQ(audit.checked, established);
  // Maglev: ~1/5 of connections remap; the mod-N baseline breaks most of
  // the fleet (canonical stateless-LB comparison).
  const double maglev_frac = static_cast<double>(audit.maglev_violations) /
                             static_cast<double>(audit.checked);
  const double modn_frac = static_cast<double>(audit.modn_violations) /
                           static_cast<double>(audit.checked);
  EXPECT_GT(maglev_frac, 0.10);
  EXPECT_LT(maglev_frac, 0.30);
  EXPECT_GT(modn_frac, 0.5);
  EXPECT_GT(modn_frac, maglev_frac * 2);
}

TEST(FleetTest, RemoveLbBreaksItsConnectionsOnly) {
  Fleet fleet(small_fleet(4));
  fleet.open_burst(0, sticky_plan(), 4000);
  fleet.run_until(SimTime::millis(200));  // let accepts drain

  const uint64_t victim_live = fleet.device(2).live_connections();
  ASSERT_GT(victim_live, 0u);
  const uint64_t live_before = fleet.total_live();

  fleet.remove_lb(2);
  EXPECT_FALSE(fleet.active(2));
  EXPECT_EQ(fleet.active_count(), 3u);
  // Broken = exactly the removed device's connections.
  EXPECT_EQ(fleet.broken_total(), victim_live);

  // Survivors: Maglev leaves nearly all of them routed where they live
  // (only the removed device's hash-space moved).
  const auto audit = fleet.audit_pcc();
  EXPECT_GE(audit.checked, live_before - victim_live - 10);
  const double maglev_frac = static_cast<double>(audit.maglev_violations) /
                             static_cast<double>(audit.checked);
  EXPECT_LT(maglev_frac, 0.05);

  // New traffic only lands on active devices.
  const uint64_t on_victim = fleet.device(2).live_connections();
  fleet.open_burst(1, sticky_plan(), 1000);
  EXPECT_EQ(fleet.device(2).live_connections(), on_victim);
}

TEST(FleetTest, RemoveLbClosesItsQueuedConnections) {
  // Per-worker sockets (hermes) and shared sockets (epoll exclusive).
  for (auto mode : {netsim::DispatchMode::HermesMode,
                    netsim::DispatchMode::EpollExclusive}) {
    Fleet::Config fc = small_fleet(4);
    fc.device.mode = mode;
    Fleet fleet(fc);
    LbDevice::ConnPlan plan;
    plan.remaining = 3;
    fleet.open_burst(0, plan, 2000);
    // Removed at once: its connections still sit in accept queues.
    const uint64_t victim_live = fleet.device(2).live_connections();
    ASSERT_GT(victim_live, 0u) << to_string(mode);
    fleet.remove_lb(2);
    EXPECT_EQ(fleet.broken_total(), victim_live) << to_string(mode);
    EXPECT_EQ(fleet.device(2).live_connections(), 0u) << to_string(mode);
    EXPECT_EQ(fleet.device(2).netstack().live_connections(), 0u)
        << to_string(mode);
    // A broken connection never completes a request on the removed LB.
    fleet.run_until(SimTime::seconds(1));
    EXPECT_EQ(fleet.device(2).totals().requests_completed, 0u)
        << to_string(mode);
    EXPECT_GT(fleet.total_completed(), 0u) << to_string(mode);
  }
}

TEST(FleetTest, AddLbRunsTheJoiningDevicesMode) {
  Fleet fleet(small_fleet(2));
  const size_t joined = fleet.add_lb(netsim::DispatchMode::EpollExclusive);
  const size_t same = fleet.add_lb();
  EXPECT_EQ(fleet.device(joined).config().mode,
            netsim::DispatchMode::EpollExclusive);
  EXPECT_EQ(fleet.device(joined).hermes(), nullptr);
  for (size_t d : {size_t{0}, size_t{1}, same}) {
    EXPECT_EQ(fleet.device(d).config().mode, netsim::DispatchMode::HermesMode);
    EXPECT_NE(fleet.device(d).hermes(), nullptr);
  }
  // The joined device serves its share of traffic in its own mode.
  LbDevice::ConnPlan plan;
  plan.cost_us = DistSpec::constant(100);
  fleet.open_burst(0, plan, 400);
  fleet.run_until(SimTime::seconds(1));
  EXPECT_GT(fleet.device(joined).totals().requests_completed, 0u);
  EXPECT_EQ(fleet.device(joined).totals().requests_completed,
            fleet.device(joined).totals().conns_opened);
}

TEST(FleetTest, ImbalanceReflectsPerDeviceConnCounts) {
  Fleet fleet(small_fleet(4));
  fleet.open_burst(0, sticky_plan(), 8000);
  const auto im = fleet.imbalance();
  EXPECT_GT(im.conn_avg, 0);
  EXPECT_GE(im.conn_max, im.conn_min);
  // Hash spread over 4 devices: max/avg stays near 1.
  EXPECT_GT(im.max_over_avg, 0.9);
  EXPECT_LT(im.max_over_avg, 1.3);
}

Fleet::Config cluster_config(uint32_t num_lbs, netsim::DispatchMode mode) {
  Fleet::Config fc;
  fc.num_lbs = num_lbs;
  fc.device.mode = mode;
  fc.device.num_workers = 4;
  fc.device.num_ports = 4;
  fc.seed = 5;
  return fc;
}

TEST(MultiLbTest, SpraysAcrossAllDevices) {
  Fleet fleet(cluster_config(4, netsim::DispatchMode::HermesMode));
  LbDevice::ConnPlan plan;
  plan.cost_us = DistSpec::constant(100);
  for (int i = 0; i < 800; ++i) EXPECT_EQ(fleet.open_burst(0, plan, 1), 1u);
  for (size_t d = 0; d < 4; ++d) {
    EXPECT_NEAR(static_cast<double>(fleet.device(d).totals().conns_opened),
                200, 70)
        << "device " << d;
  }
  fleet.run_until(SimTime::seconds(1));
  EXPECT_EQ(fleet.total_completed(), 800u);
}

TEST(MultiLbTest, DrainingDeviceGetsNoNewConnections) {
  Fleet fleet(cluster_config(3, netsim::DispatchMode::HermesMode));
  fleet.drain(1);
  EXPECT_FALSE(fleet.active(1));
  LbDevice::ConnPlan plan;
  EXPECT_EQ(fleet.open_burst(0, plan, 300), 300u);
  EXPECT_EQ(fleet.device(1).totals().conns_opened, 0u);
}

TEST(MultiLbTest, DrainingDeviceFinishesExistingConnections) {
  Fleet fleet(cluster_config(2, netsim::DispatchMode::HermesMode));
  // Long-lived connections everywhere, then drain device 0.
  LbDevice::ConnPlan plan;
  plan.remaining = 5;
  plan.cost_us = DistSpec::constant(100);
  plan.gap_us = DistSpec::constant(100'000);
  fleet.open_burst(0, plan, 100);
  fleet.run_until(SimTime::millis(50));
  const uint64_t live_before = fleet.device(0).live_connections();
  ASSERT_GT(live_before, 0u);
  fleet.drain(0);
  // Existing connections on device 0 run every request to completion;
  // draining breaks none of them.
  fleet.run_until(SimTime::seconds(2));
  const auto& totals = fleet.device(0).totals();
  EXPECT_EQ(fleet.device(0).live_connections(), 0u);
  EXPECT_EQ(totals.requests_completed, 5 * totals.conns_opened);
  EXPECT_EQ(fleet.broken_total(), 0u);
}

TEST(MultiLbTest, AllDrainingRoutesNowhere) {
  Fleet fleet(cluster_config(2, netsim::DispatchMode::Reuseport));
  fleet.drain(0);
  fleet.drain(1);
  LbDevice::ConnPlan plan;
  EXPECT_EQ(fleet.open_burst(0, plan, 10), 0u);
  EXPECT_EQ(fleet.total_opened(), 0u);
  EXPECT_EQ(fleet.route(12345), SIZE_MAX);
}

TEST(MultiLbTest, LockstepKeepsClocksAligned) {
  Fleet fleet(cluster_config(3, netsim::DispatchMode::EpollExclusive));
  fleet.run_until(SimTime::millis(500), SimTime::millis(50));
  const size_t joined = fleet.add_lb();  // joins mid-run at the fleet clock
  EXPECT_EQ(fleet.device(joined).eq().now(), SimTime::millis(500));
  fleet.run_until(SimTime::seconds(1), SimTime::millis(50));
  for (size_t i = 0; i < fleet.device_count(); ++i) {
    EXPECT_EQ(fleet.device(i).eq().now(), SimTime::seconds(1)) << i;
  }
  EXPECT_EQ(fleet.now(), SimTime::seconds(1));
}

TEST(MultiLbTest, RoutingIsHashConsistent) {
  Fleet fleet(cluster_config(4, netsim::DispatchMode::HermesMode));
  for (uint32_t h : {0u, 123456u, 0xffffffffu}) {
    EXPECT_EQ(fleet.route(h), fleet.route(h));
    EXPECT_LT(fleet.route(h), 4u);
  }
}

TEST(MultiLbTest, SandboxPinOverridesRotation) {
  Fleet fleet(cluster_config(3, netsim::DispatchMode::HermesMode));
  fleet.drain(2);  // device 2 = sandbox, out of rotation
  fleet.pin_tenant(7, 2);
  LbDevice::ConnPlan plan;
  for (int i = 0; i < 50; ++i) {
    fleet.open_burst(7, plan, 1);  // pinned tenant
    fleet.open_burst(1, plan, 1);  // others never reach the sandbox
  }
  fleet.open_burst(7, plan, 50);
  EXPECT_EQ(fleet.device(2).totals().conns_opened, 100u);
  EXPECT_EQ(fleet.device(0).totals().conns_opened +
                fleet.device(1).totals().conns_opened,
            50u);
  // The audit scans in-rotation devices only: no pinned connection counts
  // as a PCC violation.
  const auto audit = fleet.audit_pcc();
  EXPECT_EQ(audit.checked, 50u);
  EXPECT_EQ(audit.maglev_violations, 0u);
}

TEST(MultiLbDeathTest, PinOntoInRotationDeviceDies) {
  Fleet fleet(cluster_config(2, netsim::DispatchMode::HermesMode));
  EXPECT_DEATH(fleet.pin_tenant(7, 0), "sandbox must be drained");
}

}  // namespace
}  // namespace hermes::sim
