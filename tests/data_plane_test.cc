// The L7 byte-level data plane inside the LB simulation: zero-copy vs
// copy-oracle differential (bit-identical streams), backend connection
// pool reuse across keep-alive requests, rate-limited admission,
// fleet-level aggregation, backend leases of closed connections, and the
// synthesized wire bytes against a per-byte reference.
#include <gtest/gtest.h>

#include <string>

#include "sim/fleet.h"
#include "sim/lb.h"

namespace hermes::sim {
namespace {

LbDevice::Config dp_config(bool zero_copy, uint64_t seed = 1) {
  LbDevice::Config cfg;
  cfg.mode = netsim::DispatchMode::HermesMode;
  cfg.num_workers = 4;
  cfg.num_ports = 4;
  cfg.seed = seed;
  cfg.data_plane.enabled = true;
  cfg.data_plane.zero_copy = zero_copy;
  return cfg;
}

void run_keepalive_mix(LbDevice& lb) {
  LbDevice::ConnPlan plan;
  plan.remaining = 8;  // keep-alive: 8 requests per connection
  plan.cost_us = DistSpec::constant(100);
  plan.gap_us = DistSpec::constant(500);
  plan.bytes = DistSpec::constant(700);
  for (int i = 0; i < 16; ++i) {
    lb.eq().schedule_at(SimTime::millis(i), [&lb, plan, i] {
      LbDevice::ConnPlan p = plan;
      p.tenant = static_cast<TenantId>(i % 4);
      lb.open_connection(p.tenant, p);
    });
  }
  lb.eq().run_until(SimTime::seconds(1));
}

TEST(DataPlaneTest, DisabledByDefault) {
  LbDevice::Config cfg;
  cfg.num_workers = 2;
  cfg.num_ports = 2;
  LbDevice lb(cfg);
  EXPECT_EQ(lb.data_plane(), nullptr);
  EXPECT_EQ(lb.rate_limiter(), nullptr);
}

TEST(DataPlaneTest, ForwardsEveryCompletedRequest) {
  LbDevice lb(dp_config(/*zero_copy=*/true));
  run_keepalive_mix(lb);
  ASSERT_NE(lb.data_plane(), nullptr);
  const DataPlane::Totals& t = lb.data_plane()->totals();
  EXPECT_EQ(lb.totals().requests_completed, 16u * 8u);
  EXPECT_EQ(t.requests_forwarded, lb.totals().requests_completed);
  EXPECT_EQ(t.responses_returned, t.requests_forwarded);
  EXPECT_EQ(t.parse_errors, 0u);
  EXPECT_GT(t.bytes_in, 0u);
  EXPECT_GT(t.bytes_out, 0u);
  // Zero-copy mode: the proxy path memcpy'd nothing.
  EXPECT_EQ(t.bytes_copied, 0u);
  EXPECT_GT(t.bytes_zero_copied, 0u);
  // All connections closed → no ConnState or backend-lease leaks.
  EXPECT_EQ(lb.http_conn_states(), 0u);
  EXPECT_EQ(lb.http_in_flight(), 0u);
}

TEST(DataPlaneTest, ClosingConnectionMidFlightDropsItsLease) {
  LbDevice lb(dp_config(/*zero_copy=*/true));
  LbDevice::ConnPlan plan;
  plan.remaining = 2;
  plan.cost_us = DistSpec::constant(1000);
  plan.bytes = DistSpec::constant(700);
  ASSERT_NE(lb.open_connection(0, plan), 0u);
  lb.eq().run_until(SimTime::micros(500));  // accepted, request at a worker
  EXPECT_EQ(lb.http_in_flight(), 1u);
  // The client connection closes while the request is at a worker; the
  // worker's completion then finds no connection.
  lb.close_all();
  EXPECT_EQ(lb.http_in_flight(), 0u);
  EXPECT_EQ(lb.http_conn_states(), 0u);
  lb.eq().run_until(SimTime::millis(10));
  EXPECT_EQ(lb.totals().requests_completed, 1u);
  EXPECT_EQ(lb.http_in_flight(), 0u);
  EXPECT_EQ(lb.data_plane()->totals().requests_forwarded, 1u);
  EXPECT_EQ(lb.data_plane()->totals().responses_returned, 0u);
}

TEST(DataPlaneTest, BurstKeepsEveryLeaseUntilItsResponse) {
  // A request burst puts several requests of one connection in flight at
  // once; each response returns its own request's backend lease.
  LbDevice lb(dp_config(/*zero_copy=*/true));
  LbDevice::ConnPlan plan;
  plan.remaining = 2;
  plan.cost_us = DistSpec::constant(100);
  plan.gap_us = DistSpec::constant(10'000'000);  // no follow-up in the window
  for (int i = 0; i < 8; ++i) {
    lb.open_connection(static_cast<TenantId>(i % 4), plan);
  }
  lb.eq().run_until(SimTime::millis(100));
  lb.burst_all_connections(DistSpec::constant(200), 3);
  const DataPlane& dp = *lb.data_plane();
  EXPECT_EQ(lb.http_in_flight(), 8u * 3u);
  lb.eq().run_until(SimTime::millis(200));
  EXPECT_EQ(dp.totals().requests_forwarded, 8u * 4u);
  EXPECT_EQ(dp.totals().responses_returned, dp.totals().requests_forwarded);
  EXPECT_EQ(lb.http_in_flight(), 0u);
  EXPECT_EQ(dp.pool().stats().hits + dp.pool().stats().misses,
            dp.totals().requests_forwarded);
}

TEST(DataPlaneTest, ZeroCopyAndOracleStreamsAreBitIdentical) {
  LbDevice zc(dp_config(/*zero_copy=*/true));
  LbDevice oracle(dp_config(/*zero_copy=*/false));
  run_keepalive_mix(zc);
  run_keepalive_mix(oracle);

  const DataPlane::Totals& a = zc.data_plane()->totals();
  const DataPlane::Totals& b = oracle.data_plane()->totals();
  // Same seed, same plan, and zero_copy changes no event timing → the
  // exact same requests flowed, in the same completion order.
  ASSERT_EQ(a.requests_forwarded, b.requests_forwarded);
  EXPECT_EQ(a.bytes_in, b.bytes_in);
  EXPECT_EQ(a.bytes_out, b.bytes_out);
  // The differential oracle: chained hashes over both directions match
  // bit for bit, while the byte-movement accounting is opposite.
  EXPECT_EQ(a.backend_stream_hash, b.backend_stream_hash);
  EXPECT_EQ(a.client_stream_hash, b.client_stream_hash);
  EXPECT_EQ(a.bytes_copied, 0u);
  EXPECT_EQ(b.bytes_zero_copied, 0u);
  EXPECT_GT(b.bytes_copied, 0u);
  EXPECT_EQ(a.bytes_zero_copied, b.bytes_copied);
}

TEST(DataPlaneTest, PerByteCostScalesServiceTimeWithBodySize) {
  // Body-size-dependent service costs: on_request charges exactly
  // per_byte_cost * Request::bytes on top of any handshake.
  DataPlane::Config dc;
  dc.enabled = true;
  dc.num_backends = 1;  // force the second request onto the warm conn
  dc.per_byte_cost = SimTime::nanos(100);
  DataPlane dp(dc, /*num_workers=*/2, /*obs=*/nullptr);
  DataPlane::ConnCtx conn(dp.conn_config());
  Request req;
  req.id = 1;
  req.conn = 7;
  req.bytes = 700;
  // First request: pool miss (handshake) + the 700-byte bill.
  const SimTime first = dp.on_request(0, conn, req, /*last_on_conn=*/false,
                                      SimTime::zero());
  EXPECT_EQ(first.ns(), dc.backend_handshake_cost.ns() + 700ll * 100);
  dp.on_response(0, conn, req, SimTime::micros(10));
  // Second request reuses the warm backend: the byte bill alone remains.
  req.id = 2;
  req.bytes = 40;
  const SimTime second = dp.on_request(0, conn, req, /*last_on_conn=*/true,
                                       SimTime::micros(20));
  EXPECT_EQ(second.ns(), 40ll * 100);

  // And the default stays free: byte counts alone never cost CPU.
  DataPlane::Config free_cfg;
  free_cfg.enabled = true;
  DataPlane free_dp(free_cfg, 2, nullptr);
  DataPlane::ConnCtx free_conn(free_dp.conn_config());
  Request fr;
  fr.id = 3;
  fr.conn = 9;
  fr.bytes = 5000;
  const SimTime f = free_dp.on_request(0, free_conn, fr, /*last_on_conn=*/true,
                                       SimTime::zero());
  EXPECT_EQ(f.ns(), free_cfg.backend_handshake_cost.ns());
}

TEST(DataPlaneTest, PoolReusesWarmBackendConnections) {
  LbDevice::Config cfg = dp_config(/*zero_copy=*/true);
  cfg.data_plane.num_backends = 1;  // every request hits the same backend
  LbDevice lb(cfg);
  run_keepalive_mix(lb);
  const DataPlane::Totals& t = lb.data_plane()->totals();
  EXPECT_EQ(t.pool_hits + t.pool_misses, t.requests_forwarded);
  // Sequential keep-alive requests on one backend: the first request per
  // idle period establishes, nearly everything after reuses.
  EXPECT_GT(t.pool_hits, t.pool_misses);
  EXPECT_GE(t.pool_misses, 1u);
}

TEST(DataPlaneTest, PoolExpiryReflectsIdleTimeout) {
  LbDevice::Config cfg = dp_config(/*zero_copy=*/true);
  cfg.data_plane.num_backends = 1;
  cfg.data_plane.pool.idle_expiry = SimTime::micros(100);  // aggressive
  LbDevice lb(cfg);
  run_keepalive_mix(lb);  // request gaps are 500µs > expiry
  const DataPlane::Totals& t = lb.data_plane()->totals();
  EXPECT_GT(t.pool_expiries, 0u);
  EXPECT_GT(t.pool_misses, t.pool_hits);  // warm conns keep dying
}

TEST(DataPlaneTest, RateLimiterRefusesAdmission) {
  LbDevice::Config cfg = dp_config(/*zero_copy=*/true);
  cfg.rate_limit.rate_per_sec = 10;
  cfg.rate_limit.burst = 4;
  cfg.rate_limit.buckets = 1;  // global bucket: deterministic drops
  LbDevice lb(cfg);
  ASSERT_NE(lb.rate_limiter(), nullptr);

  LbDevice::ConnPlan plan;
  plan.remaining = 1;
  plan.cost_us = DistSpec::constant(50);
  size_t opened = 0;
  for (int i = 0; i < 32; ++i) {
    if (lb.open_connection(0, plan) != 0) ++opened;
  }
  lb.eq().run_until(SimTime::millis(100));
  // Burst of 4 admitted instantly; 10/s refill adds ~1 more within the
  // same instant window — the rest are refused at admission.
  EXPECT_LE(opened, 5u);
  EXPECT_EQ(lb.totals().rate_limited, 32 - opened);
  EXPECT_EQ(lb.totals().rate_limited, lb.rate_limiter()->drops());
  EXPECT_EQ(lb.totals().requests_completed, opened);
  // Admission refusals are not connection drops (no backlog involved).
  EXPECT_EQ(lb.totals().conns_dropped, 0u);
}

TEST(DataPlaneTest, FleetAggregatesDataPlaneTotals) {
  Fleet::Config fcfg;
  fcfg.num_lbs = 3;
  fcfg.device = dp_config(/*zero_copy=*/true);
  fcfg.device.num_workers = 2;
  Fleet fleet(fcfg);

  LbDevice::ConnPlan plan;
  plan.remaining = 4;
  plan.cost_us = DistSpec::constant(100);
  plan.gap_us = DistSpec::constant(500);
  const size_t established = fleet.open_burst(0, plan, 64);
  ASSERT_GT(established, 0u);
  for (size_t i = 0; i < fleet.device_count(); ++i) {
    fleet.device(i).eq().run_until(SimTime::seconds(1));
  }

  const DataPlane::Totals agg = fleet.data_plane_totals();
  uint64_t fwd = 0, hash_xor = 0;
  for (size_t i = 0; i < fleet.device_count(); ++i) {
    const DataPlane* dp = fleet.device(i).data_plane();
    ASSERT_NE(dp, nullptr);
    fwd += dp->totals().requests_forwarded;
    hash_xor ^= dp->totals().backend_stream_hash;
  }
  EXPECT_EQ(agg.requests_forwarded, fwd);
  EXPECT_EQ(agg.requests_forwarded, established * 4u);
  EXPECT_EQ(agg.backend_stream_hash, hash_xor);
  EXPECT_EQ(agg.bytes_copied, 0u);
}

TEST(DataPlaneTest, ObservabilityCountersMirrorTotals) {
  LbDevice lb(dp_config(/*zero_copy=*/true));
  run_keepalive_mix(lb);
  const DataPlane::Totals& t = lb.data_plane()->totals();
  const obs::PipelineMetrics& m = lb.obs()->metrics;
  EXPECT_EQ(m.http_requests_forwarded->value(),
            static_cast<int64_t>(t.requests_forwarded));
  EXPECT_EQ(m.http_bytes_zero_copied->value(),
            static_cast<int64_t>(t.bytes_zero_copied));
  EXPECT_EQ(m.http_bytes_copied->value(), 0);
  EXPECT_EQ(m.pool_hits->value(), static_cast<int64_t>(t.pool_hits));
  EXPECT_EQ(m.pool_misses->value(), static_cast<int64_t>(t.pool_misses));
  EXPECT_EQ(m.ratelimit_drops->value(), 0);
}

// Per-byte reference of the synthesized wire forms.
std::string reference_request_head(const Request& r, bool last_on_conn) {
  std::string s = "POST /t" + std::to_string(r.tenant) + "/r" +
                  std::to_string(r.id) + " HTTP/1.1\r\nHost: tenant-" +
                  std::to_string(r.tenant) +
                  ".svc.hermes\r\nUser-Agent: hermes-client\r\n"
                  "X-Request-Id: " +
                  std::to_string(r.id) + "\r\n";
  if (last_on_conn) s += "Connection: close\r\n";
  return s;
}

std::string reference_request_wire(const Request& r, bool last_on_conn) {
  std::string s = reference_request_head(r, last_on_conn);
  const size_t overhead = s.size() + 40;
  const uint64_t body_len = r.bytes > overhead ? r.bytes - overhead : 0;
  s += "Content-Length: " + std::to_string(body_len) + "\r\n\r\n";
  for (uint64_t i = 0; i < body_len; ++i) {
    s.push_back(static_cast<char>('a' + (r.id + i) % 26));
  }
  return s;
}

std::string reference_response_body(const Request& r) {
  std::string s;
  for (uint64_t i = 0; i < r.bytes; ++i) {
    s.push_back(static_cast<char>('A' + (r.id * 7 + i) % 26));
  }
  return s;
}

TEST(DataPlaneTest, SynthesisMatchesPerByteReference) {
  // Stale contents: the synthesizers must replace, not append.
  std::string wire = "stale";
  std::string body = "stale";
  for (const uint64_t base : {uint64_t{0}, uint64_t{1'000'000'007}}) {
    for (uint64_t k = 0; k < 52; ++k) {  // every phase of both cycles, twice
      Request r;
      r.id = base + k;
      r.tenant = static_cast<TenantId>(k % 5);
      for (const bool last : {false, true}) {
        for (const uint64_t len :
             {0, 1, 25, 26, 27, 4095, 4096, 4097, 9000}) {
          // Size the request so its body is exactly `len` bytes.
          r.bytes = reference_request_head(r, last).size() + 40 + len;
          const std::string want = reference_request_wire(r, last);
          ASSERT_EQ(want.find("\r\n\r\n") + 4 + len, want.size());
          DataPlane::synth_request_wire(r, last, &wire);
          ASSERT_EQ(wire, want) << r.id << " " << last << " " << len;

          r.bytes = len;
          DataPlane::synth_response_body(r, &body);
          ASSERT_EQ(body, reference_response_body(r)) << r.id << " " << len;
        }
      }
    }
  }
}

}  // namespace
}  // namespace hermes::sim
