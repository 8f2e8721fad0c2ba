// The three simulator workloads: short_conn, keepalive_l7, wedge_fleet.
//
// A run repeats independent episodes until its wall-clock budget is spent.
// Each episode builds a fresh device (or fleet) from a seed derived from
// --seed and the episode index, drives it from the benchmark's own
// open-loop generator, measures a window of simulated time, then stops
// generating and drains. End-to-end latencies are quantiles of the windows
// pooled over the run's episodes; CPU per request is the median over the
// run's 10 ms chunks (see CpuChunks); the other figures are medians over
// the episodes.
//
// A traced run spends half its budget on untraced episodes and half on
// traced ones; the traced half records spans around every call into the
// simulator and counts simulated events, which the per-layer figures come
// from.
#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "sim/fleet.h"
#include "sim/lb.h"
#include "simcore/rng.h"

namespace pb {
namespace {

using hermes::SimTime;
using hermes::TenantId;
namespace sim = hermes::sim;

constexpr TenantId kHeldTenantBase = 1'000'000;
constexpr int kHeldRequests = 1000;  // a held connection's planned requests

// What one episode measured. Counter sums use the obs registry names.
struct Episode {
  double setup_s = 0;
  double wall_s = 0;                // generate + simulate + drain
  std::vector<double> cpu_chunks;   // CPU us per request, per wall chunk
  std::vector<double> probes;       // calibration probe: CPU us per op
  uint64_t completed = 0;           // every request completed
  uint64_t window_completed = 0;    // completed inside the window
  double window_s = 0;
  std::vector<int64_t> latency_ns;  // requests completed inside the window
  double cpu_sd_pp = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t events = 0;              // traced episodes only
  uint64_t live_peak = 0;
  std::map<std::string, double> c;  // layer counters
  double fingerprint = 0;           // simulated outputs, for obs on/off
};

// ---- driving the simulator ----------------------------------------------

// Advances one device's queue to `until`. Traced episodes count events:
// a sentinel event at `until` lets the loop step() one event at a time
// without passing it, which executes exactly what run_until would.
void advance(sim::EventQueue& eq, SimTime until, uint64_t* events) {
  if (events == nullptr) {
    eq.run_until(until);
    return;
  }
  bool reached = false;
  eq.schedule_at(until, [&reached] { reached = true; });
  while (!reached && eq.step()) ++*events;
  --*events;  // the sentinel itself
  eq.run_until(until);
}

void add_device_counters(sim::LbDevice& lb, Episode& ep) {
  auto& c = ep.c;
  const auto& ns = lb.netstack().stats();
  c["netsim.syns"] += static_cast<double>(lb.totals().conns_opened +
                                          lb.totals().conns_dropped);
  c["netsim.drops"] += static_cast<double>(ns.drops);
  c["netsim.unnotified"] += static_cast<double>(ns.unnotified);
  if (auto* h = lb.hermes()) {
    c["sched.schedules"] += static_cast<double>(h->counters().schedules);
    c["sched.selected_sum"] +=
        static_cast<double>(h->counters().workers_selected_sum);
    c["sched.worker_slots"] += static_cast<double>(h->counters().schedules) *
                               static_cast<double>(lb.num_workers());
  }
  if (auto* o = lb.obs()) {
    auto& reg = o->registry;
    for (const char* name :
         {"filter.runs", "filter.low_survivor", "sync.published",
          "sched.syncs_suppressed", "sched.fast_path_ns", "dispatch.bpf",
          "dispatch.fallback", "bpf.tier0_dispatches",
          "bpf.tier1_dispatches", "bpf.tier2_dispatches",
          "bpf.tier3_dispatches", "wst.avail_updates", "wst.pending_updates",
          "wst.conn_updates", "http.requests_forwarded", "http.bytes_copied",
          "pool.hits", "pool.misses"}) {
      c[name] += static_cast<double>(reg.counter(name).value());
    }
    const auto depth = reg.histogram("accept.depth").snapshot();
    const auto gap = reg.histogram("sync.gap_ns").snapshot();
    c["accept.depth_p99"] =
        std::max(c["accept.depth_p99"], static_cast<double>(depth.p99()));
    c["sync.gap_p99_ns"] =
        std::max(c["sync.gap_p99_ns"], static_cast<double>(gap.p99()));
  }
}

// Window bookkeeping shared by the workloads: latencies of requests that
// complete inside [from, to) of simulated time.
struct Window {
  SimTime from, to;
  uint64_t completed = 0;
  std::vector<int64_t>* lat = nullptr;
  void on_done(SimTime now, SimTime latency) {
    if (now < from || now >= to) return;
    ++completed;
    lat->push_back(latency.ns());
  }
};

double fingerprint_of(const std::vector<int64_t>& lat, uint64_t completed) {
  double h = static_cast<double>(completed);
  for (int64_t v : lat) h = h * 1.000001 + static_cast<double>(v % 1000003);
  return h;
}

// ---- short_conn ---------------------------------------------------------
// One 8-worker LbDevice on the Table-3 Case-1 pattern at heavy load
// (48k new connections per simulated second, one request each), data
// plane off.

struct ShortConnParams {
  SimTime warm = SimTime::millis(200);
  SimTime window = SimTime::millis(1500);
  SimTime drain = SimTime::millis(500);
  SimTime slice = SimTime::millis(10);
};

sim::LbDevice::Config short_conn_config(uint64_t seed, bool obs) {
  sim::LbDevice::Config cfg;  // product defaults: 8 workers, Hermes, obs on
  cfg.seed = seed;
  cfg.observability = obs;
  return cfg;
}

Episode short_conn_episode(uint64_t seed, bool obs, Tracer& tr,
                           CpuChunks* cpu) {
  const ShortConnParams P;
  Episode ep;
  const sim::LbDevice::Config cfg = short_conn_config(seed, obs);
  const int64_t t_setup = mono_ns();
  auto lb = std::make_unique<sim::LbDevice>(cfg);
  ep.setup_s = static_cast<double>(mono_ns() - t_setup) / 1e9;

  const sim::TrafficPattern pat = sim::case_pattern(1, cfg.num_workers, 3.0);
  sim::LbDevice::ConnPlan plan;
  plan.remaining = 1;
  plan.cost_us = pat.request_cost_us;
  plan.bytes = pat.request_bytes;

  Window win{P.warm, P.warm + P.window, 0, &ep.latency_ns};
  lb->set_request_done_fn([&](TenantId, SimTime lat) {
    win.on_done(lb->eq().now(), lat);
  });

  hermes::sim::Rng gen(seed ^ 0x5eedc0de5eedc0deull);
  uint64_t syns = 0;
  const SimTime gen_end = P.warm + P.window;
  const SimTime end = gen_end + P.drain;
  uint64_t* events = tr.on() ? &ep.events : nullptr;
  double next_arrival = gen.exponential(1.0 / pat.cps);

  const int64_t t0 = mono_ns();
  for (SimTime t = SimTime::zero(); t < end;) {
    const SimTime t_next = std::min(end, t + P.slice);
    if (t < gen_end) {
      Tracer::Scope s(tr, kGenSchedule);
      while (next_arrival < t_next.s_f()) {
        const SimTime at = SimTime::from_seconds_f(next_arrival);
        const auto tenant = static_cast<TenantId>(gen.next_below(cfg.num_ports));
        lb->eq().schedule_at(at, [&lb, &plan, &syns, tenant] {
          ++syns;
          sim::LbDevice::ConnPlan p = plan;
          p.tenant = tenant;
          lb->open_connection(tenant, std::move(p));
        });
        next_arrival += gen.exponential(1.0 / pat.cps);
      }
    }
    if (t == P.warm) lb->sample_now();
    if (cpu != nullptr) cpu->tick(lb->totals().requests_completed);
    {
      Tracer::Scope s(tr, kSimRun);
      advance(lb->eq(), t_next, events);
    }
    if (t_next == P.warm + P.window) {
      ep.cpu_sd_pp = 100.0 * lb->sample_now().cpu_sd;
    }
    ep.live_peak = std::max<uint64_t>(ep.live_peak, lb->live_connections());
    t = t_next;
  }
  ep.wall_s = static_cast<double>(mono_ns() - t0) / 1e9;
  if (cpu != nullptr) {
    ep.cpu_chunks = cpu->us_per_req();
    ep.probes = cpu->probe_us_per_op();
  }

  const auto& tot = lb->totals();
  ep.completed = tot.requests_completed;
  ep.window_completed = win.completed;
  ep.window_s = P.window.s_f();
  const uint64_t syn_failed = tot.conns_dropped + tot.rate_limited;
  // Every SYN carries one request: it completed, failed at admission, or
  // is still live when the drain ends.
  ep.attempted = syns;
  ep.failed = syn_failed + lb->live_connections();
  add_device_counters(*lb, ep);
  ep.c["conservation_ok"] =
      syns == tot.requests_completed + syn_failed + lb->live_connections() &&
              tot.conns_opened + syn_failed == syns
          ? 1
          : 0;
  ep.fingerprint = fingerprint_of(ep.latency_ns, tot.requests_completed);
  return ep;
}

// ---- keepalive_l7 -------------------------------------------------------
// One LbDevice with the zero-copy data plane on, on the Table-3 Case-3
// pattern at heavy load (672 keep-alive connections per simulated second,
// 60-140 requests each, 100 ms think gaps). Only the request sizes differ
// from Case 3: lognormal(600, 1.0) instead of (500, 0.7), so that ~3% of
// bodies are longer than one 4 KiB iobuf segment.
//
// A connection lives ~10 simulated seconds, so the device reaches steady
// state (saturated: 67k requests/s of ~120 us each on 8 workers) only
// after ~10 s, and an episode that waited for it would simulate ~1M
// requests (~15 s of wall time on a 4-vCPU Xeon VM). The window therefore
// measures the ramp, from 2 s to 3.5 s, when 1300-2400 connections are
// live and the workers 20-35% busy; an episode then simulates ~240k
// requests in ~4 s.
struct KeepaliveParams {
  double load = 3.0;
  SimTime warm = SimTime::millis(2000);
  SimTime window = SimTime::millis(1500);
  SimTime drain = SimTime::seconds(30);  // cap; stops once all have closed
  SimTime slice = SimTime::millis(10);
};

struct KeepaliveOut {
  Episode ep;
  sim::DataPlane::Totals dp;
};

sim::LbDevice::Config keepalive_config(uint64_t seed, bool obs, bool zero_copy) {
  sim::LbDevice::Config cfg;
  cfg.seed = seed;
  cfg.observability = obs;
  cfg.data_plane.enabled = true;
  cfg.data_plane.zero_copy = zero_copy;
  return cfg;
}

KeepaliveOut keepalive_episode(uint64_t seed, bool obs, bool zero_copy,
                               Tracer& tr, CpuChunks* cpu) {
  const KeepaliveParams P;
  KeepaliveOut out;
  Episode& ep = out.ep;
  const sim::LbDevice::Config cfg = keepalive_config(seed, obs, zero_copy);
  const int64_t t_setup = mono_ns();
  auto lb = std::make_unique<sim::LbDevice>(cfg);
  ep.setup_s = static_cast<double>(mono_ns() - t_setup) / 1e9;

  sim::TrafficPattern pat = sim::case_pattern(3, cfg.num_workers, P.load);
  pat.request_bytes = sim::DistSpec::lognormal(600, 1.0);
  sim::LbDevice::ConnPlan base;
  base.cost_us = pat.request_cost_us;
  base.bytes = pat.request_bytes;
  base.gap_us = pat.request_gap_us;

  Window win{P.warm, P.warm + P.window, 0, &ep.latency_ns};
  lb->set_request_done_fn([&](TenantId, SimTime lat) {
    win.on_done(lb->eq().now(), lat);
  });

  hermes::sim::Rng gen(seed ^ 0x6b656570616c6976ull);
  uint64_t syns = 0, planned = 0, planned_failed = 0;
  const SimTime gen_end = P.warm + P.window;
  const SimTime end = gen_end + P.drain;
  uint64_t* events = tr.on() ? &ep.events : nullptr;
  double next_arrival = gen.exponential(1.0 / pat.cps);

  const int64_t t0 = mono_ns();
  for (SimTime t = SimTime::zero(); t < end;) {
    const SimTime t_next = std::min(end, t + P.slice);
    if (t < gen_end) {
      Tracer::Scope s(tr, kGenSchedule);
      while (next_arrival < t_next.s_f()) {
        const SimTime at = SimTime::from_seconds_f(next_arrival);
        sim::LbDevice::ConnPlan p = base;
        p.tenant = static_cast<TenantId>(gen.next_below(cfg.num_ports));
        p.remaining = static_cast<int>(pat.requests_per_conn.sample(gen));
        lb->eq().schedule_at(at, [&lb, &syns, &planned, &planned_failed, p] {
          ++syns;
          const int n = p.remaining;
          if (lb->open_connection(p.tenant, p) != 0) {
            planned += static_cast<uint64_t>(n);
          } else {
            planned_failed += static_cast<uint64_t>(n);
          }
        });
        next_arrival += gen.exponential(1.0 / pat.cps);
      }
    }
    if (t == P.warm) lb->sample_now();
    if (cpu != nullptr) cpu->tick(lb->totals().requests_completed);
    {
      Tracer::Scope s(tr, kSimRun);
      advance(lb->eq(), t_next, events);
    }
    if (t_next == P.warm + P.window) {
      ep.cpu_sd_pp = 100.0 * lb->sample_now().cpu_sd;
    }
    ep.live_peak = std::max<uint64_t>(ep.live_peak, lb->live_connections());
    t = t_next;
    if (t >= gen_end && lb->live_connections() == 0) break;
  }
  ep.wall_s = static_cast<double>(mono_ns() - t0) / 1e9;
  if (cpu != nullptr) {
    ep.cpu_chunks = cpu->us_per_req();
    ep.probes = cpu->probe_us_per_op();
  }

  const auto& tot = lb->totals();
  ep.completed = tot.requests_completed;
  ep.window_completed = win.completed;
  ep.window_s = P.window.s_f();
  // Requests planned on established connections either completed or are
  // left on connections still live after the drain; a refused SYN fails
  // every request its connection planned.
  const uint64_t left = planned - std::min(planned, tot.requests_completed);
  ep.attempted = planned + planned_failed;
  ep.failed = planned_failed + left;
  add_device_counters(*lb, ep);
  ep.c["conservation_ok"] =
      ep.attempted == tot.requests_completed + ep.failed &&
              tot.requests_completed <= planned &&
              (left == 0) == (lb->live_connections() == 0) &&
              tot.conns_opened + tot.conns_dropped + tot.rate_limited == syns
          ? 1
          : 0;
  ep.fingerprint = fingerprint_of(ep.latency_ns, tot.requests_completed);
  out.dp = lb->data_plane()->totals();
  return out;
}

// ---- wedge_fleet --------------------------------------------------------
// A Maglev Fleet of four 8-worker LbDevices holding >= 10^5 live
// connections, fed open-loop SYN bursts of the Region-3 tenant mix
// (Table 4), whose Case-2/4 tenants send poison requests that wedge a
// worker for 100-800 ms. One LB joins mid-window and leaves once drained.
//
// Fleet's front tier is stateless: a rebuild moves table slots, and a live
// connection whose slot moved would reach an LB without its state. The
// simulator routes only SYNs, so such a connection goes on being served on
// its own LB; the PCC audit after the join counts them, and they are
// reported as fleet.remap_pct, not as failed requests. The joined LB
// leaves only after every mixed connection has closed, when it holds no
// connection (the held ones were opened before it joined), so the removal
// breaks none; the audit after it checks that Maglev routes every
// surviving connection back to its LB.

struct FleetParams {
  // The tenants' poison shares are tripled. At the paper's shares, wedge
  // victims are about 1% of requests and p99 falls in the gap between the
  // queueing body (p98 ~ 30 ms) and the wedge tail (p99.5 ~ 300 ms), where
  // it jumps by 30% from run to run; at 3x it lies inside the wedge tail.
  double poison_scale = 3;
  uint32_t lbs = 4;
  uint64_t held = 131'072;   // long-lived background connections
  double cps = 1200;         // mixed-tenant arrivals, fleet-wide
  SimTime tick = SimTime::millis(1);
  SimTime warm = SimTime::millis(500);
  SimTime window = SimTime::millis(3000);
  SimTime drain_tick = SimTime::millis(10);
  SimTime drain_cap = SimTime::seconds(30);  // stops once mixed traffic ends
  SimTime join_at = SimTime::millis(2000);
};

sim::Fleet::Config fleet_config(uint64_t seed, bool obs) {
  sim::Fleet::Config fc;
  fc.num_lbs = FleetParams{}.lbs;
  fc.device.backlog = 65536;  // the held-connection ramp arrives in bursts
  fc.device.observability = obs;
  fc.seed = seed;
  return fc;
}

Episode fleet_episode(uint64_t seed, bool obs, Tracer& tr, CpuChunks* cpu) {
  const FleetParams P;
  Episode ep;
  const sim::Fleet::Config fc = fleet_config(seed, obs);
  const int64_t t_setup = mono_ns();
  auto fleet = std::make_unique<sim::Fleet>(fc);
  ep.setup_s = static_cast<double>(mono_ns() - t_setup) / 1e9;

  const sim::TenantModel tm =
      sim::TenantModel::from_mix(sim::paper_region_mixes()[2], 64, 1.2);
  sim::TrafficPattern cases[4];
  for (int c = 0; c < 4; ++c) {
    cases[c] = sim::case_pattern(c + 1, fc.device.num_workers, 1.0);
  }
  hermes::sim::ZipfSampler zipf(tm.num_tenants, tm.zipf_skew);
  hermes::sim::Rng gen(seed ^ 0x666c656574fee7ull);

  // Request accounting per device and class (0: the generator's mixed
  // tenants, 1: held background connections): requests planned on the
  // connections each burst established there, and requests completed.
  struct DevCount {
    uint64_t planned[2] = {0, 0};
    uint64_t completed[2] = {0, 0};
  };
  std::vector<DevCount> dev(fleet->device_count());
  Window win{P.warm, P.warm + P.window, 0, &ep.latency_ns};
  auto hook = [&](size_t i) {
    sim::LbDevice& d = fleet->device(i);
    d.set_request_done_fn([&win, &dev, &d, i](TenantId t, SimTime lat) {
      const int cls = t >= kHeldTenantBase ? 1 : 0;
      ++dev[i].completed[cls];
      if (cls == 0) win.on_done(d.eq().now(), lat);
    });
  };
  for (size_t i = 0; i < fleet->device_count(); ++i) hook(i);

  uint64_t syns[2] = {0, 0}, refused[2] = {0, 0}, refused_req[2] = {0, 0};
  uint64_t attempted_req[2] = {0, 0};
  bool bursts_ok = true;
  std::vector<uint64_t> opened_before;
  auto burst = [&](const sim::LbDevice::ConnPlan& plan, uint64_t n, int cls) {
    opened_before.clear();
    for (size_t d = 0; d < fleet->device_count(); ++d) {
      opened_before.push_back(fleet->device(d).totals().conns_opened);
    }
    uint64_t established = 0;
    {
      Tracer::Scope s(tr, kSimBurst);
      established = fleet->open_burst(plan.tenant, plan, n);
    }
    const auto r = static_cast<uint64_t>(plan.remaining);
    uint64_t placed = 0;
    for (size_t d = 0; d < fleet->device_count(); ++d) {
      const uint64_t k = fleet->device(d).totals().conns_opened - opened_before[d];
      dev[d].planned[cls] += k * r;
      placed += k;
    }
    bursts_ok = bursts_ok && placed == established;
    syns[cls] += n;
    refused[cls] += n - established;
    refused_req[cls] += (n - established) * r;
    attempted_req[cls] += n * r;
  };

  uint64_t* events = tr.on() ? &ep.events : nullptr;
  auto run_to = [&](SimTime t) {
    Tracer::Scope s(tr, kSimRun);
    if (events != nullptr) {
      for (size_t i = 0; i < fleet->device_count(); ++i) {
        advance(fleet->device(i).eq(), t, events);
      }
    }
    fleet->run_until(t, t - fleet->now());
  };
  auto sample_all = [&](bool keep) {
    double sd = 0;
    int n = 0;
    for (size_t i = 0; i < fleet->device_count(); ++i) {
      const double s = fleet->device(i).sample_now().cpu_sd;
      if (fleet->active(i)) {
        sd += s;
        ++n;
      }
    }
    if (keep && n > 0) ep.cpu_sd_pp = 100.0 * sd / n;
  };
  auto completed_so_far = [&] {
    uint64_t n = 0;
    for (const DevCount& k : dev) n += k.completed[0] + k.completed[1];
    return n;
  };
  // Requests still to complete on the mixed connections.
  auto mixed_left = [&] {
    uint64_t left = 0;
    for (const DevCount& k : dev) left += k.planned[0] - k.completed[0];
    return left;
  };

  const int64_t t0 = mono_ns();

  // Background: long-lived connections that make the working set (slabs,
  // timing wheel) far larger than the caches. Each serves its first
  // request and then waits 30 s, beyond the episode, for its next.
  sim::LbDevice::ConnPlan held;
  held.remaining = kHeldRequests;
  held.cost_us = sim::DistSpec::constant(1);
  held.bytes = sim::DistSpec::constant(200);
  held.gap_us = sim::DistSpec::constant(30'000'000);
  for (uint64_t opened = 0; opened < P.held;) {
    const uint64_t n = std::min<uint64_t>(8192, P.held - opened);
    held.tenant = static_cast<TenantId>(kHeldTenantBase + opened / 8192);
    burst(held, n, 1);
    opened += n;
    if (cpu != nullptr) cpu->tick(completed_so_far());
    run_to(fleet->now() + SimTime::millis(2));
  }

  sim::Fleet::PccAudit audit_add, audit_rm;
  double churn_ms = 0, audit_ms = 0;
  // Fleet::add_lb or remove_lb, then the PCC audit, each timed on its own.
  auto churn = [&](const std::function<void()>& change) {
    const int64_t a = mono_ns();
    {
      Tracer::Scope s(tr, kSimChurn);
      change();
    }
    const int64_t b = mono_ns();
    sim::Fleet::PccAudit audit;
    {
      Tracer::Scope s(tr, kSimAudit);
      audit = fleet->audit_pcc();
    }
    churn_ms += static_cast<double>(b - a) / 1e6;
    audit_ms += static_cast<double>(mono_ns() - b) / 1e6;
    if (cpu != nullptr) cpu->skip();  // churn is timed on its own
    return audit;
  };
  size_t joined = SIZE_MAX;
  const SimTime gen_end = P.warm + P.window;
  const SimTime end = gen_end + P.drain_cap;
  double next_arrival = fleet->now().s_f() + gen.exponential(1.0 / P.cps);
  while (fleet->now() < end) {
    const SimTime t = fleet->now();
    // Ticks of 1 ms while bursts arrive; 10 ms while draining.
    const SimTime t_next =
        std::min(end, t + (t < gen_end ? P.tick : P.drain_tick));
    if (t == P.warm) sample_all(false);
    if (joined == SIZE_MAX && t >= P.join_at) {
      audit_add = churn([&] {
        joined = fleet->add_lb();
        dev.resize(fleet->device_count());
        hook(joined);
      });
    }
    if (t < gen_end) {
      // One open-loop burst per tick: the tick's Poisson arrivals, all of
      // one Zipf-drawn tenant.
      uint64_t n = 0;
      sim::LbDevice::ConnPlan plan;
      {
        Tracer::Scope s(tr, kGenSchedule);
        while (next_arrival < t_next.s_f()) {
          ++n;
          next_arrival += gen.exponential(1.0 / P.cps);
        }
        if (n > 0) {
          const TenantId tenant = zipf.sample(gen);
          const sim::TrafficPattern& p = cases[tm.tenant_case[tenant] - 1];
          plan.tenant = tenant;
          plan.remaining =
              std::max(1, static_cast<int>(p.requests_per_conn.sample(gen)));
          plan.cost_us = p.request_cost_us;
          plan.bytes = p.request_bytes;
          plan.gap_us = p.request_gap_us;
          plan.poison_fraction = p.poison_fraction * P.poison_scale;
          plan.poison_cost_us = p.poison_cost_us;
        }
      }
      if (n > 0) burst(plan, n, 0);
    }
    if (cpu != nullptr) cpu->tick(completed_so_far());
    run_to(t_next);
    if (t_next == P.warm + P.window) sample_all(true);
    ep.live_peak = std::max<uint64_t>(ep.live_peak, fleet->total_live());
    // The drain ends once every mixed connection has closed.
    if (t_next >= gen_end && mixed_left() == 0) break;
  }
  // The joined LB leaves; it holds a connection only if the drain cap cut
  // the drain short, and the removal breaks (and counts) those.
  const uint64_t joined_live =
      joined == SIZE_MAX ? 0 : fleet->device(joined).live_connections();
  if (joined != SIZE_MAX) audit_rm = churn([&] { fleet->remove_lb(joined); });
  ep.wall_s = static_cast<double>(mono_ns() - t0) / 1e9;
  if (cpu != nullptr) {
    ep.cpu_chunks = cpu->us_per_req();
    ep.probes = cpu->probe_us_per_op();
  }

  // Request conservation over every device, the removed one included:
  // planned = completed + refused + lost on the removed LB's broken
  // connections + left on connections still live after the drain. The
  // per-device figures come from the benchmark's own counts (requests
  // planned on the connections each burst established there, completions
  // seen by the request callback); each is checked against the library's
  // counters and live-connection count.
  bool conserved = bursts_ok && joined != SIZE_MAX &&
                   fleet->broken_total() == joined_live;
  uint64_t done[2] = {0, 0}, lost[2] = {0, 0}, left[2] = {0, 0};
  for (size_t d = 0; d < fleet->device_count(); ++d) {
    auto& lb = fleet->device(d);
    const DevCount& k = dev[d];
    const uint64_t live = lb.live_connections();
    uint64_t dev_left = 0;
    for (int cls = 0; cls < 2; ++cls) {
      conserved = conserved && k.completed[cls] <= k.planned[cls];
      const uint64_t l = k.planned[cls] - std::min(k.planned[cls], k.completed[cls]);
      (fleet->active(d) ? left : lost)[cls] += l;
      dev_left += l;
      done[cls] += k.completed[cls];
    }
    conserved = conserved &&
                lb.totals().requests_completed == k.completed[0] + k.completed[1];
    if (fleet->active(d)) {
      // A live connection has between 1 and kHeldRequests requests left.
      conserved = conserved && dev_left >= live &&
                  dev_left <= live * static_cast<uint64_t>(kHeldRequests);
    } else {
      conserved = conserved && live == 0;
    }
    add_device_counters(lb, ep);
  }
  for (int cls = 0; cls < 2; ++cls) {
    conserved = conserved && attempted_req[cls] == done[cls] + refused_req[cls] +
                                                       lost[cls] + left[cls];
  }
  ep.c["conservation_ok"] = conserved ? 1 : 0;

  const uint64_t completed = done[0] + done[1];
  ep.completed = completed;
  ep.window_completed = win.completed;
  ep.window_s = P.window.s_f();
  // Failures: the mixed tenants' requests that were refused, lost on the
  // leaving LB or not completed by the end of the drain, and the held
  // connections (counted per connection, since their later requests lie
  // beyond the episode by design) that were refused.
  ep.attempted = attempted_req[0] + syns[1];
  ep.failed = refused_req[0] + lost[0] + left[0] + refused[1];
  ep.c["fleet.audited_conns"] = static_cast<double>(audit_add.checked);
  ep.c["fleet.remapped_conns"] = static_cast<double>(audit_add.maglev_violations);
  // Maglev moves fewer live connections than mod-N on the join, and routes
  // every surviving one back to its LB after the joined LB has left.
  ep.c["pcc.maglev_ok"] =
      audit_add.maglev_violations <= audit_add.modn_violations &&
              audit_add.checked > 0 && audit_rm.checked > 0 &&
              audit_rm.maglev_violations == 0
          ? 1
          : 0;
  ep.c["fleet.churn_ms"] = churn_ms;
  ep.c["fleet.audit_ms"] = audit_ms;
  ep.c["fleet.burst_conns"] = static_cast<double>(syns[0] + syns[1]);
  ep.fingerprint = fingerprint_of(ep.latency_ns, completed) +
                   static_cast<double>(ep.failed);
  return ep;
}

// ---- run loop and reporting ---------------------------------------------

constexpr int kObsPairs = 3;  // observability on/off pairs (traced runs)
constexpr size_t kMinSetups = 21;  // set-up samples per run, at least
constexpr int64_t kCpuChunkNs = 10'000'000;  // CPU sampled every 10 ms

// Whether two runs of one episode seed simulated the same thing: the
// window's latency histogram, the completed requests and the fingerprint.
bool same_outputs(const Episode& a, const Episode& b) {
  std::vector<int64_t> la = a.latency_ns, lb = b.latency_ns;
  std::sort(la.begin(), la.end());
  std::sort(lb.begin(), lb.end());
  return la == lb && a.completed == b.completed && a.fingerprint == b.fingerprint;
}

using EpisodeFn =
    std::function<Episode(uint64_t seed, bool obs, Tracer&, CpuChunks*)>;
// Builds (and destroys) the workload's device or fleet; returns the seconds
// the construction took.
using SetupFn = std::function<double(uint64_t seed)>;

template <typename T, typename Config>
double timed_setup(const Config& cfg) {
  const int64_t a = mono_ns();
  auto obj = std::make_unique<T>(cfg);
  return static_cast<double>(mono_ns() - a) / 1e9;
}

uint64_t episode_seed(uint64_t run_seed, uint64_t k) {
  return run_seed * 0x9e3779b97f4a7c15ull + 0x51ed27u * (k + 1);
}

// Runs episodes until `budget_s` of wall time is spent (at least `min_eps`),
// pooling every window latency into `hist`.
std::vector<Episode> run_episodes(const EpisodeFn& fn, uint64_t seed,
                                  uint64_t first_k, double budget_s,
                                  size_t min_eps, Tracer& tr,
                                  LatencyHist& hist) {
  std::vector<Episode> eps;
  const int64_t t0 = mono_ns();
  for (uint64_t k = first_k;; ++k) {
    CpuChunks cpu(kCpuChunkNs);
    eps.push_back(fn(episode_seed(seed, k), true, tr, &cpu));
    Episode& e = eps.back();
    for (int64_t v : e.latency_ns) hist.add(v);
    // Only episode 0's samples are kept (the observability on/off check);
    // memory must not grow with the number of episodes a run fits in.
    if (eps.size() > 1) std::vector<int64_t>().swap(e.latency_ns);
    const double spent = static_cast<double>(mono_ns() - t0) / 1e9;
    if (eps.size() >= min_eps && spent >= budget_s) break;
  }
  return eps;
}

double sum_c(const std::vector<Episode>& eps, const std::string& k) {
  double s = 0;
  for (const auto& e : eps) {
    auto it = e.c.find(k);
    if (it != e.c.end()) s += it->second;
  }
  return s;
}

double max_c(const std::vector<Episode>& eps, const std::string& k) {
  double m = 0;
  for (const auto& e : eps) {
    auto it = e.c.find(k);
    if (it != e.c.end()) m = std::max(m, it->second);
  }
  return m;
}

double ratio(double a, double b) { return b > 0 ? a / b : 0; }

// End-to-end figures of the untraced episodes: latency quantiles of the
// pooled windows, everything else the median over episodes.
void report_end_to_end(const std::vector<Episode>& eps,
                       const LatencyHist& hist,
                       const std::vector<double>& setups, Report& rep) {
  std::vector<double> goodput, chunks, probes, sd, speed, fail;
  for (const auto& e : eps) {
    goodput.push_back(static_cast<double>(e.window_completed) / e.window_s /
                      1e3);
    chunks.insert(chunks.end(), e.cpu_chunks.begin(), e.cpu_chunks.end());
    probes.insert(probes.end(), e.probes.begin(), e.probes.end());
    speed.push_back(static_cast<double>(e.completed) / e.wall_s / 1e3);
    sd.push_back(e.cpu_sd_pp);
    fail.push_back(100.0 * static_cast<double>(e.failed) /
                   static_cast<double>(e.attempted));
    rep.attempted += e.attempted;
    rep.failed += e.failed;
  }
  rep.set("p50_ms", hist.quantile(0.50) / 1e6);
  rep.set("p99_ms", hist.quantile(0.99) / 1e6);
  rep.set("goodput_krps", median(goodput));
  // CPU per request: the median over the run's 10 ms chunks, and the same
  // in units of one calibration probe operation timed between them.
  rep.set("cpu_us_per_req", median(chunks));
  rep.set("calibration_us_per_op", median(probes));
  rep.set("cpu_cal_per_req", median(chunks) / median(probes));
  rep.set("cpu_chunks", static_cast<double>(chunks.size()));
  rep.set("sim_speed_kreq_per_s", median(speed));
  rep.set("worker_cpu_sd_pp", median(sd));
  rep.set("fail_pct", median(fail));
  rep.set("setup_s", median(setups));
  rep.set("setup_samples", static_cast<double>(setups.size()));
  rep.set("episodes", static_cast<double>(eps.size()));
  rep.set("latency_samples", static_cast<double>(hist.count()));
}

// Per-layer figures from the traced episodes (counts are exact; times
// are per completed request).
void report_layers(const std::vector<Episode>& traced,
                   const std::vector<Episode>& untraced, const TraceSink& sink,
                   Report& rep) {
  double reqs = 0, wall_tr = 0, events = 0;
  uint64_t live_peak = 0;
  for (const auto& e : traced) {
    reqs += static_cast<double>(e.completed);
    wall_tr += e.wall_s;
    events += static_cast<double>(e.events);
    live_peak = std::max(live_peak, e.live_peak);
  }
  double reqs_u = 0, wall_u = 0;
  for (const auto& e : untraced) {
    reqs_u += static_cast<double>(e.completed);
    wall_u += e.wall_s;
  }
  const auto self = layer_self_ns(sink);
  const double sched_ns = sum_c(traced, "sched.fast_path_ns");
  const double run_ns = static_cast<double>(sink.total_ns[kSimRun]);
  const double runs = sum_c(traced, "filter.runs");
  const double bpf_runs = sum_c(traced, "bpf.tier0_dispatches") +
                          sum_c(traced, "bpf.tier1_dispatches") +
                          sum_c(traced, "bpf.tier2_dispatches") +
                          sum_c(traced, "bpf.tier3_dispatches");
  const double published = sum_c(traced, "sync.published");
  const double suppressed = sum_c(traced, "sched.syncs_suppressed");
  const double dispatched =
      sum_c(traced, "dispatch.bpf") + sum_c(traced, "dispatch.fallback");
  const double pool = sum_c(traced, "pool.hits") + sum_c(traced, "pool.misses");
  const double wst = sum_c(traced, "wst.avail_updates") +
                     sum_c(traced, "wst.pending_updates") +
                     sum_c(traced, "wst.conn_updates");

  rep.set("sim.run_ns_per_req", ratio(run_ns, reqs));
  rep.set("sim.unattributed_ns_per_req", ratio(run_ns - sched_ns, reqs));
  rep.set("simcore.events_per_req", ratio(events, reqs));
  rep.set("sim.live_conns_peak", static_cast<double>(live_peak));
  rep.set("fleet.burst_ns_per_conn",
          ratio(static_cast<double>(sink.total_ns[kSimBurst]),
                sum_c(traced, "fleet.burst_conns")));
  rep.set("fleet.churn_ms", ratio(sum_c(traced, "fleet.churn_ms"),
                                  static_cast<double>(traced.size())));
  rep.set("fleet.audit_ms", ratio(sum_c(traced, "fleet.audit_ms"),
                                  static_cast<double>(traced.size())));
  rep.set("fleet.remap_pct", 100.0 * ratio(sum_c(traced, "fleet.remapped_conns"),
                                           sum_c(traced, "fleet.audited_conns")));
  rep.set("netsim.syn_per_req", ratio(sum_c(traced, "netsim.syns"), reqs));
  rep.set("netsim.drops", sum_c(traced, "netsim.drops"));
  rep.set("netsim.unnotified", sum_c(traced, "netsim.unnotified"));
  rep.set("accept.depth_p99", max_c(traced, "accept.depth_p99"));
  rep.set("bpf.dispatches_per_req", ratio(bpf_runs, reqs));
  rep.set("dispatch.fallback_pct",
          100.0 * ratio(sum_c(traced, "dispatch.fallback"), dispatched));
  rep.set("sched.runs_per_req", ratio(runs, reqs));
  rep.set("sched.ns_per_run", ratio(sched_ns, runs));
  rep.set("sched.publish_pct", 100.0 * ratio(published, published + suppressed));
  rep.set("sched.pass_ratio", ratio(sum_c(traced, "sched.selected_sum"),
                                    sum_c(traced, "sched.worker_slots")));
  rep.set("filter.low_survivor", sum_c(traced, "filter.low_survivor"));
  rep.set("sync.gap_p99_us", max_c(traced, "sync.gap_p99_ns") / 1e3);
  rep.set("wst.updates_per_req", ratio(wst, reqs));
  rep.set("http.fwd_per_req",
          ratio(sum_c(traced, "http.requests_forwarded"), reqs));
  rep.set("http.bytes_copied", sum_c(traced, "http.bytes_copied"));
  rep.set("pool.hit_pct", 100.0 * ratio(sum_c(traced, "pool.hits"), pool));

  // Layer self times. The core share inside run_until comes from the
  // sched.fast_path_ns counter; the rest of run_until stays with sim.
  rep.set("self.gen_ns_per_req", ratio(self.at("gen"), reqs));
  rep.set("self.sim_ns_per_req", ratio(self.at("sim") - sched_ns, reqs));
  rep.set("self.core_ns_per_req", ratio(sched_ns, reqs));
  const double per_req_tr = ratio(wall_tr, reqs);
  const double per_req_u = ratio(wall_u, reqs_u);
  rep.set("trace.overhead_pct", 100.0 * ratio(per_req_tr - per_req_u, per_req_u));
}

void record_tier(const std::vector<Episode>& eps, Report& rep) {
  double n[4];
  for (int t = 0; t < 4; ++t) {
    n[t] = sum_c(eps, "bpf.tier" + std::to_string(t) + "_dispatches");
  }
  rep.info["bpf_tier"] = dominant_tier(n);
}

// Shared run loop: measured episodes, the obs on/off identity check, and the
// traced half when asked for.
void run_sim_workload(const Options& opt, Report& rep, const EpisodeFn& fn,
                      const SetupFn& setup, size_t min_eps) {
  Tracer off;
  const double budget = opt.trace ? opt.seconds / 2 : opt.seconds;
  LatencyHist hist;
  std::vector<Episode> eps =
      run_episodes(fn, opt.seed, 0, budget, min_eps, off, hist);
  // Set-up time: every episode's, topped up with set-ups alone.
  std::vector<double> setups;
  for (const auto& e : eps) setups.push_back(e.setup_s);
  for (uint64_t k = 10'000; setups.size() < kMinSetups; ++k) {
    setups.push_back(setup(episode_seed(opt.seed, k)));
  }
  report_end_to_end(eps, hist, setups, rep);
  record_tier(eps, rep);

  auto check_conservation = [&rep](const std::vector<Episode>& v) {
    bool ok = true;
    for (const auto& e : v) ok = ok && e.c.at("conservation_ok") == 1;
    rep.check("conservation", ok,
              "attempted != completed + failed + live at end");
  };
  check_conservation(eps);

  // Observability must not change what is simulated: replay episode 0
  // with it off and compare the window's latency histogram exactly.
  const uint64_t seed0 = episode_seed(opt.seed, 0);
  rep.check("obs_on_off_identical", same_outputs(eps[0], fn(seed0, false, off, nullptr)));

  if (opt.trace) {
    OwnedSink sink(1 << 17);
    Tracer tr(sink.get());
    LatencyHist traced_hist;
    std::vector<Episode> traced = run_episodes(
        fn, opt.seed, 1000, opt.seconds / 2, 1, tr, traced_hist);
    check_conservation(traced);
    report_layers(traced, eps, *sink.get(), rep);
    // Observability cost: on/off replays of episode 0, back to back on the
    // warm process, alternating which of the two runs first; the median of
    // the pairs' wall-time differences per completed request.
    std::vector<double> obs_ns;
    bool identical = true;
    for (int i = 0; i < kObsPairs; ++i) {
      Episode e[2];
      int64_t ns[2];
      for (int j = 0; j < 2; ++j) {
        const int o = (i + j) % 2;  // 1: observability on
        const int64_t a = mono_ns();
        e[o] = fn(seed0, o == 1, off, nullptr);
        ns[o] = mono_ns() - a;
      }
      identical = identical && same_outputs(e[1], e[0]);
      obs_ns.push_back(static_cast<double>(ns[1] - ns[0]) /
                       static_cast<double>(e[1].completed));
    }
    rep.check("obs_on_off_identical_pairs", identical);
    rep.set("obs.ns_per_req", median(obs_ns));
    if (!opt.trace_out.empty()) {
      if (std::FILE* f = std::fopen(opt.trace_out.c_str(), "w")) {
        dump_spans(f, "sim", *sink.get());
        std::fclose(f);
      }
    }
  }
}

}  // namespace

void run_short_conn(const Options& opt, Report& rep) {
  run_sim_workload(
      opt, rep,
      [](uint64_t s, bool o, Tracer& t, CpuChunks* c) {
        return short_conn_episode(s, o, t, c);
      },
      [](uint64_t s) {
        return timed_setup<sim::LbDevice>(short_conn_config(s, true));
      },
      5);
}

void run_keepalive_l7(const Options& opt, Report& rep) {
  std::vector<sim::DataPlane::Totals> zc_totals;
  run_sim_workload(
      opt, rep,
      [&](uint64_t s, bool o, Tracer& t, CpuChunks* c) {
        KeepaliveOut out = keepalive_episode(s, o, /*zero_copy=*/true, t, c);
        zc_totals.push_back(out.dp);
        return std::move(out.ep);
      },
      [](uint64_t s) {
        return timed_setup<sim::LbDevice>(keepalive_config(s, true, true));
      },
      3);
  // Untimed copy-oracle replay of episode 0: the zero-copy data plane must
  // put exactly the oracle's bytes on both sides.
  Tracer off;
  const KeepaliveOut oracle =
      keepalive_episode(episode_seed(opt.seed, 0), true, false, off, nullptr);
  const auto& zc = zc_totals.front();
  rep.check("keepalive_oracle_streams",
            zc.backend_stream_hash == oracle.dp.backend_stream_hash &&
                zc.client_stream_hash == oracle.dp.client_stream_hash &&
                zc.requests_forwarded == oracle.dp.requests_forwarded);
  uint64_t copied = 0;
  for (const auto& t : zc_totals) copied += t.bytes_copied;
  rep.check("keepalive_zero_copy", copied == 0,
            std::to_string(copied) + " bytes copied");
}

void run_wedge_fleet(const Options& opt, Report& rep) {
  bool maglev_ok = true;
  uint64_t live_peak = 0;
  run_sim_workload(
      opt, rep,
      [&](uint64_t s, bool o, Tracer& t, CpuChunks* c) {
        Episode e = fleet_episode(s, o, t, c);
        maglev_ok = maglev_ok && e.c.at("pcc.maglev_ok") == 1;
        live_peak = std::max(live_peak, e.live_peak);
        return e;
      },
      [](uint64_t s) { return timed_setup<sim::Fleet>(fleet_config(s, true)); },
      3);
  rep.check("maglev_le_modn", maglev_ok);
  rep.check("fleet_live_1e5", live_peak >= 100'000,
            std::to_string(live_peak));
}

}  // namespace pb
