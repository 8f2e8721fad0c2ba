#include "sim/fleet.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace hermes::sim {

Fleet::Fleet(Config cfg)
    : cfg_(cfg), maglev_(cfg.maglev_size), rng_(cfg.seed ^ 0xf1ee7f1ee7ull) {
  HERMES_CHECK(cfg_.num_lbs > 0);
  devices_.reserve(cfg_.num_lbs);
  for (uint32_t i = 0; i < cfg_.num_lbs; ++i) {
    devices_.push_back(std::make_unique<LbDevice>(device_config(next_id_)));
    ids_.push_back(next_id_++);
    active_.push_back(true);
  }
  rebuild_tables();
}

LbDevice::Config Fleet::device_config(uint32_t index) const {
  LbDevice::Config dc = cfg_.device;
  dc.seed = cfg_.seed * 0x9e3779b97f4a7c15ull + index + 1;
  return dc;
}

size_t Fleet::active_count() const {
  size_t n = 0;
  for (bool a : active_) n += a ? 1 : 0;
  return n;
}

void Fleet::rebuild_tables() {
  std::vector<uint32_t> members;
  for (size_t i = 0; i < devices_.size(); ++i) {
    if (active_[i]) members.push_back(ids_[i]);
  }
  maglev_.build(members);
}

size_t Fleet::index_of_id(uint32_t id) const {
  for (size_t i = 0; i < ids_.size(); ++i) {
    if (ids_[i] == id) return i;
  }
  return SIZE_MAX;
}

size_t Fleet::route(uint32_t flow_hash) const {
  if (active_count() == 0) return SIZE_MAX;
  return index_of_id(maglev_.lookup(flow_hash));
}

size_t Fleet::route_mod(uint32_t flow_hash) const {
  const size_t n = active_count();
  if (n == 0) return SIZE_MAX;
  uint32_t k = netsim::reciprocal_scale(flow_hash,
                                        static_cast<uint32_t>(n));
  for (size_t i = 0; i < devices_.size(); ++i) {
    if (!active_[i]) continue;
    if (k == 0) return i;
    --k;
  }
  return SIZE_MAX;
}

size_t Fleet::open_burst(TenantId tenant, const LbDevice::ConnPlan& plan,
                         size_t count) {
  const auto pin = pins_.find(tenant);
  const size_t sandbox = pin == pins_.end() ? SIZE_MAX : pin->second;
  if (sandbox == SIZE_MAX && active_count() == 0) return 0;
  burst_groups_.resize(devices_.size());
  for (auto& g : burst_groups_) g.clear();

  // The dport must match what the chosen device binds for this tenant;
  // port layout is identical across devices (same Config), so tuple
  // generation does not depend on the routing decision.
  const auto dport = static_cast<PortId>(
      cfg_.device.first_port + tenant % cfg_.device.num_ports);
  for (size_t i = 0; i < count; ++i) {
    netsim::FourTuple t;
    t.saddr = static_cast<uint32_t>(rng_.next_u64());
    t.daddr = 0x0a000001;
    t.sport = static_cast<uint16_t>(1024 + rng_.next_below(60000));
    t.dport = dport;
    const size_t dev =
        sandbox != SIZE_MAX ? sandbox : route(netsim::skb_hash(t));
    HERMES_DCHECK(dev != SIZE_MAX);
    burst_groups_[dev].push_back(t);
  }

  size_t established = 0;
  for (size_t d = 0; d < devices_.size(); ++d) {
    if (burst_groups_[d].empty()) continue;
    established += devices_[d]->open_tuple_burst(tenant, plan,
                                                 burst_groups_[d]);
  }
  return established;
}

void Fleet::pin_tenant(TenantId tenant, size_t i) {
  HERMES_CHECK(i < devices_.size());
  HERMES_CHECK_MSG(!active_[i], "pin_tenant: the sandbox must be drained");
  pins_[tenant] = i;
}

size_t Fleet::add_lb(netsim::DispatchMode mode) {
  LbDevice::Config dc = device_config(next_id_);
  dc.mode = mode;
  devices_.push_back(std::make_unique<LbDevice>(dc));
  ids_.push_back(next_id_++);
  active_.push_back(true);
  // New devices join at the fleet clock (their queue starts at zero).
  devices_.back()->eq().run_until(now_);
  rebuild_tables();
  return devices_.size() - 1;
}

void Fleet::drain(size_t i) {
  HERMES_CHECK(i < devices_.size() && active_[i]);
  active_[i] = false;
  rebuild_tables();
}

void Fleet::remove_lb(size_t i) {
  drain(i);
  // Every connection still on the removed device is broken: the stateless
  // front tier now routes its packets to a device with no state for it.
  broken_total_ += devices_[i]->live_connections();
  devices_[i]->close_all();
}

Fleet::PccAudit Fleet::audit_pcc() {
  PccAudit audit;
  for (size_t d = 0; d < devices_.size(); ++d) {
    if (!active_[d]) continue;
    devices_[d]->netstack().conns().for_each_live(
        [&](netsim::Connection c) {
          const uint32_t h = netsim::skb_hash(c.tuple());
          ++audit.checked;
          if (route(h) != d) ++audit.maglev_violations;
          if (route_mod(h) != d) ++audit.modn_violations;
        });
  }
  return audit;
}

Fleet::Imbalance Fleet::imbalance() const {
  Imbalance im;
  uint64_t total = 0, n = 0;
  uint64_t mx = 0, mn = UINT64_MAX;
  for (size_t d = 0; d < devices_.size(); ++d) {
    if (!active_[d]) continue;
    const uint64_t live = devices_[d]->live_connections();
    total += live;
    mx = std::max(mx, live);
    mn = std::min(mn, live);
    ++n;
  }
  if (n == 0) return im;
  im.conn_avg = static_cast<double>(total) / static_cast<double>(n);
  double var = 0;
  for (size_t d = 0; d < devices_.size(); ++d) {
    if (!active_[d]) continue;
    const double diff = static_cast<double>(devices_[d]->live_connections()) -
                        im.conn_avg;
    var += diff * diff;
  }
  im.conn_sd = std::sqrt(var / static_cast<double>(n));
  im.conn_max = mx;
  im.conn_min = mn;
  im.max_over_avg = im.conn_avg > 0
                        ? static_cast<double>(mx) / im.conn_avg
                        : 0;
  return im;
}

void Fleet::run_until(SimTime until, SimTime step) {
  SimTime t = now_;
  while (t < until) {
    t = std::min(until, t + step);
    for (size_t d = 0; d < devices_.size(); ++d) {
      // Inactive devices keep draining their queues (in-flight work
      // finishes) but receive no new connections.
      devices_[d]->eq().run_until(t);
    }
    now_ = t;
  }
}

uint64_t Fleet::total_live() const {
  uint64_t sum = 0;
  for (size_t d = 0; d < devices_.size(); ++d) {
    if (active_[d]) sum += devices_[d]->live_connections();
  }
  return sum;
}

uint64_t Fleet::total_completed() const {
  uint64_t sum = 0;
  for (const auto& d : devices_) sum += d->totals().requests_completed;
  return sum;
}

uint64_t Fleet::total_opened() const {
  uint64_t sum = 0;
  for (const auto& d : devices_) sum += d->totals().conns_opened;
  return sum;
}

uint64_t Fleet::total_dropped() const {
  uint64_t sum = 0;
  for (const auto& d : devices_) sum += d->totals().conns_dropped;
  return sum;
}

DataPlane::Totals Fleet::data_plane_totals() const {
  DataPlane::Totals t;
  t.backend_stream_hash = 0;
  t.client_stream_hash = 0;
  for (const auto& d : devices_) {
    const DataPlane* dp = d->data_plane();
    if (dp == nullptr) continue;
    const DataPlane::Totals& s = dp->totals();
    t.requests_forwarded += s.requests_forwarded;
    t.responses_returned += s.responses_returned;
    t.bytes_in += s.bytes_in;
    t.bytes_out += s.bytes_out;
    t.bytes_zero_copied += s.bytes_zero_copied;
    t.bytes_copied += s.bytes_copied;
    t.pool_hits += s.pool_hits;
    t.pool_misses += s.pool_misses;
    t.pool_expiries += s.pool_expiries;
    t.pool_evictions += s.pool_evictions;
    t.parse_errors += s.parse_errors;
    t.backend_stream_hash ^= s.backend_stream_hash;
    t.client_stream_hash ^= s.client_stream_hash;
  }
  return t;
}

}  // namespace hermes::sim
