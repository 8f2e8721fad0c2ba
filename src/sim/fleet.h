// Fleet: N Hermes LB instances behind a stateless consistent-hashing front
// tier — the production topology the ROADMAP's north star calls for, at the
// scale where per-connection consistency (PCC) becomes the metric that
// matters ("LB Scalability: Stateful vs Stateless", PAPERS.md).
//
// The front tier keeps no per-flow state: every packet of a connection is
// routed by hashing its four-tuple through a Maglev lookup table over the
// active LB set. That makes the tier trivially scalable, but membership
// churn (LB add/remove) moves table slots — and every live connection whose
// slot moved now lands on an LB with no state for it (a PCC violation:
// the connection breaks). Maglev's guarantee is that churn moves few slots;
// the mod-N baseline (reciprocal_scale over the active count, what naive
// ECMP does) moves almost all of them. Fleet measures both, by scanning the
// SoA connection slabs of every device and re-routing each live tuple.
//
// The same fleet runs the paper's deployment scenarios: a canary release
// (Fig. 11) is new-version LBs joining with add_lb(mode) while the old ones
// drain(), and the Appendix-C sandbox is pin_tenant() onto a drained LB.
//
// Each LbDevice keeps its own event queue; devices only interact through
// connection arrivals, so the fleet advances them in bounded lockstep.
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "netsim/four_tuple.h"
#include "sim/lb.h"

namespace hermes::sim {

// Maglev consistent-hash lookup table (Eisenbud et al., NSDI'16): each
// backend fills table slots by walking its own permutation of [0, M);
// every backend gets within one slot of M/N, and removing a backend only
// reassigns the slots it owned (plus a small perturbation).
class MaglevTable {
 public:
  // `size` should be prime and >> max backend count; 65537 here.
  explicit MaglevTable(uint32_t size = 65537) : size_(size) {}

  // Rebuild the table over `backends` (stable ids; order-insensitive by
  // construction since permutations depend only on the id).
  void build(const std::vector<uint32_t>& backends) {
    table_.assign(size_, kEmpty);
    if (backends.empty()) return;
    const size_t n = backends.size();
    std::vector<uint32_t> offset(n), skip(n), next(n, 0);
    for (size_t i = 0; i < n; ++i) {
      const uint32_t id = backends[i];
      offset[i] = netsim::jhash_3words(id, 0x6d61676cu, 0xe1u, 0) % size_;
      skip[i] = netsim::jhash_3words(id, 0x6d61676cu, 0xe2u, 0) %
                    (size_ - 1) + 1;
    }
    uint32_t filled = 0;
    while (filled < size_) {
      for (size_t i = 0; i < n && filled < size_; ++i) {
        // Walk backend i's permutation to its next unclaimed slot.
        uint32_t slot;
        do {
          slot = (offset[i] + next[i] * skip[i]) % size_;
          ++next[i];
        } while (table_[slot] != kEmpty);
        table_[slot] = backends[i];
        ++filled;
      }
    }
  }

  bool empty() const { return table_.empty() || table_[0] == kEmpty; }
  uint32_t size() const { return size_; }
  // Backend id owning `hash`'s slot.
  uint32_t lookup(uint32_t hash) const { return table_[hash % size_]; }
  uint32_t slot_owner(uint32_t slot) const { return table_[slot]; }

 private:
  static constexpr uint32_t kEmpty = 0xffffffffu;
  uint32_t size_;
  std::vector<uint32_t> table_;
};

class Fleet {
 public:
  struct Config {
    uint32_t num_lbs = 4;
    LbDevice::Config device{};    // per-device seed derived from seed + index
    uint32_t maglev_size = 65537; // prime
    uint64_t seed = 1;
  };

  explicit Fleet(Config cfg);

  size_t device_count() const { return devices_.size(); }
  size_t active_count() const;
  LbDevice& device(size_t i) { return *devices_[i]; }
  bool active(size_t i) const { return active_[i]; }

  // ---- front tier ------------------------------------------------------
  // Maglev route: device index owning this flow hash (SIZE_MAX if no
  // active device).
  size_t route(uint32_t flow_hash) const;
  // Mod-N baseline: reciprocal_scale over the active devices in index
  // order — what a naive ECMP front tier does.
  size_t route_mod(uint32_t flow_hash) const;

  // Open `count` connections for `tenant`: tuples are drawn from the fleet
  // RNG, routed by Maglev exactly as the front tier would route the SYN
  // (or all to the tenant's sandbox, see pin_tenant), and delivered to each
  // device as one tuple burst. Returns established; 0 when no device is in
  // rotation and the tenant is not pinned.
  size_t open_burst(TenantId tenant, const LbDevice::ConnPlan& plan,
                    size_t count);

  // Sandbox isolation (Appendix C): route every NEW connection of `tenant`
  // to device `i`, which must be out of rotation (drained), so no other
  // tenant lands there and audit_pcc never scans a pinned connection.
  void pin_tenant(TenantId tenant, size_t i);

  // ---- membership churn ------------------------------------------------
  // Add one LB instance running `mode` (the argument-less form keeps the
  // fleet's configured mode); the table rebuild remaps ~1/N of the hash
  // space. Returns the new device's index.
  size_t add_lb(netsim::DispatchMode mode);
  size_t add_lb() { return add_lb(cfg_.device.mode); }

  // Take LB `i` out of the rotation and rebuild the table: it gets no new
  // connections, while the ones it holds keep running to completion (a
  // canary drain).
  void drain(size_t i);

  // drain(i), then break and close every connection still on LB `i`,
  // queued ones included: the stateless tier cannot pin them anywhere.
  // Surviving connections on other devices may also be remapped by the
  // rebuild.
  void remove_lb(size_t i);

  // ---- PCC audit -------------------------------------------------------
  // Scan every in-rotation device's connection slab (SoA column walk) and
  // re-route each live tuple through the CURRENT front-tier tables.
  struct PccAudit {
    uint64_t checked = 0;            // live connections scanned
    uint64_t maglev_violations = 0;  // Maglev now routes elsewhere
    uint64_t modn_violations = 0;    // mod-N baseline routes elsewhere
  };
  PccAudit audit_pcc();

  uint64_t broken_total() const { return broken_total_; }

  // ---- fleet-scale imbalance (Table-2 style, across devices) -----------
  struct Imbalance {
    double conn_avg = 0;
    double conn_sd = 0;
    uint64_t conn_max = 0;
    uint64_t conn_min = 0;
    double max_over_avg = 0;
  };
  Imbalance imbalance() const;

  // ---- clock -----------------------------------------------------------
  // Advance every device's queue to `until` in `step`-sized slices.
  void run_until(SimTime until, SimTime step = SimTime::millis(100));
  SimTime now() const { return now_; }

  uint64_t total_live() const;  // in-rotation devices only
  uint64_t total_completed() const;
  uint64_t total_opened() const;
  uint64_t total_dropped() const;

  // Aggregated L7 data-plane totals across all devices (zero when the
  // fleet's device config leaves the data plane off). Per-device stream
  // hashes are combined by XOR into a fleet-level identity.
  DataPlane::Totals data_plane_totals() const;

 private:
  size_t index_of_id(uint32_t id) const;  // device index for a backend id
  void rebuild_tables();
  LbDevice::Config device_config(uint32_t index) const;

  Config cfg_;
  std::vector<std::unique_ptr<LbDevice>> devices_;
  std::vector<uint32_t> ids_;      // stable backend id per device index
  std::vector<bool> active_;
  MaglevTable maglev_;
  Rng rng_;
  SimTime now_{};
  uint64_t broken_total_ = 0;
  uint32_t next_id_ = 0;
  std::unordered_map<TenantId, size_t> pins_;  // tenant -> sandbox device

  // open_burst scratch: per-device tuple groups.
  std::vector<std::vector<netsim::FourTuple>> burst_groups_;
};

}  // namespace hermes::sim
