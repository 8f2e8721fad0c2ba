// The L7 proxy data plane: real bytes behind the simulator's abstract
// requests.
//
// For every sim::Request the workload layer generates, the data plane
// synthesizes the request's actual HTTP/1.1 wire bytes, admits them into
// the connection's http::ConnState (keep-alive + pipelining over iobuf
// chains), re-parses them exactly as the LB would, and forwards the wire
// chain to a backend picked round-robin — reusing a pooled backend
// connection when one is warm, else charging the handshake cost into the
// request's service time. The response path encodes a deterministic
// backend reply and egresses it to the client through the same
// zero-copy-or-oracle machinery.
//
// Both modes (Config::zero_copy = true zero-copy / = false copy oracle)
// must produce bit-identical backend and client byte streams; the data
// plane chains a stream checksum (IoChain::checksum) over each direction
// so benches and tests can assert it.
//
// The data plane keeps no per-connection table of its own: each
// connection's ConnCtx lives in its LB's connection store
// (sim/conn_store.h) and is passed in by the caller.
//
// Disabled by default (Config::enabled=false): every pre-existing bench
// and test runs byte-identically with the data plane compiled in.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/backend_pool.h"
#include "http/conn_state.h"
#include "netsim/iobuf.h"
#include "obs/observability.h"
#include "sim/request.h"
#include "util/types.h"

namespace hermes::sim {

class DataPlane {
 public:
  struct Config {
    bool enabled = false;
    // Splice-style forwarding (references into admitted segments) vs the
    // copy oracle, which tests and benches select in-process.
    bool zero_copy = true;
    uint32_t num_backends = 8;
    core::BackendConnectionPool::Config pool{};
    // Charged into a request's service time on a pool miss (the TCP/TLS
    // handshake to the backend the paper's §7 pools exist to avoid).
    SimTime backend_handshake_cost = SimTime::micros(50);
    // Body-size-dependent service cost: every request additionally costs
    // per_byte_cost * Request::bytes (parse + forward work scales with the
    // wire size). Zero by default — the abstract cost model stays
    // byte-identical unless a scenario opts in.
    SimTime per_byte_cost{};
    uint64_t seed = 42;  // round-robin start offsets
  };

  struct Totals {
    uint64_t requests_forwarded = 0;
    uint64_t responses_returned = 0;
    uint64_t bytes_in = 0;             // client→LB admitted bytes
    uint64_t bytes_out = 0;            // LB→client bytes
    uint64_t bytes_zero_copied = 0;    // forwarded by reference
    uint64_t bytes_copied = 0;         // forwarded by memcpy (oracle)
    uint64_t pool_hits = 0;
    uint64_t pool_misses = 0;
    uint64_t pool_expiries = 0;
    uint64_t pool_evictions = 0;
    uint64_t parse_errors = 0;
    // Chained checksum over every byte forwarded toward backends /
    // clients, in completion order. Equal across modes or bust.
    uint64_t backend_stream_hash = netsim::IoChain::kChecksumSeed;
    uint64_t client_stream_hash = netsim::IoChain::kChecksumSeed;
  };

  // The backend lease of a request between on_request and on_response.
  struct Pending {
    RequestId req = 0;
    core::BackendId backend = 0;
    uint64_t pooled_id = 0;  // 0 = freshly established
  };
  // One client connection's HTTP state. Destroying it with requests still
  // in flight drops their backend leases.
  struct ConnCtx {
    http::ConnState cs;
    // In request order; more than one only under a request burst
    // (LbDevice::burst_all_connections). Capacity stays with the
    // connection, so keep-alive requests allocate nothing here.
    std::vector<Pending> pending;
    explicit ConnCtx(const http::ConnState::Config& c) : cs(c) {}
  };

  DataPlane(const Config& cfg, uint32_t num_workers, obs::Observability* obs);

  // The ConnState configuration every ConnCtx of this data plane uses.
  http::ConnState::Config conn_config() const;

  // Client request admitted on connection `c`, to be served by worker `w`.
  // Synthesizes + parses + forwards the request's wire bytes. Returns
  // the extra service cost (backend handshake on a pool miss).
  SimTime on_request(WorkerId w, ConnCtx& c, const Request& req,
                     bool last_on_conn, SimTime now);

  // Request served: encode the backend response and egress it on `c`.
  void on_response(WorkerId w, ConnCtx& c, const Request& req, SimTime now);

  const Totals& totals() const { return totals_; }
  const Config& config() const { return cfg_; }
  const core::BackendConnectionPool& pool() const { return pool_; }

  // Builds the deterministic wire form for a request / its response —
  // shared with bench/proxy_path so micro and sim legs agree.
  static void synth_request_wire(const Request& req, bool last_on_conn,
                                 std::string* out);
  static void synth_response_body(const Request& req, std::string* out);

 private:
  void sync_pool_stats(WorkerId w);

  Config cfg_;
  uint32_t num_workers_;
  obs::Observability* obs_;
  core::RoundRobinBackends rr_;
  core::BackendConnectionPool pool_;
  core::BackendConnectionPool::Stats pool_seen_{};  // last obs-synced stats
  std::string scratch_;
  Totals totals_;
};

}  // namespace hermes::sim
