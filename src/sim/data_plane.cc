#include "sim/data_plane.h"

#include <algorithm>
#include <array>

#include "http/response.h"
#include "util/check.h"

namespace hermes::sim {

namespace {

void append_u64(std::string* out, uint64_t v) {
  char buf[20];
  int n = 0;
  do {
    buf[n++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v > 0);
  while (n > 0) out->push_back(buf[--n]);
}

// The 26-letter cycle from `base`, repeated past one 4 KiB iobuf so most
// bodies take one memcpy. A multiple of 26 long: the end is phase 0.
using CycleTable = std::array<char, 26 * 160>;

constexpr CycleTable make_cycle(char base) {
  CycleTable t{};
  for (size_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<char>(base + i % 26);
  }
  return t;
}
constexpr CycleTable kLowerCycle = make_cycle('a');
constexpr CycleTable kUpperCycle = make_cycle('A');

// Appends base + (phase + i) % 26 for i in [0, n), where `cycle` is
// make_cycle(base): memcpy chunks up to the table's end.
void append_cycle(std::string* out, const CycleTable& cycle, uint64_t phase,
                  uint64_t n) {
  size_t off = static_cast<size_t>(phase % 26);
  while (n > 0) {
    const size_t take =
        static_cast<size_t>(std::min<uint64_t>(n, cycle.size() - off));
    out->append(cycle.data() + off, take);
    n -= take;
    off = 0;
  }
}

}  // namespace

void DataPlane::synth_request_wire(const Request& req, bool last_on_conn,
                                   std::string* out) {
  out->clear();
  out->append("POST /t");
  append_u64(out, req.tenant);
  out->append("/r");
  append_u64(out, req.id);
  out->append(" HTTP/1.1\r\nHost: tenant-");
  append_u64(out, req.tenant);
  out->append(".svc.hermes\r\nUser-Agent: hermes-client\r\nX-Request-Id: ");
  append_u64(out, req.id);
  out->append("\r\n");
  if (last_on_conn) out->append("Connection: close\r\n");
  // Pad the message toward the plan's request size with a body.
  const size_t overhead = out->size() + 40;  // ~Content-Length + blank line
  const uint64_t body_len = req.bytes > overhead ? req.bytes - overhead : 0;
  out->append("Content-Length: ");
  append_u64(out, body_len);
  out->append("\r\n\r\n");
  append_cycle(out, kLowerCycle, req.id, body_len);
}

void DataPlane::synth_response_body(const Request& req, std::string* out) {
  out->clear();
  const uint64_t body_len = req.bytes;  // echo-sized deterministic payload
  out->reserve(body_len);
  append_cycle(out, kUpperCycle, req.id * 7, body_len);
}

DataPlane::DataPlane(const Config& cfg, uint32_t num_workers,
                     obs::Observability* obs)
    : cfg_(cfg),
      num_workers_(num_workers),
      obs_(obs),
      rr_(num_workers, /*randomize_start=*/true),
      pool_([&] {
        core::BackendConnectionPool::Config pc = cfg.pool;
        pc.num_workers = num_workers;
        return pc;
      }()) {
  std::vector<core::BackendId> backends;
  backends.reserve(cfg_.num_backends);
  for (uint32_t b = 0; b < cfg_.num_backends; ++b) backends.push_back(b);
  rr_.update_backends(std::move(backends), cfg_.seed);
}

http::ConnState::Config DataPlane::conn_config() const {
  http::ConnState::Config cc;
  cc.zero_copy = cfg_.zero_copy;
  cc.capture_body = false;  // bodies travel only in the wire chain
  return cc;
}

void DataPlane::sync_pool_stats(WorkerId w) {
  if (obs_ == nullptr) return;
  const auto& s = pool_.stats();
  auto& m = obs_->metrics;
  if (s.hits > pool_seen_.hits) m.pool_hits->add(w, s.hits - pool_seen_.hits);
  if (s.misses > pool_seen_.misses) {
    m.pool_misses->add(w, s.misses - pool_seen_.misses);
  }
  if (s.expiries > pool_seen_.expiries) {
    m.pool_expiries->add(w, s.expiries - pool_seen_.expiries);
  }
  pool_seen_ = s;
  m.pool_occupancy->set(static_cast<int64_t>(pool_.idle_total()));
}

SimTime DataPlane::on_request(WorkerId w, ConnCtx& c, const Request& req,
                              bool last_on_conn, SimTime now) {
  if (w >= num_workers_) w = 0;  // unowned yet: account to worker 0

  synth_request_wire(req, last_on_conn, &scratch_);
  c.cs.on_client_data(std::string_view{scratch_});
  HERMES_CHECK_MSG(!c.cs.failed(), "data plane synthesized a bad request");
  auto ready = c.cs.pop_ready();
  HERMES_CHECK_MSG(ready.has_value(),
                   "data plane request did not parse to completion");

  totals_.bytes_in += scratch_.size();
  const size_t wire_bytes = ready->wire.size();
  totals_.backend_stream_hash =
      ready->wire.checksum(totals_.backend_stream_hash);
  ++totals_.requests_forwarded;
  if (cfg_.zero_copy) {
    totals_.bytes_zero_copied += wire_bytes;
  } else {
    totals_.bytes_copied += wire_bytes;
  }

  // Pick a backend and take (or establish) a connection to it.
  const core::BackendId b = rr_.pick(w);
  const auto pooled = pool_.acquire(w, b, now);
  c.pending.push_back(Pending{req.id, b, pooled ? pooled->id : 0});

  totals_.pool_hits = pool_.stats().hits;
  totals_.pool_misses = pool_.stats().misses;
  totals_.pool_expiries = pool_.stats().expiries;
  totals_.pool_evictions = pool_.stats().evictions;

  if (obs_ != nullptr) {
    auto& m = obs_->metrics;
    m.http_requests_forwarded->inc(w);
    if (cfg_.zero_copy) {
      m.http_bytes_zero_copied->add(w, wire_bytes);
    } else {
      m.http_bytes_copied->add(w, wire_bytes);
    }
  }
  sync_pool_stats(w);

  const SimTime byte_cost{cfg_.per_byte_cost.ns() *
                          static_cast<int64_t>(req.bytes)};
  return byte_cost + (pooled ? SimTime{} : cfg_.backend_handshake_cost);
}

void DataPlane::on_response(WorkerId w, ConnCtx& c, const Request& req,
                            SimTime now) {
  if (w >= num_workers_) w = 0;

  http::Response resp;
  resp.set_status(200);
  resp.add_header("Server", "hermes-lb");
  std::string body;
  synth_response_body(req, &body);
  resp.set_body(std::move(body));

  const netsim::IoChain encoded = http::ConnState::encode(resp);
  const netsim::IoChain out = c.cs.egress(encoded);
  totals_.client_stream_hash = out.checksum(totals_.client_stream_hash);
  totals_.bytes_out += out.size();
  ++totals_.responses_returned;
  if (cfg_.zero_copy) {
    totals_.bytes_zero_copied += out.size();
  } else {
    totals_.bytes_copied += out.size();
  }
  if (obs_ != nullptr) {
    auto& m = obs_->metrics;
    if (cfg_.zero_copy) {
      m.http_bytes_zero_copied->add(w, static_cast<int64_t>(out.size()));
    } else {
      m.http_bytes_copied->add(w, static_cast<int64_t>(out.size()));
    }
  }

  // Return the backend connection to the pool.
  const auto pit =
      std::find_if(c.pending.begin(), c.pending.end(),
                   [&req](const Pending& p) { return p.req == req.id; });
  HERMES_CHECK_MSG(pit != c.pending.end(),
                   "data plane: response without its request in flight");
  pool_.release(w, pit->backend, pit->pooled_id, now);
  c.pending.erase(pit);
  totals_.pool_evictions = pool_.stats().evictions;
  sync_pool_stats(w);
}

}  // namespace hermes::sim
