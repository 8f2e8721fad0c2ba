// Request and per-connection workload state shared between the workload
// generator, the LB device, and workers.
#pragma once

#include <cstdint>

#include "netsim/connection.h"
#include "util/types.h"

namespace hermes::netsim {
class ListeningSocket;  // netsim/netstack.h
}

namespace hermes::sim {

using RequestId = uint64_t;

// Request::slot of a request that belongs to no connection (per-core probes).
inline constexpr uint32_t kNoConnSlot = 0xffffffffu;

// One application-layer request to be processed by a worker.
struct Request {
  RequestId id = 0;
  netsim::ConnId conn = 0;
  TenantId tenant = 0;
  // The connection's ConnSlab slot (netsim::Connection::slot()): the key
  // of the LB's per-connection store. `conn` tells a live occupant from a
  // later connection that reused the slot.
  uint32_t slot = kNoConnSlot;
  SimTime arrival{};     // when it reached the kernel (SYN time for the
                         // first request of a connection)
  SimTime cost{};        // CPU time the worker will spend on it
  uint64_t bytes = 0;    // wire size; with the data plane enabled it also
                         // scales service time (DataPlane per_byte_cost)
  bool is_poison = false;  // hang-inducing (stuck edge-triggered read)
};
static_assert(sizeof(Request) == 56, "slot must sit in Request's padding");

// What a worker pulled out of epoll_wait: either a new-connection event on
// a listening socket or a request on an established connection.
struct WorkerEvent {
  enum class Kind : uint8_t { Accept, Request };
  Kind kind = Kind::Request;
  netsim::ListeningSocket* socket = nullptr;  // Accept
  Request request{};                          // Request
};

}  // namespace hermes::sim
