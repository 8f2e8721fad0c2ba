// Per-connection state of one LbDevice, indexed by the connection's ConnSlab
// slot (netsim::Connection::slot()).
//
// Rows live in fixed-size chunks that never move or shrink, so a lookup is
// one index computation and an id compare, and opening or closing a
// connection allocates nothing once the chunk exists. The slab hands the
// most recently freed slot out first, so occupied rows stay packed below
// the peak live-connection count. The id column doubles as the occupancy
// mark (0 = free; ConnIds start at 1) and tells a live row from a later
// connection that reused its slot.
//
// Each row has two columns: the workload's `Row`, and an optional `Http`
// (the data plane's per-connection HTTP state). The Http column is only
// allocated when the store is built with `with_http`, so devices without
// the data plane pay nothing for it.
//
// for_each() visits occupied rows in ascending slot order. That is the
// documented order of every whole-device sweep (request bursts,
// close_fraction, close_all, the degradation sweep): it decides the order
// in which those sweeps draw from the device's RNG.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "netsim/conn_slab.h"
#include "util/check.h"

namespace hermes::sim {

template <class Row, class Http>
class ConnStore {
 public:
  static constexpr uint32_t kChunkBits = 9;
  static constexpr uint32_t kChunkRows = 1u << kChunkBits;

  // The first chunk comes with the store, for the reason EventQueue's
  // first record chunk does: allocated at the first connection, it split
  // the memory the owning LbDevice's set-up had just freed.
  explicit ConnStore(bool with_http) : with_http_(with_http) { add_chunk(); }
  ConnStore(const ConnStore&) = delete;
  ConnStore& operator=(const ConnStore&) = delete;

  // Claim the free row at `slot` for connection `id` and reset it.
  Row& insert(uint32_t slot, netsim::ConnId id) {
    HERMES_DCHECK(id != 0);
    while ((slot >> kChunkBits) >= chunks_.size()) add_chunk();
    Chunk& ch = chunk(slot);
    const uint32_t off = off_of(slot);
    HERMES_CHECK_MSG(ch.id[off] == 0, "connection store slot in use");
    ch.id[off] = id;
    ch.row[off] = Row{};
    ++size_;
    return ch.row[off];
  }

  // The row of connection `id` at `slot`; null when the connection is
  // gone (the slot is free or holds a later connection).
  Row* find(uint32_t slot, netsim::ConnId id) {
    if ((slot >> kChunkBits) >= chunks_.size()) return nullptr;
    Chunk& ch = chunk(slot);
    const uint32_t off = off_of(slot);
    return ch.id[off] == id ? &ch.row[off] : nullptr;
  }

  // The row at an occupied `slot`.
  Row& at(uint32_t slot) {
    HERMES_DCHECK(id_at(slot) != 0);
    return chunk(slot).row[off_of(slot)];
  }

  // The Http entry of an occupied row (store built with_http).
  std::optional<Http>& http(uint32_t slot) {
    HERMES_DCHECK(with_http_ && chunk(slot).id[off_of(slot)] != 0);
    return chunk(slot).http[off_of(slot)];
  }

  netsim::ConnId id_at(uint32_t slot) const {
    return chunk(slot).id[off_of(slot)];
  }

  // Free an occupied row; its Http entry is destroyed with it.
  void erase(uint32_t slot) {
    Chunk& ch = chunk(slot);
    const uint32_t off = off_of(slot);
    HERMES_DCHECK(ch.id[off] != 0);
    ch.id[off] = 0;
    if (with_http_) ch.http[off].reset();
    --size_;
  }

  size_t size() const { return size_; }
  size_t chunk_count() const { return chunks_.size(); }

  // f(slot, row) for every occupied row, in ascending slot order. `f` may
  // not insert or erase rows.
  template <class F>
  void for_each(F&& f) {
    for (size_t c = 0; c < chunks_.size(); ++c) {
      Chunk& ch = *chunks_[c];
      for (uint32_t off = 0; off < kChunkRows; ++off) {
        if (ch.id[off] != 0) {
          f(static_cast<uint32_t>(c << kChunkBits) + off, ch.row[off]);
        }
      }
    }
  }

  // f(http) for every engaged Http entry, in slot order.
  template <class F>
  void for_each_http(F&& f) const {
    if (!with_http_) return;
    for (const auto& ch : chunks_) {
      for (uint32_t off = 0; off < kChunkRows; ++off) {
        if (ch->http[off]) f(*ch->http[off]);
      }
    }
  }

 private:
  struct Chunk {
    netsim::ConnId id[kChunkRows] = {};
    Row row[kChunkRows];
    std::unique_ptr<std::optional<Http>[]> http;  // null without with_http
  };

  void add_chunk() {
    auto ch = std::make_unique<Chunk>();
    if (with_http_) {
      ch->http = std::make_unique<std::optional<Http>[]>(kChunkRows);
    }
    chunks_.push_back(std::move(ch));
  }

  Chunk& chunk(uint32_t slot) { return *chunks_[slot >> kChunkBits]; }
  const Chunk& chunk(uint32_t slot) const {
    return *chunks_[slot >> kChunkBits];
  }
  static uint32_t off_of(uint32_t slot) { return slot & (kChunkRows - 1); }

  bool with_http_;
  std::vector<std::unique_ptr<Chunk>> chunks_;
  size_t size_ = 0;
};

}  // namespace hermes::sim
