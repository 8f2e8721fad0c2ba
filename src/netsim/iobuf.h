// Ref-counted segment/chain byte buffers for the L7 data plane.
//
// Payload bytes admitted on the client side of the proxy live in
// IoSegment blocks; forwarding to the backend side appends *references*
// to those segments (splice-style), so the proxy path itself performs
// zero memcpy. A copying mode is retained by the callers (ConnState /
// DataPlane) as the differential oracle: both modes must produce
// bit-identical byte streams, which IoChain::checksum() checks cheaply.
//
// The checksum reads 8-byte little-endian words, h = rotl((h ^ w) * K, 29)
// with K odd, carrying a partial word across slice boundaries so any
// slicing of the same bytes checksums alike; it finishes by mixing in the
// zero-padded partial word, then the byte count. Each step is a bijection
// in h and injective in w, so two equal-length streams that differ in any
// single byte always checksum differently.
//
// Concurrency: the simulator is single-threaded by design (workers are
// simulated actors inside one event loop), so refcounts are plain
// uint32_t, not atomics. A real kernel-bypass data plane would pin a
// chain to one core the same way.
//
// Mutation rule: segment bytes are append-only. A chain may memcpy new
// bytes into its tail segment only while it holds the *sole* reference
// to that segment and the tail slice ends exactly at the segment's
// write frontier; bytes that any other slice can see are immutable.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/check.h"

namespace hermes::netsim {

// Process-wide allocation/copy accounting. Benches reset this around a
// timed region to prove the zero-copy path performs no forwarding
// memcpy; tests use it to check segment recycling.
struct IoBufStats {
  uint64_t segments_allocated = 0;
  uint64_t segments_freed = 0;
  uint64_t segment_bytes_allocated = 0;
  uint64_t bytes_copied = 0;      // bytes memcpy'd into segments
  uint64_t bytes_referenced = 0;  // bytes appended by reference (no copy)

  uint64_t segments_live() const {
    return segments_allocated - segments_freed;
  }
  void reset() { *this = IoBufStats{}; }
};

inline IoBufStats& iobuf_stats() {
  static IoBufStats s;
  return s;
}

class SegRef;

// One refcounted block of bytes. Header and payload share a single
// allocation; the payload trails the header.
class IoSegment {
 public:
  static constexpr uint32_t kDefaultCapacity = 4096;

  static SegRef alloc(uint32_t capacity = kDefaultCapacity);

  char* data() { return reinterpret_cast<char*>(this + 1); }
  const char* data() const { return reinterpret_cast<const char*>(this + 1); }
  uint32_t size() const { return size_; }
  uint32_t capacity() const { return cap_; }
  uint32_t avail() const { return cap_ - size_; }
  uint32_t refs() const { return refs_; }

  // Appends up to n bytes into unused capacity; returns bytes written.
  // Written bytes become immutable once any other reference can see
  // them — callers enforce the sole-reference rule (see file comment).
  uint32_t append(const void* src, uint32_t n) {
    const uint32_t take = n < avail() ? n : avail();
    std::memcpy(data() + size_, src, take);
    size_ += take;
    return take;
  }

 private:
  friend class SegRef;
  explicit IoSegment(uint32_t cap) : cap_(cap) {}
  ~IoSegment() = default;

  void retain() { ++refs_; }
  void release() {
    HERMES_DCHECK(refs_ > 0);
    if (--refs_ == 0) {
      ++iobuf_stats().segments_freed;
      this->~IoSegment();
      ::operator delete(static_cast<void*>(this));
    }
  }

  uint32_t refs_ = 1;
  uint32_t size_ = 0;
  uint32_t cap_;
};

// Owning handle to an IoSegment (intrusive refcount).
class SegRef {
 public:
  SegRef() = default;
  ~SegRef() { reset(); }

  SegRef(const SegRef& o) : p_(o.p_) {
    if (p_ != nullptr) p_->retain();
  }
  SegRef& operator=(const SegRef& o) {
    if (this != &o) {
      if (o.p_ != nullptr) o.p_->retain();
      reset();
      p_ = o.p_;
    }
    return *this;
  }
  SegRef(SegRef&& o) noexcept : p_(o.p_) { o.p_ = nullptr; }
  SegRef& operator=(SegRef&& o) noexcept {
    if (this != &o) {
      reset();
      p_ = o.p_;
      o.p_ = nullptr;
    }
    return *this;
  }

  IoSegment* get() const { return p_; }
  IoSegment* operator->() const { return p_; }
  IoSegment& operator*() const { return *p_; }
  explicit operator bool() const { return p_ != nullptr; }
  bool operator==(const SegRef& o) const { return p_ == o.p_; }

  void reset() {
    if (p_ != nullptr) {
      p_->release();
      p_ = nullptr;
    }
  }

 private:
  friend class IoSegment;
  explicit SegRef(IoSegment* p) : p_(p) {}  // adopts the initial ref
  IoSegment* p_ = nullptr;
};

inline SegRef IoSegment::alloc(uint32_t capacity) {
  HERMES_DCHECK(capacity > 0);
  void* raw = ::operator new(sizeof(IoSegment) + capacity);
  auto* seg = new (raw) IoSegment(capacity);
  ++iobuf_stats().segments_allocated;
  iobuf_stats().segment_bytes_allocated += capacity;
  return SegRef(seg);
}

// A view of [off, off+len) within one segment, holding a reference.
struct IoSlice {
  SegRef seg;
  uint32_t off = 0;
  uint32_t len = 0;

  std::string_view view() const {
    return seg ? std::string_view(seg->data() + off, len) : std::string_view();
  }
};

// An ordered chain of slices: the unit of buffered bytes on either side
// of the proxy. append_ref() is the zero-copy path; append_copy() is
// both the admission path (bytes entering the simulated machine) and
// the copy-oracle forwarding path.
class IoChain {
 public:
  IoChain() = default;
  IoChain(IoChain&&) noexcept = default;
  IoChain& operator=(IoChain&&) noexcept = default;
  IoChain(const IoChain&) = delete;
  IoChain& operator=(const IoChain&) = delete;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t num_slices() const { return slices_.size(); }
  const std::vector<IoSlice>& slices() const { return slices_; }

  void clear() {
    slices_.clear();
    size_ = 0;
  }

  // Zero-copy append: shares [off, off+len) of seg. Coalesces with the
  // tail slice when contiguous in the same segment.
  void append_ref(const SegRef& seg, uint32_t off, uint32_t len) {
    if (len == 0) return;
    HERMES_DCHECK(seg && off + len <= seg->size());
    iobuf_stats().bytes_referenced += len;
    size_ += len;
    if (!slices_.empty()) {
      IoSlice& tail = slices_.back();
      if (tail.seg == seg && tail.off + tail.len == off) {
        tail.len += len;
        return;
      }
    }
    slices_.push_back(IoSlice{seg, off, len});
  }

  void append_ref(const IoSlice& s) { append_ref(s.seg, s.off, s.len); }

  void append_ref(const IoChain& other) {
    for (const IoSlice& s : other.slices_) append_ref(s);
  }

  // Copying append: memcpy into this chain's writable tail, allocating
  // segments as needed. Counted in iobuf_stats().bytes_copied.
  void append_copy(const void* src, size_t n) {
    const char* p = static_cast<const char*>(src);
    iobuf_stats().bytes_copied += n;
    size_ += n;
    while (n > 0) {
      IoSegment* tail = writable_tail();
      if (tail == nullptr) {
        const uint32_t cap =
            n > IoSegment::kDefaultCapacity
                ? static_cast<uint32_t>(
                      n < UINT32_MAX ? n : IoSegment::kDefaultCapacity)
                : IoSegment::kDefaultCapacity;
        SegRef seg = IoSegment::alloc(cap);
        slices_.push_back(IoSlice{std::move(seg), 0, 0});
        tail = slices_.back().seg.get();
      }
      const uint32_t wrote =
          tail->append(p, n < UINT32_MAX ? static_cast<uint32_t>(n)
                                         : UINT32_MAX - 1);
      slices_.back().len += wrote;
      p += wrote;
      n -= wrote;
    }
  }

  void append_copy(std::string_view s) { append_copy(s.data(), s.size()); }

  // Appends `other` either by reference (zero-copy) or by deep copy
  // (the oracle), so call sites read as one line with a mode flag.
  void append(const IoChain& other, bool by_ref) {
    if (by_ref) {
      append_ref(other);
    } else {
      for (const IoSlice& s : other.slices()) append_copy(s.view());
    }
  }

  // Drops n bytes from the front (reader side).
  void consume(size_t n) {
    HERMES_DCHECK(n <= size_);
    size_ -= n;
    size_t dropped = 0;
    while (n > 0) {
      IoSlice& head = slices_[dropped];
      if (head.len <= n) {
        n -= head.len;
        head.seg.reset();
        ++dropped;
      } else {
        head.off += static_cast<uint32_t>(n);
        head.len -= static_cast<uint32_t>(n);
        n = 0;
      }
    }
    if (dropped > 0) {
      slices_.erase(slices_.begin(),
                    slices_.begin() + static_cast<std::ptrdiff_t>(dropped));
    }
  }

  void copy_out(size_t off, size_t n, char* dst) const {
    HERMES_DCHECK(off + n <= size_);
    for (const IoSlice& s : slices_) {
      if (n == 0) break;
      if (off >= s.len) {
        off -= s.len;
        continue;
      }
      const size_t take = (s.len - off) < n ? (s.len - off) : n;
      std::memcpy(dst, s.seg->data() + s.off + off, take);
      dst += take;
      n -= take;
      off = 0;
    }
  }

  std::string to_string() const {
    std::string out(size_, '\0');
    copy_out(0, size_, out.data());
    return out;
  }

  static constexpr uint64_t kChecksumSeed = 0x243F6A8885A308D3ULL;  // pi

  // Word-at-a-time checksum over all bytes (see file comment); the
  // differential-oracle checksum. Chain per-message values by passing
  // the previous result as `h`.
  uint64_t checksum(uint64_t h = kChecksumSeed) const;

 private:
  // The tail segment is writable only while this chain's tail slice is
  // the sole reference to it and ends at its write frontier.
  IoSegment* writable_tail() {
    if (slices_.empty()) return nullptr;
    IoSlice& tail = slices_.back();
    IoSegment* seg = tail.seg.get();
    if (seg->refs() != 1) return nullptr;
    if (tail.off + tail.len != seg->size()) return nullptr;
    if (seg->avail() == 0) return nullptr;
    return seg;
  }

  std::vector<IoSlice> slices_;
  size_t size_ = 0;
};

// Streaming state behind IoChain::checksum(): full words are mixed as
// they complete, the partial word waits for the next update().
class StreamChecksum {
 public:
  explicit StreamChecksum(uint64_t h) : h_(h) {}

  void update(const char* p, size_t n) {
    len_ += n;
    for (; n > 0 && tail_len_ > 0; --n) push_byte(*p++);  // carried word
    for (; n >= 8; p += 8, n -= 8) {
      uint64_t w;
      std::memcpy(&w, p, 8);
      if constexpr (std::endian::native == std::endian::big) {
        w = __builtin_bswap64(w);
      }
      h_ = mix(h_, w);
    }
    for (; n > 0; --n) push_byte(*p++);
  }

  uint64_t finish() const { return mix(mix(h_, tail_), len_); }

 private:
  static uint64_t mix(uint64_t h, uint64_t w) {
    return std::rotl((h ^ w) * 0x9E3779B97F4A7C15ULL, 29);
  }

  void push_byte(char c) {
    tail_ |= uint64_t{static_cast<unsigned char>(c)} << (8 * tail_len_);
    if (++tail_len_ == 8) {
      h_ = mix(h_, tail_);
      tail_ = 0;
      tail_len_ = 0;
    }
  }

  uint64_t h_;
  uint64_t tail_ = 0;  // partial little-endian word
  unsigned tail_len_ = 0;  // bytes in tail_, 0..7 between updates
  uint64_t len_ = 0;
};

inline uint64_t IoChain::checksum(uint64_t h) const {
  StreamChecksum c(h);
  for (const IoSlice& s : slices_) c.update(s.seg->data() + s.off, s.len);
  return c.finish();
}

inline uint64_t checksum_bytes(std::string_view s,
                               uint64_t h = IoChain::kChecksumSeed) {
  StreamChecksum c(h);
  c.update(s.data(), s.size());
  return c.finish();
}

}  // namespace hermes::netsim
