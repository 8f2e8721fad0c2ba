// Heap-allocation guard for the simulator's per-request path.
//
// This binary replaces the global operator new with a counting one. After
// warm-up, an 8-worker Hermes LbDevice with the data plane off must run a
// 100 ms window of Case-1 traffic (one request per connection: SYN,
// reuseport dispatch, accept, request, close) without a heap allocation,
// apart from the growth of a new chunk in the event queue, the connection
// store or the connection slab (one chunk plus, at most, its chunk table).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "sim/lb.h"
#include "sim/workload.h"

namespace {

std::atomic<uint64_t> g_allocs{0};

void* counted_alloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(al);
  if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_aligned_alloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_aligned_alloc(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace hermes::sim {
namespace {

struct Chunks {
  size_t events, rows, slab;
  size_t total() const { return events + rows + slab; }
};

Chunks chunks_of(LbDevice& lb) {
  return {lb.eq().record_chunks(), lb.conn_store_chunks(),
          lb.netstack().conns().chunk_count()};
}

TEST(SimAllocTest, CounterSeesAllocations) {
  const uint64_t before = g_allocs.load();
  auto* p = new int(7);
  EXPECT_EQ(g_allocs.load(), before + 1);
  delete p;
}

TEST(SimAllocTest, WarmCaseOneWindowAllocatesNothing) {
  LbDevice::Config cfg;
  cfg.mode = netsim::DispatchMode::HermesMode;
  cfg.num_workers = 8;
  cfg.seed = 7;
  ASSERT_FALSE(cfg.data_plane.enabled);
  LbDevice lb(cfg);
  const SimTime warm = SimTime::millis(300);
  const SimTime end = warm + SimTime::millis(100);
  lb.start_pattern(case_pattern(1, cfg.num_workers, /*load=*/2.0), 0,
                   cfg.num_ports, end);
  lb.eq().run_until(warm);
  const uint64_t completed_before = lb.totals().requests_completed;
  const Chunks c0 = chunks_of(lb);

  const uint64_t a0 = g_allocs.load();
  lb.eq().run_until(end);
  const uint64_t allocs = g_allocs.load() - a0;

  const Chunks c1 = chunks_of(lb);
  const uint64_t completed = lb.totals().requests_completed - completed_before;
  std::printf("window: %lu requests, %lu heap allocations, %zu new chunks\n",
              static_cast<unsigned long>(completed),
              static_cast<unsigned long>(allocs), c1.total() - c0.total());
  EXPECT_GT(completed, 2000u);  // ~3200 connections arrive in the window
  EXPECT_LE(allocs, 2 * (c1.total() - c0.total()));
}

}  // namespace
}  // namespace hermes::sim
