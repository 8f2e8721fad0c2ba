// The Hermes dispatch program (Algo. 2): verification, differential testing
// against the C++ reference, fallback behaviour, and group mode. Every run
// executes at both execution tiers (bpf_tiers.h), which must agree.
#include <gtest/gtest.h>

#include <iterator>
#include <memory>

#include "bpf/maps.h"
#include "bpf/vm.h"
#include "bpf_tiers.h"
#include "core/bitmap.h"
#include "core/dispatch_prog.h"
#include "simcore/rng.h"

namespace hermes::core {
namespace {

class DispatchProgTest : public ::testing::Test {
 protected:
  void build(const DispatchProgramParams& p, uint32_t num_workers) {
    params_ = p;
    sel_ = std::make_unique<bpf::ArrayMap>(p.num_groups, sizeof(uint64_t));
    socks_ = std::make_unique<bpf::ReuseportSockArray>(num_workers);
    for (uint32_t w = 0; w < num_workers; ++w) {
      ASSERT_TRUE(socks_->update(w, cookie_of(w)));
    }
    const bpf::Program prog = build_dispatch_program(p);
    for (size_t t = 0; t < kNumTiers; ++t) {
      vms_[t].set_tier(bpf::kTiers[t]);
      std::string err;
      progs_[t] = vms_[t].load(prog, {sel_.get(), socks_.get()}, &err);
      ASSERT_NE(progs_[t], nullptr) << bpf::to_string(bpf::kTiers[t]) << ": " << err;
    }
  }

  static uint64_t cookie_of(WorkerId w) { return 1000 + w; }

  void set_bitmap(uint32_t group, uint64_t bm) { sel_->store_u64(group, bm); }

  // Runs the program at every tier; returns the selected worker or
  // kInvalidWorker on fallback. The tiers must agree.
  WorkerId run(uint32_t hash, uint32_t hash2 = 0) {
    WorkerId picked[kNumTiers];
    for (size_t t = 0; t < kNumTiers; ++t) {
      picked[t] = run_at(t, hash, hash2);
      EXPECT_EQ(picked[t], picked[0])
          << bpf::to_string(bpf::kTiers[t]) << " disagrees, hash=" << hash;
    }
    return picked[0];
  }

  WorkerId run_at(size_t t, uint32_t hash, uint32_t hash2) {
    bpf::ReuseportCtx ctx;
    ctx.hash = hash;
    ctx.hash2 = hash2;
    const auto res = vms_[t].run(*progs_[t], ctx);
    if (res.ret == bpf::kRetUseSelection && ctx.selection_made) {
      return static_cast<WorkerId>(ctx.selected_socket - 1000);
    }
    EXPECT_EQ(res.ret, bpf::kRetFallback);
    return kInvalidWorker;
  }

  static constexpr size_t kNumTiers = std::size(bpf::kTiers);
  DispatchProgramParams params_;
  bpf::Vm vms_[kNumTiers];
  std::unique_ptr<bpf::ArrayMap> sel_;
  std::unique_ptr<bpf::ReuseportSockArray> socks_;
  std::unique_ptr<bpf::LoadedProgram> progs_[kNumTiers];
};

TEST_F(DispatchProgTest, PassesVerifier) {
  // build() already asserts load success (which includes verification) —
  // for every parameter combination we use below.
  build(DispatchProgramParams{}, 64);
  SUCCEED();
}

TEST_F(DispatchProgTest, ProgramSizeWithinKernelLimit) {
  const auto prog = build_dispatch_program(DispatchProgramParams{});
  EXPECT_LE(prog.size(), bpf::kMaxProgramLen);
  // Straight-line rank-select dominates; sanity-check it's nontrivial.
  EXPECT_GT(prog.size(), 100u);
}

TEST_F(DispatchProgTest, EmptyBitmapFallsBack) {
  build(DispatchProgramParams{}, 8);
  set_bitmap(0, 0);
  EXPECT_EQ(run(12345), kInvalidWorker);
}

TEST_F(DispatchProgTest, SingleWorkerFallsBack) {
  // Algo. 2: "if n > 1" — one selected worker is not enough.
  build(DispatchProgramParams{}, 8);
  set_bitmap(0, 0b100);
  EXPECT_EQ(run(12345), kInvalidWorker);
}

TEST_F(DispatchProgTest, MinWorkersOneSelectsTheSingleton) {
  DispatchProgramParams p;
  p.min_workers = 1;
  build(p, 8);
  set_bitmap(0, 0b100);
  EXPECT_EQ(run(99999), 2u);
}

TEST_F(DispatchProgTest, SelectsOnlyWorkersInBitmap) {
  build(DispatchProgramParams{}, 8);
  set_bitmap(0, 0b10110);  // workers 1, 2, 4
  sim::Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    const WorkerId w = run(static_cast<uint32_t>(rng.next_u64()));
    ASSERT_TRUE(w == 1 || w == 2 || w == 4) << w;
  }
}

TEST_F(DispatchProgTest, DistributesEvenlyAmongSelected) {
  build(DispatchProgramParams{}, 8);
  set_bitmap(0, 0b01101001);  // workers 0, 3, 5, 6
  sim::Rng rng(6);
  uint64_t counts[8] = {};
  constexpr int kSamples = 40000;
  for (int i = 0; i < kSamples; ++i) {
    ++counts[run(static_cast<uint32_t>(rng.next_u64()))];
  }
  for (WorkerId w : {0u, 3u, 5u, 6u}) {
    EXPECT_NEAR(static_cast<double>(counts[w]), kSamples / 4.0,
                kSamples / 4.0 * 0.1);
  }
}

TEST_F(DispatchProgTest, DifferentialAgainstReference) {
  build(DispatchProgramParams{}, 64);
  sim::Rng rng(7);
  for (int i = 0; i < 3000; ++i) {
    const uint64_t bm = rng.next_u64() & rng.next_u64();  // sparser bitmaps
    set_bitmap(0, bm);
    const auto hash = static_cast<uint32_t>(rng.next_u64());
    const WorkerId expect = reference_dispatch(params_, &bm, hash, 0);
    ASSERT_EQ(run(hash), expect) << "bm=" << bm << " hash=" << hash;
  }
}

TEST_F(DispatchProgTest, DeterministicPerHash) {
  // Same 4-tuple hash always selects the same worker for a fixed bitmap —
  // the consistency property reuseport users rely on.
  build(DispatchProgramParams{}, 16);
  set_bitmap(0, 0xf0f0);
  const WorkerId w = run(777777);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(run(777777), w);
}

TEST_F(DispatchProgTest, MissingSocketFallsBack) {
  // Bitmap names worker 7, but its sockarray slot is empty.
  DispatchProgramParams p;
  build(p, 8);
  ASSERT_TRUE(socks_->remove(7));
  set_bitmap(0, 0b10000000 | 0b1);  // workers 0 and 7
  sim::Rng rng(8);
  int fallbacks = 0, selected0 = 0;
  for (int i = 0; i < 1000; ++i) {
    const WorkerId w = run(static_cast<uint32_t>(rng.next_u64()));
    if (w == kInvalidWorker) {
      ++fallbacks;
    } else {
      EXPECT_EQ(w, 0u);
      ++selected0;
    }
  }
  EXPECT_GT(fallbacks, 0);
  EXPECT_GT(selected0, 0);
}

// ---- two-level group mode (paper §7, Appendix C Fig. A6) ----------------

class DispatchGroupTest : public DispatchProgTest {};

TEST_F(DispatchGroupTest, GroupModeVerifies) {
  DispatchProgramParams p;
  p.num_groups = 2;
  p.workers_per_group = 64;
  build(p, 128);
  SUCCEED();
}

TEST_F(DispatchGroupTest, 128WorkersSpanGroups) {
  DispatchProgramParams p;
  p.num_groups = 2;
  p.workers_per_group = 64;
  build(p, 128);
  set_bitmap(0, ~0ull);  // all of group 0
  set_bitmap(1, ~0ull);  // all of group 1
  sim::Rng rng(9);
  bool saw_low = false, saw_high = false;
  for (int i = 0; i < 2000; ++i) {
    const auto h = static_cast<uint32_t>(rng.next_u64());
    const auto h2 = static_cast<uint32_t>(rng.next_u64());
    const WorkerId w = run(h, h2);
    ASSERT_LT(w, 128u);
    (w < 64 ? saw_low : saw_high) = true;
  }
  EXPECT_TRUE(saw_low);
  EXPECT_TRUE(saw_high);
}

TEST_F(DispatchGroupTest, LocalityHashPinsGroup) {
  // Same hash2 (same DIP/Dport) must always land in the same group even as
  // the 4-tuple hash varies — the cache-locality property of Fig. A6.
  DispatchProgramParams p;
  p.num_groups = 4;
  p.workers_per_group = 8;
  build(p, 32);
  for (uint32_t g = 0; g < 4; ++g) set_bitmap(g, 0xff);
  sim::Rng rng(10);
  for (int dest = 0; dest < 20; ++dest) {
    const auto h2 = static_cast<uint32_t>(rng.next_u64());
    const uint32_t expected_group = reciprocal_scale_u32(h2, 4);
    for (int i = 0; i < 100; ++i) {
      const WorkerId w = run(static_cast<uint32_t>(rng.next_u64()), h2);
      ASSERT_EQ(w / 8, expected_group);
    }
  }
}

TEST_F(DispatchGroupTest, DifferentialAgainstReferenceGroups) {
  DispatchProgramParams p;
  p.num_groups = 4;
  p.workers_per_group = 16;
  build(p, 64);
  sim::Rng rng(11);
  for (int i = 0; i < 2000; ++i) {
    uint64_t bms[4];
    for (auto& bm : bms) {
      bm = rng.next_u64() & rng.next_u64() & 0xffff;  // 16-wide groups
      set_bitmap(static_cast<uint32_t>(&bm - bms), bm);
    }
    const auto hash = static_cast<uint32_t>(rng.next_u64());
    const auto hash2 = static_cast<uint32_t>(rng.next_u64());
    const WorkerId expect = reference_dispatch(p, bms, hash, hash2);
    ASSERT_EQ(run(hash, hash2), expect);
  }
}

TEST_F(DispatchGroupTest, PerGroupFallbackIndependent) {
  DispatchProgramParams p;
  p.num_groups = 2;
  p.workers_per_group = 4;
  build(p, 8);
  set_bitmap(0, 0b0011);  // group 0 healthy
  set_bitmap(1, 0b0000);  // group 1 empty -> fallback
  sim::Rng rng(12);
  int fallback = 0, dispatched = 0;
  for (int i = 0; i < 4000; ++i) {
    const auto h2 = static_cast<uint32_t>(rng.next_u64());
    const WorkerId w = run(static_cast<uint32_t>(rng.next_u64()), h2);
    const uint32_t group = reciprocal_scale_u32(h2, 2);
    if (group == 0) {
      ASSERT_TRUE(w == 0 || w == 1);
      ++dispatched;
    } else {
      ASSERT_EQ(w, kInvalidWorker);
      ++fallback;
    }
  }
  EXPECT_GT(fallback, 1000);
  EXPECT_GT(dispatched, 1000);
}

// Reference implementation sanity: dispatch spread matches reciprocal_scale.
TEST(ReferenceDispatchTest, RankMath) {
  DispatchProgramParams p;
  const uint64_t bm = 0b10110;  // workers 1, 2, 4; n = 3
  // hash = 0 -> nth = 1 -> first set bit -> worker 1
  EXPECT_EQ(reference_dispatch(p, &bm, 0, 0), 1u);
  // hash = max -> nth = 3 -> worker 4
  EXPECT_EQ(reference_dispatch(p, &bm, 0xffffffffu, 0), 4u);
}

}  // namespace
}  // namespace hermes::core
