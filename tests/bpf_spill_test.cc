// Verifier spill/fill tracking: pointers may round-trip through aligned
// 64-bit stack slots (the kernel's rule), partial writes invalidate them,
// and branch merges meet slot states conservatively.
#include <gtest/gtest.h>

#include <memory>

#include "bpf/assembler.h"
#include "bpf/maps.h"
#include "bpf/vm.h"
#include "bpf_tiers.h"

namespace hermes::bpf {
namespace {

class SpillTest : public ::testing::Test {
 protected:
  SpillTest()
      : array_(std::make_unique<ArrayMap>(1, 8)),
        socks_(std::make_unique<ReuseportSockArray>(4)) {
    maps_ = {array_.get(), socks_.get()};
  }

  VerifyResult verify_prog(Program p) { return verify(p, maps_); }

  std::unique_ptr<ArrayMap> array_;
  std::unique_ptr<ReuseportSockArray> socks_;
  std::vector<Map*> maps_;
};

TEST_F(SpillTest, SpillAndFillStackPointer) {
  // Spill a derived stack pointer, restore it, and use it for a store.
  Assembler a;
  a.mov(r2, r10);
  a.add(r2, -16);
  a.stx_dw(r10, -8, r2);   // spill r2
  a.mov(r2, 0);            // clobber the register
  a.ldx_dw(r3, r10, -8);   // fill into r3: restored PtrStack(-16)
  a.st_w(r3, 0, 42);       // store through the restored pointer
  a.ldx_w(r0, r10, -16);   // read it back
  a.exit();
  const auto res = verify_prog(a.finish());
  EXPECT_TRUE(res) << res.error;

  // And it runs at every tier: the value written through the restored
  // pointer is read.
  Assembler b;
  b.mov(r2, r10);
  b.add(r2, -16);
  b.stx_dw(r10, -8, r2);
  b.mov(r2, 0);
  b.ldx_dw(r3, r10, -8);
  b.st_w(r3, 0, 42);
  b.ldx_w(r0, r10, -16);
  b.exit();
  const Program p = b.finish();
  for_each_tier([&](Vm& vm) {
    std::string err;
    auto prog = vm.load(p, maps_, &err);
    ASSERT_NE(prog, nullptr) << err;
    ReuseportCtx ctx;
    EXPECT_EQ(vm.run(*prog, ctx).ret, 42u);
  });
}

TEST_F(SpillTest, SpilledMapValuePointerUsableAfterFill) {
  Assembler a;
  a.st_w(r10, -4, 0);
  a.ld_map_fd(r1, 0);
  a.mov(r2, r10);
  a.add(r2, -4);
  a.call(HelperId::MapLookupElem);
  a.jeq(r0, 0, "miss");
  a.stx_dw(r10, -16, r0);  // spill the (non-null) map value pointer
  a.mov(r0, 0);
  a.ldx_dw(r4, r10, -16);  // fill
  a.ldx_dw(r0, r4, 0);     // deref the restored pointer
  a.exit();
  a.label("miss");
  a.mov(r0, 0);
  a.exit();
  const auto res = verify_prog(a.finish());
  EXPECT_TRUE(res) << res.error;
}

TEST_F(SpillTest, MisalignedPointerSpillRejected) {
  Assembler a;
  a.mov(r2, r10);
  a.stx_dw(r10, -12, r2);  // not 8-aligned
  a.mov(r0, 0);
  a.exit();
  const auto res = verify_prog(a.finish());
  EXPECT_FALSE(res);
  EXPECT_NE(res.error.find("spill"), std::string::npos);
}

TEST_F(SpillTest, NarrowPointerStoreRejected) {
  Assembler a;
  a.mov(r2, r10);
  a.stx_w(r10, -8, r2);  // 32-bit store of a pointer
  a.mov(r0, 0);
  a.exit();
  EXPECT_FALSE(verify_prog(a.finish()));
}

TEST_F(SpillTest, PointerSpillToMapValueRejected) {
  // Pointers may spill to the stack only — never leak into map memory.
  Assembler a;
  a.st_w(r10, -4, 0);
  a.ld_map_fd(r1, 0);
  a.mov(r2, r10);
  a.add(r2, -4);
  a.call(HelperId::MapLookupElem);
  a.jeq(r0, 0, "miss");
  a.mov(r2, r10);
  a.stx_dw(r0, 0, r2);  // write a stack pointer into the map value
  a.label("miss");
  a.mov(r0, 0);
  a.exit();
  EXPECT_FALSE(verify_prog(a.finish()));
}

TEST_F(SpillTest, PartialOverwriteInvalidatesSpill) {
  Assembler a;
  a.mov(r2, r10);
  a.stx_dw(r10, -8, r2);   // spill pointer
  a.st_w(r10, -8, 7);      // partially overwrite the slot with data
  a.ldx_dw(r3, r10, -8);   // fill: now just a scalar
  a.ldx_w(r0, r3, 0);      // deref -> must be rejected
  a.exit();
  const auto res = verify_prog(a.finish());
  EXPECT_FALSE(res);
  EXPECT_NE(res.error.find("non-pointer"), std::string::npos);
}

TEST_F(SpillTest, BranchMergeDegradesMismatchedSlots) {
  // One path spills a pointer, the other spills a scalar into the same
  // slot; after the merge the fill is a scalar and cannot be dereferenced.
  Assembler a;
  a.ldx_w(r3, r1, kCtxOffHash);
  a.mov(r2, r10);
  a.jeq(r3, 0, "scalar_path");
  a.stx_dw(r10, -8, r2);   // spill pointer
  a.ja("join");
  a.label("scalar_path");
  a.mov(r4, 7);
  a.stx_dw(r10, -8, r4);   // spill scalar
  a.label("join");
  a.ldx_dw(r5, r10, -8);
  a.ldx_w(r0, r5, -4);     // deref merged slot -> rejected
  a.exit();
  EXPECT_FALSE(verify_prog(a.finish()));
}

TEST_F(SpillTest, PlainDataSlotsStillReadAsScalars) {
  // Regression guard: ordinary data stores keep working as before.
  Assembler a;
  a.mov(r2, 99);
  a.stx_dw(r10, -8, r2);
  a.ldx_dw(r0, r10, -8);
  a.exit();
  const auto res = verify_prog(a.finish());
  EXPECT_TRUE(res) << res.error;
}

}  // namespace
}  // namespace hermes::bpf
