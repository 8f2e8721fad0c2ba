// Verifier spill/fill tracking: pointers may round-trip through aligned
// 64-bit stack slots (the kernel's rule), partial writes invalidate them,
// and branch merges meet slot states conservatively.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "bpf/analysis/interp.h"
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
  analysis::AnalysisResult analyze_prog(Program p) {
    return analysis::analyze(p, maps_);
  }

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

// ---- stack cells the program has not touched ----
//
// The analyzer tracks only the cells a program has written; every other
// cell reads as the VM's zeroed stack. These cases pin the edges of that
// representation at the deepest slot (fp-512) with exact verdicts and
// ranges.

TEST_F(SpillTest, NeverWrittenDeepestSlotLoadsZero) {
  for (const bool wide : {false, true}) {
    Assembler a;
    if (wide) {
      a.ldx_dw(r0, r10, -512);
    } else {
      a.ldx_w(r0, r10, -512);
    }
    a.exit();
    const auto res = analyze_prog(a.finish());
    ASSERT_TRUE(res) << res.error;
    EXPECT_EQ(analysis::to_string(res.ret), "const 0") << "wide=" << wide;
  }
}

TEST_F(SpillTest, PointerSpilledAtDeepestSlotRoundTrips) {
  Assembler a;
  a.mov(r2, r10);
  a.add(r2, -16);
  a.stx_dw(r10, -512, r2);  // spill into the deepest aligned pair
  a.mov(r2, 0);
  a.ldx_dw(r3, r10, -512);  // fill: PtrStack(-16) again
  a.st_w(r3, 0, 42);
  a.ldx_w(r0, r10, -16);
  a.exit();
  const auto res = analyze_prog(a.finish());
  ASSERT_TRUE(res) << res.error;
  EXPECT_EQ(analysis::to_string(res.ret), "const 42 (0x2a)");
}

TEST_F(SpillTest, JoinWithUntouchedDeepSlotDegradesIt) {
  // One path spills a pointer at fp-512; the other never touches it, so
  // its cells are the implicit zeroes. The join must degrade the pair:
  // the fill is an unknown scalar and dereferencing it is rejected.
  Assembler a;
  a.call(HelperId::GetPrandomU32);
  a.mov(r2, r10);
  a.add(r2, -16);
  a.jeq(r0, 0, "join");
  a.stx_dw(r10, -512, r2);
  a.label("join");
  a.ldx_dw(r3, r10, -512);
  a.st_w(r3, 0, 1);
  a.mov(r0, 0);
  a.exit();
  const auto res = analyze_prog(a.finish());
  EXPECT_FALSE(res);
  EXPECT_EQ(res.error, "memory access via non-pointer");
  EXPECT_EQ(res.error_pc, 6u);
  EXPECT_EQ(res.error_state,
            "r0 = scalar{u[0,4294967295] s[0,4294967295] "
            "tnum(v=0x0,m=0xffffffff)}\n"
            "r2 = fp-16\n"
            "r3 = scalar{u[0,18446744073709551615] "
            "s[-9223372036854775808,9223372036854775807] "
            "tnum(v=0x0,m=0xffffffffffffffff)}\n"
            "r10 = fp+0\n");
}

TEST_F(SpillTest, VariableOffsetStoreClobbersUntouchedCells) {
  // st_dw through fp-512 + [0, 56] (multiples of 8) may write any byte of
  // fp-512 .. fp-449: every cell of that span becomes unknown; the first
  // cell past it keeps its zero.
  const std::string unknown32 =
      "u[0,4294967295] s[0,4294967295] tnum(v=0x0,m=0xffffffff)";
  const struct {
    int32_t off;
    std::string ret;
  } kProbes[] = {{-512, unknown32}, {-480, unknown32}, {-452, unknown32},
                 {-448, "const 0"}, {-8, "const 0"}};
  for (const auto& [probe, want] : kProbes) {
    Assembler a;
    a.call(HelperId::GetPrandomU32);
    a.and_(r0, 0x38);
    a.mov(r2, r10);
    a.add(r2, -512);
    a.add(r2, r0);
    a.st_dw(r2, 0, 7);
    a.ldx_w(r0, r10, probe);
    a.exit();
    const auto res = analyze_prog(a.finish());
    ASSERT_TRUE(res) << res.error;
    EXPECT_EQ(analysis::to_string(res.ret), want) << "fp" << probe;
  }
}

TEST_F(SpillTest, StoreToUntouchedSlotIsLoopProgress) {
  // The header state has never touched fp-8; the first trip's back edge
  // stores 7 there, which the implicit zero does not cover, so the
  // fixpoint is found on the second trip, not the first.
  Assembler a;
  a.mov(r0, 0);
  a.label("top");
  a.st_w(r10, -8, 7);
  a.jeq(r0, 0, "top");
  a.exit();
  const auto res = analyze_prog(a.finish());
  EXPECT_FALSE(res);
  EXPECT_EQ(res.error,
            "backward edge: loop makes no abstract progress toward exit "
            "(fixpoint at the header)");
  EXPECT_EQ(res.error_pc, 1u);
  EXPECT_EQ(res.analysis_steps, 5u);  // pc 0, then two trips of pcs 1-2
  EXPECT_EQ(res.error_state, "r0 = scalar{const 0}\nr1 = ctx+0\nr10 = fp+0\n");
}

TEST_F(SpillTest, JoinThatBreaksASpillPairDegradesBothHalves) {
  // Trip 1 reaches the back edge twice: once with a scalar spilled to
  // fp-8, once with a stack pointer. The join keeps neither spill: the low
  // cell becomes unknown data, and merge_into must degrade the high cell
  // (fp-4) it orphaned to unknown data too. Trip 2 stores 7 at fp-4, which
  // that unknown header cell covers, so cell_subsumes finds the fixpoint
  // on trip 2. A header that kept the orphaned SpillHi would not cover
  // the data cell, and the analysis would run into the trip bound instead.
  Assembler a;
  a.call(HelperId::GetPrandomU32);
  a.mov(r8, r0);
  a.mov(r6, 0);
  a.label("top");
  a.jne(r6, 0, "second");
  a.mov(r6, 1);
  a.jgt(r8, 10, "spill_ptr");
  a.mov(r0, 5);
  a.stx_dw(r10, -8, r0);
  a.ja("top");
  a.label("spill_ptr");
  a.stx_dw(r10, -8, r10);
  a.ja("top");
  a.label("second");
  a.st_w(r10, -4, 7);
  a.jeq(r8, 3, "out");
  a.ja("top");
  a.label("out");
  a.mov(r0, 0);
  a.exit();
  analysis::AnalysisOptions opts;
  opts.max_trip_count = 2;
  const auto res = analysis::analyze(a.finish(), maps_, opts);
  EXPECT_FALSE(res);
  EXPECT_EQ(res.error,
            "backward edge: loop makes no abstract progress toward exit "
            "(fixpoint at the header)");
  EXPECT_EQ(res.error_pc, 3u);
}

TEST_F(SpillTest, LoopWritingOneSlotDeeperPerTripIsAccepted) {
  // Each trip stores one slot deeper, down to fp-512: the tracked span
  // grows with the iteration count.
  Assembler a;
  a.mov(r6, r10);
  a.mov(r7, 0);
  a.label("top");
  a.st_dw(r6, -8, 1);
  a.add(r6, -8);
  a.add(r7, 1);
  a.jlt(r7, 64, "top");
  a.ldx_dw(r0, r10, -512);
  a.exit();
  const auto res = analyze_prog(a.finish());
  ASSERT_TRUE(res) << res.error;
  EXPECT_EQ(res.max_loop_trips, 64u);
  EXPECT_EQ(analysis::to_string(res.ret), "const 1");
}

}  // namespace
}  // namespace hermes::bpf
