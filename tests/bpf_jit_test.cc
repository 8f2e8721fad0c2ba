// Tier-3 JIT unit tests (src/bpf/jit/): branch-fixup edge cases (backward
// edges, jumps landing on fused-superinstruction boundaries, rel32 targets
// far beyond jcc-rel8 range), the W^X code-buffer lifecycle across
// load/attach/detach/reload, codegen-refusal fallback to tier 2, and the
// negative guarantee that verifier-rejected programs never reach codegen.
//
// Every behavioural test runs differentially: tier 3 must be bit-identical
// to tier 2 and to the independent reference interpreter. On hosts where
// the JIT is unavailable (non-x86-64, HERMES_BPF_JIT=off) a tier-3 request
// compiles down to tier 2; the tests then assert the fallback contract
// instead of skipping.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bpf/assembler.h"
#include "bpf/insn.h"
#include "bpf/jit/jit.h"
#include "bpf/maps.h"
#include "bpf/plan.h"
#include "bpf/vm.h"
#include "bpf_tiers.h"
#include "netsim/four_tuple.h"
#include "netsim/listening_socket.h"
#include "netsim/reuseport.h"
#include "testing/ref_interpreter.h"

namespace hermes::bpf {
namespace {

// Tier a Jit request actually lands on for this host.
ExecTier expected_tier(ExecTier requested) {
  if (requested == ExecTier::Jit && !jit::available()) return ExecTier::Elide;
  return requested;
}

struct Loaded {
  Vm vm;
  std::unique_ptr<LoadedProgram> prog;
};

Loaded load_at(const Program& p, ExecTier tier, std::vector<Map*> maps = {}) {
  Loaded l;
  l.vm.set_tier(tier);
  std::string err;
  l.prog = l.vm.load(p, std::move(maps), &err);
  EXPECT_NE(l.prog, nullptr) << err;
  return l;
}

// Run `p` at every tier and against the reference interpreter; all
// executions must agree on r0 and the executed-instruction count.
void expect_all_tiers_agree(const Program& p, uint32_t ctx_hash = 0) {
  ReuseportCtx ref_ctx;
  ref_ctx.hash = ctx_hash;
  const RefResult ref = ref_run(p, {}, ref_ctx);
  ASSERT_FALSE(ref.trapped) << ref.trap;

  for (ExecTier tier : kTiers) {
    auto l = load_at(p, tier);
    ASSERT_NE(l.prog, nullptr);
    EXPECT_EQ(l.prog->tier(), expected_tier(tier));
    ReuseportCtx ctx;
    ctx.hash = ctx_hash;
    const auto run = l.vm.run(*l.prog, ctx);
    EXPECT_EQ(run.ret, ref.ret) << to_string(tier);
    EXPECT_EQ(run.insns_executed, ref.insns_executed) << to_string(tier);
    EXPECT_EQ(run.tier, expected_tier(tier)) << to_string(tier);
  }
}

// The 19-insn branch-free popcount sequence core/dispatch_prog.cc emits
// (d = popcount(s), clobbering s and c); the plan compiler fuses it into
// one superinstruction. `mid` optionally binds a label on the second
// instruction, which must block fusion.
void emit_popcount(Assembler& a, R d, R s, R c, const char* mid = nullptr) {
  a.mov(d, s);
  if (mid != nullptr) a.label(mid);
  a.rsh(d, 1);
  a.ld_imm64(c, 0x5555555555555555ull);
  a.and_(d, c);
  a.sub(s, d);
  a.mov(d, s);
  a.rsh(d, 2);
  a.ld_imm64(c, 0x3333333333333333ull);
  a.and_(d, c);
  a.and_(s, c);
  a.add(d, s);
  a.mov(s, d);
  a.rsh(s, 4);
  a.add(d, s);
  a.ld_imm64(c, 0x0f0f0f0f0f0f0f0full);
  a.and_(d, c);
  a.ld_imm64(c, 0x0101010101010101ull);
  a.mul(d, c);
  a.rsh(d, 56);
}

// A minimal reuseport program: select the socket in slot `slot` of the
// sock-array at map index 0, return kRetUseSelection on success.
Program select_slot_program(int32_t slot) {
  Assembler a;
  a.mov(r6, r1);            // save ctx
  a.st_w(r10, -4, slot);    // key on the stack
  a.mov(r1, r6);
  a.ld_map_fd(r2, 0);
  a.mov(r3, r10);
  a.add(r3, -4);
  a.mov(r4, 0);
  a.call(HelperId::SkSelectReuseport);
  a.jne(r0, 0, "fallback");
  a.mov(r0, static_cast<int64_t>(kRetUseSelection));
  a.exit();
  a.label("fallback");
  a.mov(r0, static_cast<int64_t>(kRetFallback));
  a.exit();
  return a.finish();
}

// ---- branch fixups ----------------------------------------------------

TEST(BpfJit, BackwardBranchLoopMatchesAllTiers) {
  // Counted loop (the shape the verifier's per-iteration analysis accepts):
  // the jlt back-edge is a backward branch in the emitted code, so the JIT
  // must resolve its rel32 immediately and re-check the instruction budget
  // on every taken iteration.
  Assembler a;
  a.mov(r0, 0);
  a.mov(r3, 7);
  a.mov(r5, 0);
  a.label("top");
  a.add(r0, r3);
  a.add(r0, r5);
  a.add(r5, 1);
  a.jlt(r5, 8, "top");
  a.exit();
  expect_all_tiers_agree(a.finish());
}

TEST(BpfJit, JumpLandingOnFusedBoundaryKeepsFusion) {
  // A branch targeting the popcount sequence's FIRST instruction: a fused
  // segment may start at a jump target, so fusion survives and the JIT's
  // fixup must land on the superinstruction's code offset.
  Assembler a;
  a.ld_imm64(r1, 0x00ff00ff00ff00ffull);
  a.mov(r3, 0);
  a.jeq(r3, 0, "pc");        // always taken, lands on the segment head
  a.mov(r1, 0);              // skipped
  a.label("pc");
  emit_popcount(a, r0, r1, r2);
  a.exit();
  const Program p = a.finish();

  auto l = load_at(p, ExecTier::Jit);
  ASSERT_NE(l.prog->plan(), nullptr);
  EXPECT_EQ(l.prog->plan()->stats().fused_popcount, 1u);
  expect_all_tiers_agree(p);
}

TEST(BpfJit, JumpIntoFusedSegmentSuppressesFusionAndAgrees) {
  // A never-taken branch targeting the sequence's SECOND instruction:
  // fusion must be suppressed (the target would vanish inside the
  // superinstruction) and the JIT compiles the 1:1 micro-ops instead.
  Assembler a;
  a.mov(r0, 0);
  a.mov(r1, 0xffll);
  a.jeq(r1, 0, "mid");       // never taken; lands mid-sequence
  emit_popcount(a, r0, r1, r2, "mid");
  a.exit();
  const Program p = a.finish();

  auto l = load_at(p, ExecTier::Jit);
  ASSERT_NE(l.prog->plan(), nullptr);
  EXPECT_EQ(l.prog->plan()->stats().fused_popcount, 0u);
  expect_all_tiers_agree(p);
}

TEST(BpfJit, LongForwardBranchNeedsRel32) {
  // The not-taken arm is ~600 ALU instructions (~2.4KB of emitted code),
  // far past jcc-rel8 range: the forward fixup must patch a rel32. Run
  // both arms (hash chosen so the branch is taken and not taken).
  Assembler a;
  a.ldx_w(r2, r1, 16);       // ctx.hash — data-dependent branch
  a.mov(r3, 0);
  a.jeq(r2, 0x5a5a5a5all, "far");
  for (int i = 0; i < 600; ++i) a.add(r3, 1);
  a.label("far");
  a.mov(r0, r3);
  a.exit();
  const Program p = a.finish();

  expect_all_tiers_agree(p, /*ctx_hash=*/0);           // falls through
  expect_all_tiers_agree(p, /*ctx_hash=*/0x5a5a5a5a);  // takes the branch
}

// ---- W^X buffer lifecycle ---------------------------------------------

TEST(BpfJit, WxLifecycleAcrossLoadAttachDetachReload) {
  constexpr uint32_t kSocks = 4;
  ReuseportSockArray socks(kSocks);

  netsim::ReuseportGroup group(80);
  std::vector<std::unique_ptr<netsim::ListeningSocket>> ls;
  for (WorkerId w = 0; w < kSocks; ++w) {
    ls.push_back(std::make_unique<netsim::ListeningSocket>(80, 16, w));
    group.add_socket(ls.back().get());
    socks.update(w, ls.back()->cookie());
  }

  Vm vm;
  vm.set_tier(ExecTier::Jit);
  std::string err;
  auto prog0 = vm.load(select_slot_program(0), {&socks}, &err);
  ASSERT_NE(prog0, nullptr) << err;
  EXPECT_EQ(prog0->tier(), expected_tier(ExecTier::Jit));
  if (jit::available()) {
    ASSERT_NE(prog0->plan()->jit_code(), nullptr);
    EXPECT_GT(prog0->plan()->jit_code()->code_bytes(), 0u);
  } else {
    EXPECT_EQ(prog0->plan()->jit_code(), nullptr);
  }

  const netsim::FourTuple t{0xc0a80001u, 0x0a000001u, 40000, 80};
  // Attach/detach cycles: the native buffer is owned by the LoadedProgram,
  // so reattaching must reuse it, never recompile or unmap.
  for (int round = 0; round < 3; ++round) {
    group.attach_program(&vm, prog0.get());
    EXPECT_EQ(group.select(t), ls[0].get()) << "round " << round;
    group.detach_program();
    EXPECT_FALSE(group.has_program());
  }

  // A second JIT'd program coexists with the first (two live RX mappings).
  auto prog1 = vm.load(select_slot_program(1), {&socks}, &err);
  ASSERT_NE(prog1, nullptr) << err;
  group.attach_program(&vm, prog1.get());
  EXPECT_EQ(group.select(t), ls[1].get());

  // Destroying the first program unmaps its buffer; the second must keep
  // executing from its own mapping afterwards.
  prog0.reset();
  EXPECT_EQ(group.select(t), ls[1].get());
  group.detach_program();

  EXPECT_EQ(group.stats().bpf_selections, 5u);
  EXPECT_EQ(group.stats().bpf_fallbacks, 0u);
}

// ---- fallback paths ----------------------------------------------------

TEST(BpfJit, AllocFailureFallsBackToTier2) {
  jit::testing::force_alloc_failure(true);
  Assembler a;
  a.mov(r0, 0x1234);
  a.exit();
  const Program p = a.finish();

  Vm vm;
  vm.set_tier(ExecTier::Jit);
  std::string err;
  auto prog = vm.load(p, {}, &err);
  jit::testing::force_alloc_failure(false);
  ASSERT_NE(prog, nullptr) << err;

  // Never a silent downgrade: actual tier, counter, and reason all say so.
  EXPECT_EQ(prog->tier(), ExecTier::Elide);
  ASSERT_NE(prog->plan(), nullptr);
  EXPECT_EQ(prog->plan()->jit_code(), nullptr);
  EXPECT_EQ(vm.jit_fallbacks(), 1u);
  EXPECT_FALSE(vm.jit_fallback_reason().empty());
  if (jit::available()) {
    EXPECT_NE(vm.jit_fallback_reason().find("mmap"), std::string::npos)
        << vm.jit_fallback_reason();
  }

  // The fallback plan still runs correctly, reporting its real tier.
  ReuseportCtx ctx;
  const auto run = vm.run(*prog, ctx);
  EXPECT_EQ(run.ret, 0x1234u);
  EXPECT_EQ(run.tier, ExecTier::Elide);

  // With the hook cleared, a fresh load at tier 3 recovers (on JIT hosts).
  auto prog2 = vm.load(p, {}, &err);
  ASSERT_NE(prog2, nullptr) << err;
  EXPECT_EQ(prog2->tier(), expected_tier(ExecTier::Jit));
  EXPECT_EQ(vm.jit_fallbacks(), jit::available() ? 1u : 2u);
}

TEST(BpfJit, EnvVarDisablesJit) {
  ::setenv("HERMES_BPF_JIT", "off", 1);
  EXPECT_FALSE(jit::available());

  Assembler a;
  a.mov(r0, 7);
  a.exit();
  auto l = load_at(a.finish(), ExecTier::Jit);
  EXPECT_EQ(l.prog->tier(), ExecTier::Elide);
  EXPECT_EQ(l.vm.jit_fallbacks(), 1u);
#if defined(__x86_64__)
  // On other hosts the architecture reason wins; the env reason is
  // specific to x86-64 builds.
  EXPECT_NE(l.vm.jit_fallback_reason().find("HERMES_BPF_JIT"),
            std::string::npos)
      << l.vm.jit_fallback_reason();
#endif
  ReuseportCtx ctx;
  EXPECT_EQ(l.vm.run(*l.prog, ctx).ret, 7u);

  ::unsetenv("HERMES_BPF_JIT");
}

TEST(BpfJit, VerifierRejectedProgramNeverReachesCodegen) {
  // r2 is uninitialized at entry: the verifier rejects the program, so
  // load() must fail BEFORE plan compilation — the codegen attempt counter
  // cannot move.
  Assembler a;
  a.mov(r0, r2);
  a.exit();
  const Program bad = a.finish();

  const uint64_t attempts_before = jit::compile_attempts();
  Vm vm;
  vm.set_tier(ExecTier::Jit);
  std::string err;
  auto prog = vm.load(bad, {}, &err);
  EXPECT_EQ(prog, nullptr);
  EXPECT_FALSE(err.empty());
  EXPECT_EQ(jit::compile_attempts(), attempts_before);
  EXPECT_EQ(vm.jit_fallbacks(), 0u);  // rejection is not a fallback

  // A valid tier-3 load afterwards does reach codegen exactly once.
  Assembler ok;
  ok.mov(r0, 1);
  ok.exit();
  auto good = vm.load(ok.finish(), {}, &err);
  ASSERT_NE(good, nullptr) << err;
  EXPECT_EQ(jit::compile_attempts(), attempts_before + 1);
}

// ---- counter invariance ------------------------------------------------

TEST(BpfJit, CountersAreTierInvariant) {
  // Fused superinstructions and elided checks must be charged identically
  // by the native code and the threaded plans.
  Assembler a;
  a.ldx_w(r3, r1, 16);       // ctx.hash (elidable)
  a.stx_dw(r10, -8, r3);     // stack spill (elidable)
  a.ldx_dw(r4, r10, -8);     // stack reload (elidable)
  a.ld_imm64(r1, 0x00ff00ff00ff00ffull);
  emit_popcount(a, r0, r1, r2);
  a.add(r0, r4);
  a.exit();
  const Program p = a.finish();

  // The no-facts plan keeps every check.
  const auto checked = compile_plan(p, {}, nullptr, ExecTier::Elide);
  ReuseportCtx checked_ctx;
  checked_ctx.hash = 5;
  const auto base = checked->execute(checked_ctx, {}, {});
  EXPECT_EQ(base.ret, 32u + 5u);
  EXPECT_EQ(base.fused_hits, 1u);
  EXPECT_EQ(base.elided_checks, 0u);

  for (ExecTier tier : kTiers) {
    auto l = load_at(p, tier);
    ReuseportCtx ctx;
    ctx.hash = 5;
    const auto res = l.vm.run(*l.prog, ctx);
    EXPECT_EQ(res.ret, 32u + 5u) << to_string(tier);
    EXPECT_EQ(res.insns_executed, base.insns_executed) << to_string(tier);
    EXPECT_EQ(res.fused_hits, 1u) << to_string(tier);
    // The JIT charges the same elisions as Elide.
    EXPECT_EQ(res.elided_checks, 3u) << to_string(tier);
  }
}

}  // namespace
}  // namespace hermes::bpf
