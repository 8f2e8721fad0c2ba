// Direct-threaded micro-op interpreter for ExecutionPlan (see plan.h).
//
// Dispatch is computed goto on GCC/Clang (one indirect branch per
// micro-op, no bounds re-check, no per-op decode) with a portable switch
// fallback. Handler bodies are shared between both modes via the
// OPC/OPX/NEXT/JUMP macros. Semantics per handler mirror the reference
// interpreter (testing/ref_interpreter.h) instruction for instruction;
// fused handlers reproduce the exact final register state and instruction
// count of the sequences they replace.
#include <cstring>

#include "bpf/jit/jit.h"
#include "bpf/plan.h"
#include "util/check.h"

namespace hermes::bpf {

namespace {

bool in_region(const MemRegion& r, const uint8_t* p, size_t n) {
  return p >= r.base && p + n <= r.base + r.size;
}

}  // namespace

// Keep the micro-op order here in sync with Op (insn.h); the dispatch
// table below indexes by raw code.
static_assert(static_cast<uint16_t>(Op::Neg) == 22);
static_assert(static_cast<uint16_t>(Op::LdImm64) == 50);
static_assert(static_cast<uint16_t>(Op::LdxB) == 52);
static_assert(static_cast<uint16_t>(Op::Ja) == 64);
static_assert(static_cast<uint16_t>(Op::Exit) == 88);
static_assert(kOpCount == 89);
static_assert(kUopCodeCount == kOpCount + 24);

#if defined(__GNUC__) || defined(__clang__)
#define HERMES_THREADED_DISPATCH 1
#else
#define HERMES_THREADED_DISPATCH 0
#endif

ExecutionPlan::ExecResult ExecutionPlan::execute(
    ReuseportCtx& ctx, const std::function<uint64_t()>& time_fn,
    const std::function<uint32_t()>& rand_fn) const {
  if (jit_ != nullptr) {
    return jit_->run(ctx, map_regions_, time_fn, rand_fn);
  }
  alignas(8) uint8_t stack[kStackSize] = {};
  uint64_t regs[kNumRegs] = {};
  regs[1] = reinterpret_cast<uint64_t>(&ctx);
  regs[10] = reinterpret_cast<uint64_t>(stack + kStackSize);

  const MemRegion stack_region{stack, kStackSize};
  const MemRegion ctx_region{reinterpret_cast<uint8_t*>(&ctx),
                             kCtxReadableBytes};
  auto check_access = [&](uint64_t addr, size_t n) -> uint8_t* {
    auto* p = reinterpret_cast<uint8_t*>(addr);
    if (in_region(stack_region, p, n)) return p;
    if (in_region(ctx_region, p, n)) return p;
    for (const auto& r : map_regions_) {
      if (in_region(r, p, n)) return p;
    }
    HERMES_CHECK_MSG(false, "bpf vm: runtime memory access violation");
  };

  uint64_t insns = 0;
  uint32_t fused = 0;
  uint32_t elided = 0;
  const MicroOp* const base = ops_.data();
  const MicroOp* ip = base;

// Handler-body plumbing, shared by both dispatch modes. D/S are the dst/src
// registers of the current micro-op; UIMM/SIMM its immediate, unsigned and
// signed.
#define D regs[ip->dst]
#define S regs[ip->src]
#define UIMM static_cast<uint64_t>(ip->imm)
#define SIMM (ip->imm)
#define CHECK_BUDGET()                                  \
  HERMES_CHECK_MSG(insns < kMaxInsnsExecuted,           \
                   "bpf vm: instruction budget exceeded")

#if HERMES_THREADED_DISPATCH
#define OPC(name) lbl_##name:
#define OPX(name) lbl_##name:
#define NEXT                 \
  do {                       \
    ++ip;                    \
    goto *kLabels[ip->code]; \
  } while (0)
#define JUMP(t)              \
  do {                       \
    CHECK_BUDGET();          \
    ip = base + (t);         \
    goto *kLabels[ip->code]; \
  } while (0)

#define LBL(name) &&lbl_##name,
  // Must list every code in numeric order: first the Op range, then UExt.
  static const void* const kLabels[] = {
      LBL(AddReg) LBL(AddImm) LBL(SubReg) LBL(SubImm)
      LBL(MulReg) LBL(MulImm) LBL(DivReg) LBL(DivImm)
      LBL(ModReg) LBL(ModImm) LBL(AndReg) LBL(AndImm)
      LBL(OrReg) LBL(OrImm) LBL(XorReg) LBL(XorImm)
      LBL(LshReg) LBL(LshImm) LBL(RshReg) LBL(RshImm)
      LBL(ArshReg) LBL(ArshImm) LBL(Neg)
      LBL(MovReg) LBL(MovImm)
      LBL(Add32Reg) LBL(Add32Imm) LBL(Sub32Reg) LBL(Sub32Imm)
      LBL(Mul32Reg) LBL(Mul32Imm) LBL(Div32Reg) LBL(Div32Imm)
      LBL(Mod32Reg) LBL(Mod32Imm) LBL(And32Reg) LBL(And32Imm)
      LBL(Or32Reg) LBL(Or32Imm) LBL(Xor32Reg) LBL(Xor32Imm)
      LBL(Lsh32Reg) LBL(Lsh32Imm) LBL(Rsh32Reg) LBL(Rsh32Imm)
      LBL(Arsh32Reg) LBL(Arsh32Imm) LBL(Neg32)
      LBL(Mov32Reg) LBL(Mov32Imm)
      LBL(LdImm64) LBL(LdMapFd)
      LBL(LdxB) LBL(LdxH) LBL(LdxW) LBL(LdxDW)
      LBL(StxB) LBL(StxH) LBL(StxW) LBL(StxDW)
      LBL(StB) LBL(StH) LBL(StW) LBL(StDW)
      LBL(Ja)
      LBL(JeqReg) LBL(JeqImm) LBL(JneReg) LBL(JneImm)
      LBL(JgtReg) LBL(JgtImm) LBL(JgeReg) LBL(JgeImm)
      LBL(JltReg) LBL(JltImm) LBL(JleReg) LBL(JleImm)
      LBL(JsgtReg) LBL(JsgtImm) LBL(JsgeReg) LBL(JsgeImm)
      LBL(JsltReg) LBL(JsltImm) LBL(JsleReg) LBL(JsleImm)
      LBL(JsetReg) LBL(JsetImm)
      LBL(Call) LBL(Exit)
      LBL(ULdMapPtr) LBL(UPopcount) LBL(UBlsr) LBL(UIsolateLow)
      LBL(ULdxBNC) LBL(ULdxHNC) LBL(ULdxWNC) LBL(ULdxDWNC)
      LBL(UStxBNC) LBL(UStxHNC) LBL(UStxWNC) LBL(UStxDWNC)
      LBL(UStBNC) LBL(UStHNC) LBL(UStWNC) LBL(UStDWNC)
      LBL(UCallLookup) LBL(UCallLookupNC)
      LBL(UCallUpdate) LBL(UCallUpdateNC)
      LBL(UCallSelect) LBL(UCallSelectNC)
      LBL(UCallTime) LBL(UCallRand)
  };
#undef LBL
  static_assert(sizeof(kLabels) / sizeof(kLabels[0]) == kUopCodeCount);

  goto *kLabels[ip->code];

#else  // switch fallback

#define OPC(name) case static_cast<uint16_t>(Op::name):
#define OPX(name) case static_cast<uint16_t>(UExt::name):
#define NEXT          \
  do {                \
    ++ip;             \
    goto dispatch;    \
  } while (0)
#define JUMP(t)       \
  do {                \
    CHECK_BUDGET();   \
    ip = base + (t);  \
    goto dispatch;    \
  } while (0)

dispatch:
  switch (ip->code) {
#endif

#define ALU(name, stmt) \
  OPC(name) {           \
    stmt;               \
    ++insns;            \
    NEXT;               \
  }

  ALU(AddReg, D += S)
  ALU(AddImm, D += UIMM)
  ALU(SubReg, D -= S)
  ALU(SubImm, D -= UIMM)
  ALU(MulReg, D *= S)
  ALU(MulImm, D *= UIMM)
  ALU(DivReg, D = S ? D / S : 0)
  ALU(DivImm, D = UIMM ? D / UIMM : 0)
  ALU(ModReg, D = S ? D % S : D)
  ALU(ModImm, D = UIMM ? D % UIMM : D)
  ALU(AndReg, D &= S)
  ALU(AndImm, D &= UIMM)
  ALU(OrReg, D |= S)
  ALU(OrImm, D |= UIMM)
  ALU(XorReg, D ^= S)
  ALU(XorImm, D ^= UIMM)
  ALU(LshReg, D <<= (S & 63))
  ALU(LshImm, D <<= (UIMM & 63))
  ALU(RshReg, D >>= (S & 63))
  ALU(RshImm, D >>= (UIMM & 63))
  ALU(ArshReg,
      D = static_cast<uint64_t>(static_cast<int64_t>(D) >> (S & 63)))
  ALU(ArshImm,
      D = static_cast<uint64_t>(static_cast<int64_t>(D) >> (UIMM & 63)))
  ALU(Neg, D = 0 - D)
  ALU(MovReg, D = S)
  ALU(MovImm, D = UIMM)
  ALU(Add32Reg, D = static_cast<uint32_t>(D + S))
  ALU(Add32Imm, D = static_cast<uint32_t>(D + UIMM))
  ALU(Sub32Reg, D = static_cast<uint32_t>(D - S))
  ALU(Sub32Imm, D = static_cast<uint32_t>(D - UIMM))
  ALU(Mul32Reg, D = static_cast<uint32_t>(D * S))
  ALU(Mul32Imm, D = static_cast<uint32_t>(D * UIMM))
  ALU(Div32Reg, D = static_cast<uint32_t>(S)
                        ? static_cast<uint32_t>(D) / static_cast<uint32_t>(S)
                        : 0)
  ALU(Div32Imm,
      D = static_cast<uint32_t>(UIMM)
              ? static_cast<uint32_t>(D) / static_cast<uint32_t>(UIMM)
              : 0)
  ALU(Mod32Reg, D = static_cast<uint32_t>(S)
                        ? static_cast<uint32_t>(D) % static_cast<uint32_t>(S)
                        : static_cast<uint32_t>(D))
  ALU(Mod32Imm,
      D = static_cast<uint32_t>(UIMM)
              ? static_cast<uint32_t>(D) % static_cast<uint32_t>(UIMM)
              : static_cast<uint32_t>(D))
  ALU(And32Reg, D = static_cast<uint32_t>(D & S))
  ALU(And32Imm, D = static_cast<uint32_t>(D & UIMM))
  ALU(Or32Reg, D = static_cast<uint32_t>(D | S))
  ALU(Or32Imm, D = static_cast<uint32_t>(D | UIMM))
  ALU(Xor32Reg, D = static_cast<uint32_t>(D ^ S))
  ALU(Xor32Imm, D = static_cast<uint32_t>(D ^ UIMM))
  ALU(Lsh32Reg,
      D = static_cast<uint32_t>(static_cast<uint32_t>(D) << (S & 31)))
  ALU(Lsh32Imm,
      D = static_cast<uint32_t>(static_cast<uint32_t>(D) << (UIMM & 31)))
  ALU(Rsh32Reg, D = static_cast<uint32_t>(D) >> (S & 31))
  ALU(Rsh32Imm, D = static_cast<uint32_t>(D) >> (UIMM & 31))
  ALU(Arsh32Reg,
      D = static_cast<uint32_t>(
          static_cast<int32_t>(static_cast<uint32_t>(D)) >> (S & 31)))
  ALU(Arsh32Imm,
      D = static_cast<uint32_t>(
          static_cast<int32_t>(static_cast<uint32_t>(D)) >> (UIMM & 31)))
  ALU(Neg32, D = static_cast<uint32_t>(0 - static_cast<uint32_t>(D)))
  ALU(Mov32Reg, D = static_cast<uint32_t>(S))
  ALU(Mov32Imm, D = static_cast<uint32_t>(ip->imm))
  ALU(LdImm64, D = UIMM)

  OPC(LdMapFd) {
    // LdMapFd always compiles to ULdMapPtr; reaching the raw code is a
    // compiler bug.
    HERMES_CHECK_MSG(false, "bpf plan: unresolved LdMapFd micro-op");
  }

  OPC(LdxB) {
    D = *check_access(S + ip->off, 1);
    ++insns;
    NEXT;
  }
  OPC(LdxH) {
    uint16_t v;
    std::memcpy(&v, check_access(S + ip->off, 2), 2);
    D = v;
    ++insns;
    NEXT;
  }
  OPC(LdxW) {
    uint32_t v;
    std::memcpy(&v, check_access(S + ip->off, 4), 4);
    D = v;
    ++insns;
    NEXT;
  }
  OPC(LdxDW) {
    uint64_t v;
    std::memcpy(&v, check_access(S + ip->off, 8), 8);
    D = v;
    ++insns;
    NEXT;
  }
  OPC(StxB) {
    const auto v = static_cast<uint8_t>(S);
    std::memcpy(check_access(D + ip->off, 1), &v, 1);
    ++insns;
    NEXT;
  }
  OPC(StxH) {
    const auto v = static_cast<uint16_t>(S);
    std::memcpy(check_access(D + ip->off, 2), &v, 2);
    ++insns;
    NEXT;
  }
  OPC(StxW) {
    const auto v = static_cast<uint32_t>(S);
    std::memcpy(check_access(D + ip->off, 4), &v, 4);
    ++insns;
    NEXT;
  }
  OPC(StxDW) {
    std::memcpy(check_access(D + ip->off, 8), &S, 8);
    ++insns;
    NEXT;
  }
  OPC(StB) {
    const auto v = static_cast<uint8_t>(ip->imm);
    std::memcpy(check_access(D + ip->off, 1), &v, 1);
    ++insns;
    NEXT;
  }
  OPC(StH) {
    const auto v = static_cast<uint16_t>(ip->imm);
    std::memcpy(check_access(D + ip->off, 2), &v, 2);
    ++insns;
    NEXT;
  }
  OPC(StW) {
    const auto v = static_cast<uint32_t>(ip->imm);
    std::memcpy(check_access(D + ip->off, 4), &v, 4);
    ++insns;
    NEXT;
  }
  OPC(StDW) {
    const auto v = static_cast<uint64_t>(ip->imm);
    std::memcpy(check_access(D + ip->off, 8), &v, 8);
    ++insns;
    NEXT;
  }

  OPC(Ja) {
    ++insns;
    JUMP(ip->target);
  }

#define COND_JUMP(name, cond) \
  OPC(name) {                 \
    ++insns;                  \
    if (cond) {               \
      JUMP(ip->target);       \
    }                         \
    NEXT;                     \
  }

  COND_JUMP(JeqReg, D == S)
  COND_JUMP(JeqImm, D == UIMM)
  COND_JUMP(JneReg, D != S)
  COND_JUMP(JneImm, D != UIMM)
  COND_JUMP(JgtReg, D > S)
  COND_JUMP(JgtImm, D > UIMM)
  COND_JUMP(JgeReg, D >= S)
  COND_JUMP(JgeImm, D >= UIMM)
  COND_JUMP(JltReg, D < S)
  COND_JUMP(JltImm, D < UIMM)
  COND_JUMP(JleReg, D <= S)
  COND_JUMP(JleImm, D <= UIMM)
  COND_JUMP(JsgtReg, static_cast<int64_t>(D) > static_cast<int64_t>(S))
  COND_JUMP(JsgtImm, static_cast<int64_t>(D) > SIMM)
  COND_JUMP(JsgeReg, static_cast<int64_t>(D) >= static_cast<int64_t>(S))
  COND_JUMP(JsgeImm, static_cast<int64_t>(D) >= SIMM)
  COND_JUMP(JsltReg, static_cast<int64_t>(D) < static_cast<int64_t>(S))
  COND_JUMP(JsltImm, static_cast<int64_t>(D) < SIMM)
  COND_JUMP(JsleReg, static_cast<int64_t>(D) <= static_cast<int64_t>(S))
  COND_JUMP(JsleImm, static_cast<int64_t>(D) <= SIMM)
  COND_JUMP(JsetReg, (D & S) != 0)
  COND_JUMP(JsetImm, (D & UIMM) != 0)

  OPC(Call) {
    // Calls compile to the specialized UCall* codes; a raw Call micro-op
    // is only emitted for an unknown helper id at a range-dead pc.
    HERMES_CHECK_MSG(false, "bpf vm: unknown helper at runtime");
  }

  OPC(Exit) {
    ++insns;
    ExecResult res;
    res.ret = regs[0];
    res.insns_executed = insns;
    res.fused_hits = fused;
    res.elided_checks = elided;
    return res;
  }

  OPX(ULdMapPtr) {
    D = static_cast<uint64_t>(ip->imm);
    ++insns;
    NEXT;
  }

  OPX(UPopcount) {
    // emit_popcount's final register state, computed directly: dst gets
    // popcount(v), src the intermediate b >> 4, aux the last mask.
    const uint64_t v = S;
    const uint64_t a = v - ((v >> 1) & 0x5555555555555555ull);
    const uint64_t b = (a & 0x3333333333333333ull) +
                       ((a >> 2) & 0x3333333333333333ull);
    D = (((b + (b >> 4)) & 0x0f0f0f0f0f0f0f0full) * 0x0101010101010101ull) >>
        56;
    S = b >> 4;
    regs[ip->aux] = 0x0101010101010101ull;
    insns += 19;
    ++fused;
    NEXT;
  }

  OPX(UBlsr) {
    const uint64_t t = D - 1;
    S = t;
    D &= t;
    insns += 3;
    ++fused;
    NEXT;
  }

  OPX(UIsolateLow) {
    const uint64_t v = S;
    D = ((0 - v) & v) - 1;
    insns += 4;
    ++fused;
    NEXT;
  }

#define LDX_NC(name, type)                                        \
  OPX(name) {                                                     \
    type v;                                                       \
    std::memcpy(&v, reinterpret_cast<const uint8_t*>(S + ip->off), \
                sizeof(v));                                       \
    D = v;                                                        \
    ++insns;                                                      \
    ++elided;                                                     \
    NEXT;                                                         \
  }

  LDX_NC(ULdxBNC, uint8_t)
  LDX_NC(ULdxHNC, uint16_t)
  LDX_NC(ULdxWNC, uint32_t)
  LDX_NC(ULdxDWNC, uint64_t)

#define STX_NC(name, type)                                          \
  OPX(name) {                                                       \
    const auto v = static_cast<type>(S);                            \
    std::memcpy(reinterpret_cast<uint8_t*>(D + ip->off), &v,        \
                sizeof(v));                                         \
    ++insns;                                                        \
    ++elided;                                                       \
    NEXT;                                                           \
  }

  STX_NC(UStxBNC, uint8_t)
  STX_NC(UStxHNC, uint16_t)
  STX_NC(UStxWNC, uint32_t)
  STX_NC(UStxDWNC, uint64_t)

#define ST_NC(name, type)                                           \
  OPX(name) {                                                       \
    const auto v = static_cast<type>(ip->imm);                      \
    std::memcpy(reinterpret_cast<uint8_t*>(D + ip->off), &v,        \
                sizeof(v));                                         \
    ++insns;                                                        \
    ++elided;                                                       \
    NEXT;                                                           \
  }

  ST_NC(UStBNC, uint8_t)
  ST_NC(UStHNC, uint16_t)
  ST_NC(UStWNC, uint32_t)
  ST_NC(UStDWNC, uint64_t)

  OPX(UCallLookup) {
    ArrayMap* am = as_array_map(reinterpret_cast<Map*>(regs[1]));
    HERMES_CHECK(am != nullptr);
    uint32_t key;
    std::memcpy(&key, check_access(regs[2], 4), 4);
    regs[0] = reinterpret_cast<uint64_t>(am->lookup(key));
    ++insns;
    NEXT;
  }
  OPX(UCallLookupNC) {
    auto* am = reinterpret_cast<ArrayMap*>(static_cast<uintptr_t>(ip->imm));
    uint32_t key;
    std::memcpy(&key, reinterpret_cast<const uint8_t*>(regs[2]), 4);
    regs[0] = reinterpret_cast<uint64_t>(am->lookup(key));
    ++insns;
    ++elided;
    NEXT;
  }
  OPX(UCallUpdate) {
    ArrayMap* am = as_array_map(reinterpret_cast<Map*>(regs[1]));
    HERMES_CHECK(am != nullptr);
    uint32_t key;
    std::memcpy(&key, check_access(regs[2], 4), 4);
    const uint8_t* val = check_access(regs[3], am->value_size());
    regs[0] = am->update(key, val) ? 0 : static_cast<uint64_t>(-1);
    ++insns;
    NEXT;
  }
  OPX(UCallUpdateNC) {
    auto* am = reinterpret_cast<ArrayMap*>(static_cast<uintptr_t>(ip->imm));
    uint32_t key;
    std::memcpy(&key, reinterpret_cast<const uint8_t*>(regs[2]), 4);
    regs[0] = am->update(key, reinterpret_cast<const uint8_t*>(regs[3]))
                  ? 0
                  : static_cast<uint64_t>(-1);
    ++insns;
    ++elided;
    NEXT;
  }
  OPX(UCallSelect) {
    auto* rc = reinterpret_cast<ReuseportCtx*>(regs[1]);
    ReuseportSockArray* sa = as_sock_array(reinterpret_cast<Map*>(regs[2]));
    HERMES_CHECK(sa != nullptr);
    uint32_t key;
    std::memcpy(&key, check_access(regs[3], 4), 4);
    const uint64_t cookie = sa->get(key);
    if (cookie == kNoSocket) {
      regs[0] = static_cast<uint64_t>(-2);  // -ENOENT
    } else {
      rc->selected_socket = cookie;
      rc->selection_made = true;
      regs[0] = 0;
    }
    ++insns;
    NEXT;
  }
  OPX(UCallSelectNC) {
    auto* rc = reinterpret_cast<ReuseportCtx*>(regs[1]);
    auto* sa =
        reinterpret_cast<ReuseportSockArray*>(static_cast<uintptr_t>(ip->imm));
    uint32_t key;
    std::memcpy(&key, reinterpret_cast<const uint8_t*>(regs[3]), 4);
    const uint64_t cookie = sa->get(key);
    if (cookie == kNoSocket) {
      regs[0] = static_cast<uint64_t>(-2);  // -ENOENT
    } else {
      rc->selected_socket = cookie;
      rc->selection_made = true;
      regs[0] = 0;
    }
    ++insns;
    ++elided;
    NEXT;
  }
  OPX(UCallTime) {
    regs[0] = time_fn ? time_fn() : 0;
    ++insns;
    NEXT;
  }
  OPX(UCallRand) {
    regs[0] = rand_fn ? rand_fn() : 0;
    ++insns;
    NEXT;
  }

#if !HERMES_THREADED_DISPATCH
    default:
      HERMES_CHECK_MSG(false, "bpf plan: bad micro-op code");
  }
#endif

#undef ALU
#undef COND_JUMP
#undef LDX_NC
#undef STX_NC
#undef ST_NC
#undef OPC
#undef OPX
#undef NEXT
#undef JUMP
#undef D
#undef S
#undef UIMM
#undef SIMM
#undef CHECK_BUDGET
}

}  // namespace hermes::bpf
