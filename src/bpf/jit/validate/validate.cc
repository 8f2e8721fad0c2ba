// Translation validator for the tier-3 JIT (see validate.h for the layer
// overview). The implementation is organized as one Checker pass over the
// decoded buffer:
//
//   check_meta      — the compiler-exported offsets are internally sane
//   decode          — byte-exact decode of prologue / segments / tail
//   check_prologue  — exact frame-ABI instruction sequence
//   check_tail      — the fell-off-end trap backstop
//   static_pass     — per-segment CFG, accounting, budget, stray-write and
//                     elision-coverage checks (with baked-immediate
//                     verification against the loaded maps)
//   trial_pass      — differential symbolic execution of every segment
//                     against an exact micro-op spec interpreter, plus the
//                     ValueRange containment / refine_branch envelope
//
// The spec interpreter here deliberately re-states plan_exec.cc's
// semantics instead of calling into it: an equivalence checker that shares
// its model with the implementation under test proves nothing. Both sides
// of each trial run against a deterministic byte-granular memory oracle
// and log an ordered observable-event stream (bounds checks, stores,
// helper calls, aborts) that must match exactly.
#include "bpf/jit/validate/validate.h"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <map>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bpf/analysis/interp.h"
#include "bpf/analysis/value_range.h"
#include "bpf/insn.h"
#include "bpf/jit/codegen.h"
#include "bpf/jit/jit.h"
#include "bpf/jit/validate/x86_decode.h"
#include "bpf/maps.h"

namespace hermes::bpf::jit::validate {

namespace {

using analysis::ValueRange;

std::atomic<uint64_t> g_accepts{0};
std::atomic<uint64_t> g_rejects{0};

// splitmix64: the deterministic trial-vector / oracle generator.
uint64_t mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// Sentinel addresses for symbolic trials. They are never dereferenced as
// host pointers — all memory goes through the TrialMem oracle — but they
// must be pairwise disjoint so the executor's skip rules (frame spills,
// JitRt counter writebacks) cannot alias program-visible stores. The BPF
// r10 sentinel is deliberately NOT rsp+576: a range-dead checked stack
// access with a large negative offset must not land in the spill-slot
// window and corrupt the restored registers on only one side.
constexpr uint64_t kRsp0 = 0x00007FFE00010000ull;        // x86 rsp
constexpr uint64_t kStk0 = 0x00007FFD00020000ull;        // BPF r10
constexpr uint64_t kRtSentinel = 0x00007FFC000A0000ull;  // JitRt*
constexpr uint64_t kSeedBase = 0x7A11DA7Eull << 20;

// Frame/ABI constants, restated independently from jit_x86.cc (a shared
// constant would let a bug cancel out). Kept in terms of offsetof so the
// append-only JitRt layout cannot silently drift.
constexpr int kBpfRegMap[kNumRegs] = {RAX, RDI, RSI, RDX, RCX, R8,
                                      RBX, R13, R14, R15, RBP};
constexpr int32_t kRtSlot = 48;
constexpr int32_t kBpfStackOff = 64;
constexpr int32_t kFrameSize = 584;
constexpr int32_t kOffCtx = offsetof(JitRt, ctx);
constexpr int32_t kOffStack = offsetof(JitRt, stack);
constexpr int32_t kOffInsns = offsetof(JitRt, insns);
constexpr int32_t kOffFused = offsetof(JitRt, fused);
constexpr int32_t kOffElided = offsetof(JitRt, elided);
constexpr int32_t kOffSelSock = offsetof(ReuseportCtx, selected_socket);
constexpr int32_t kOffSelMade = offsetof(ReuseportCtx, selection_made);

bool is_jump_code(uint16_t c) {
  return c >= static_cast<uint16_t>(Op::Ja) &&
         c <= static_cast<uint16_t>(Op::JsetImm);
}

bool is_cond_branch(uint16_t c) {
  return c >= static_cast<uint16_t>(Op::JeqReg) &&
         c <= static_cast<uint16_t>(Op::JsetImm);
}

bool is_nc_mem(uint16_t c) { return c >= ULdxBNC && c <= UStDWNC; }

// Condition code the JIT must use for a forward conditional branch.
uint8_t cc_of(Op op) {
  switch (op) {
    case Op::JeqReg: case Op::JeqImm: return CC_E;
    case Op::JneReg: case Op::JneImm: return CC_NE;
    case Op::JgtReg: case Op::JgtImm: return CC_A;
    case Op::JgeReg: case Op::JgeImm: return CC_AE;
    case Op::JltReg: case Op::JltImm: return CC_B;
    case Op::JleReg: case Op::JleImm: return CC_BE;
    case Op::JsgtReg: case Op::JsgtImm: return CC_G;
    case Op::JsgeReg: case Op::JsgeImm: return CC_GE;
    case Op::JsltReg: case Op::JsltImm: return CC_L;
    case Op::JsleReg: case Op::JsleImm: return CC_LE;
    case Op::JsetReg: case Op::JsetImm: return CC_NE;
    default: return 0xFF;
  }
}

// True when the op's second operand is a register (vs. an immediate).
bool op_src_is_reg(Op op) {
  switch (op) {
    case Op::AddReg: case Op::SubReg: case Op::MulReg: case Op::DivReg:
    case Op::ModReg: case Op::AndReg: case Op::OrReg: case Op::XorReg:
    case Op::LshReg: case Op::RshReg: case Op::ArshReg:
    case Op::Add32Reg: case Op::Sub32Reg: case Op::Mul32Reg:
    case Op::Div32Reg: case Op::Mod32Reg: case Op::And32Reg:
    case Op::Or32Reg: case Op::Xor32Reg: case Op::Lsh32Reg:
    case Op::Rsh32Reg: case Op::Arsh32Reg:
    case Op::JeqReg: case Op::JneReg: case Op::JgtReg: case Op::JgeReg:
    case Op::JltReg: case Op::JleReg: case Op::JsgtReg: case Op::JsgeReg:
    case Op::JsltReg: case Op::JsleReg: case Op::JsetReg:
      return true;
    default:
      return false;
  }
}

// Independently recomputed accounting charge per micro-op. Fused
// superinstructions charge the source-instruction count of the sequence
// they replace (tier-invariant insns_executed); elided accesses and NC
// calls bump the elided counter.
struct Charge {
  uint32_t insns = 1;
  uint32_t fused = 0;
  uint32_t elided = 0;
};

Charge charge_of(uint16_t code) {
  if (code < kOpCount) return {1, 0, 0};
  switch (code) {
    case UPopcount: return {19, 1, 0};
    case UBlsr: return {3, 1, 0};
    case UIsolateLow: return {4, 1, 0};
    case UCallLookupNC:
    case UCallUpdateNC:
    case UCallSelectNC: return {1, 0, 1};
    default:
      if (is_nc_mem(code)) return {1, 0, 1};
      return {1, 0, 0};  // ULdMapPtr, checked calls, time, rand
  }
}

std::string uop_name(uint16_t code) {
  if (code < kOpCount) return to_string(static_cast<Op>(code));
  static const char* const kNames[] = {
      "ULdMapPtr",   "UPopcount",     "UBlsr",        "UIsolateLow",
      "ULdxBNC",     "ULdxHNC",       "ULdxWNC",      "ULdxDWNC",
      "UStxBNC",     "UStxHNC",       "UStxWNC",      "UStxDWNC",
      "UStBNC",      "UStHNC",        "UStWNC",       "UStDWNC",
      "UCallLookup", "UCallLookupNC", "UCallUpdate",  "UCallUpdateNC",
      "UCallSelect", "UCallSelectNC", "UCallTime",    "UCallRand"};
  const size_t k = code - kOpCount;
  return k < sizeof(kNames) / sizeof(kNames[0]) ? kNames[k] : "bad-code";
}

uint64_t trunc_w(uint64_t v, int width) {
  return width >= 8 ? v : v & ((uint64_t{1} << (8 * width)) - 1);
}

// ---------------------------------------------------------------------
// Trial plumbing: memory oracle, observable events, outcomes.
// ---------------------------------------------------------------------

// Byte-granular trial memory. Unwritten bytes come from a deterministic
// per-trial oracle (or all-ones in the force-ones flavor, which drives
// the kNoSocket / -ENOENT and zero-divisor style paths); written bytes
// shadow the oracle. Each side of a trial gets its own copy, so a store
// divergence shows up as a read divergence downstream too.
struct TrialMem {
  uint64_t seed = 0;
  uint64_t mask = ~uint64_t{0};
  bool ones = false;
  std::map<uint64_t, uint8_t> bytes;

  uint8_t oracle(uint64_t addr) const {
    if (ones) return 0xFF;
    const uint64_t w = mix64((addr & ~uint64_t{7}) ^ seed) & mask;
    return static_cast<uint8_t>(w >> (8 * (addr & 7)));
  }
  uint8_t rd8(uint64_t a) const {
    auto it = bytes.find(a);
    return it == bytes.end() ? oracle(a) : it->second;
  }
  uint64_t read(uint64_t a, int n) const {
    uint64_t v = 0;
    for (int k = 0; k < n; ++k) {
      v |= static_cast<uint64_t>(rd8(a + static_cast<uint64_t>(k))) << (8 * k);
    }
    return v;
  }
  void write(uint64_t a, int n, uint64_t v) {
    for (int k = 0; k < n; ++k) {
      bytes[a + static_cast<uint64_t>(k)] = static_cast<uint8_t>(v >> (8 * k));
    }
  }
};

// One observable effect. Both sides of a trial must produce identical
// event streams, in order. Call tags: 1 lookup, 2 update, 3 select,
// 4 time, 5 rand, 6 update_nc.
struct Event {
  uint8_t kind = 0;  // 0 = bounds check, 1 = store, 2 = helper call
  uint8_t aux = 0;   // store width / call tag
  uint64_t a = 0, b = 0, c = 0;
  bool operator==(const Event&) const = default;
};

Event ev_check(uint64_t addr, uint64_t n) { return {0, 0, addr, n, 0}; }
Event ev_store(uint64_t addr, int width, uint64_t v) {
  return {1, static_cast<uint8_t>(width), addr, v, 0};
}
Event ev_call(uint8_t tag, uint64_t a = 0, uint64_t b = 0, uint64_t c = 0) {
  return {2, tag, a, b, c};
}

size_t call_seq(const std::vector<Event>& ev) {
  size_t n = 0;
  for (const Event& e : ev) n += e.kind == 2;
  return n;
}

// Synthetic helper return value, shared by both sides: a function of the
// trial seed, the call's ordinal in the event stream, and the helper tag.
// GetPrandomU32 returns a zero-extended u32, like the real rt_rand.
uint64_t helper_ret(uint64_t seed, size_t seq, uint8_t tag) {
  uint64_t v = mix64(seed ^ (static_cast<uint64_t>(seq) + 1) *
                                0x9E3779B97F4A7C15ull ^
                     (static_cast<uint64_t>(tag) << 56));
  if (tag == 5) v &= 0xFFFFFFFFull;
  return v;
}

std::string ev_text(const Event& e) {
  std::ostringstream os;
  os << std::hex;
  switch (e.kind) {
    case 0: os << "check(0x" << e.a << ", " << std::dec << e.b << ")"; break;
    case 1:
      os << "store(0x" << e.a << ", w" << std::dec << int{e.aux} << std::hex
         << ", 0x" << e.b << ")";
      break;
    default:
      os << "call(tag " << std::dec << int{e.aux} << std::hex << ", 0x" << e.a
         << ", 0x" << e.b << ", 0x" << e.c << ")";
      break;
  }
  return os.str();
}

// How a segment's execution ended.
enum class OKind : uint8_t {
  Fall,     // fell through to the next segment
  Branch,   // took a rel32 edge; v = x86 byte offset / spec target index
  Exited,   // ret; v = rax / BPF r0
  Aborted,  // reached a noreturn trap; v = trap tag (1 budget, 2 unknown
            // helper, 3 unresolved LdMapFd, 4 fell off end)
};

struct Out {
  OKind kind = OKind::Fall;
  uint64_t v = 0;
};

const char* okind_name(OKind k) {
  switch (k) {
    case OKind::Fall: return "fall-through";
    case OKind::Branch: return "branch";
    case OKind::Exited: return "exit";
    case OKind::Aborted: return "abort";
  }
  return "?";
}

// x86 machine state for the symbolic executor. Flags are modeled only as
// the operands of the last cmp/test — the single way the emitter consumes
// them — and any other flag producer invalidates the model, so a jcc that
// could observe stale or arithmetic flags is a validation error, not a
// guess.
struct Flags {
  bool valid = false;
  bool w64 = false;
  bool is_test = false;
  uint64_t a = 0, b = 0;
};

struct XState {
  uint64_t r[16] = {};
  Flags f;
};

bool eval_cc(const Flags& f, uint8_t cc, bool* taken) {
  uint64_t a = f.a, b = f.b;
  int64_t sa, sb;
  if (f.w64) {
    sa = static_cast<int64_t>(a);
    sb = static_cast<int64_t>(b);
  } else {
    a = static_cast<uint32_t>(a);
    b = static_cast<uint32_t>(b);
    sa = static_cast<int32_t>(static_cast<uint32_t>(a));
    sb = static_cast<int32_t>(static_cast<uint32_t>(b));
  }
  if (f.is_test) {
    const uint64_t v = a & b;
    if (cc == CC_E) { *taken = v == 0; return true; }
    if (cc == CC_NE) { *taken = v != 0; return true; }
    return false;  // other ccs after test are outside the emitter's use
  }
  switch (cc) {
    case CC_E: *taken = a == b; return true;
    case CC_NE: *taken = a != b; return true;
    case CC_B: *taken = a < b; return true;
    case CC_AE: *taken = a >= b; return true;
    case CC_BE: *taken = a <= b; return true;
    case CC_A: *taken = a > b; return true;
    case CC_L: *taken = sa < sb; return true;
    case CC_GE: *taken = sa >= sb; return true;
    case CC_LE: *taken = sa <= sb; return true;
    case CC_G: *taken = sa > sb; return true;
    default: return false;
  }
}

// Does this decoded instruction write general-purpose register `reg`?
// (CallR clobbers are handled by the executor; callees preserve r12/rsp.)
bool writes_gp(const XInsn& x, int reg) {
  switch (x.op) {
    case XOp::MovRR:
    case XOp::MovRI:
    case XOp::Neg:
    case XOp::Shl: case XOp::Shr: case XOp::Sar:
      return x.base == reg;
    case XOp::Add: case XOp::Or: case XOp::And:
    case XOp::Sub: case XOp::Xor:
      return x.base == reg;
    case XOp::Imul:
    case XOp::Load:
    case XOp::Lea:
      return x.reg == reg;
    case XOp::Div:
      return reg == RAX || reg == RDX;
    case XOp::Pop:
      return x.base == reg;
    default:
      return false;
  }
}

// A decoded byte range: the prologue, one micro-op segment, or the tail.
struct Region {
  uint32_t begin = 0;
  uint32_t end = 0;
  std::vector<XInsn> insns;
};

// Per-trial register/memory value masks. Narrow masks drive boundary
// behavior (shift counts, division by zero, equal operands); flavor 4 is
// the force-ones memory oracle (kNoSocket / -ENOENT paths).
constexpr int kTrialFlavors = 6;
constexpr uint64_t kRegMasks[kTrialFlavors] = {
    ~uint64_t{0}, 0x7, 0xFFFF, 0x1, ~uint64_t{0}, 0xFFFFFFFFull};
constexpr uint64_t kMemMasks[kTrialFlavors] = {
    ~uint64_t{0}, 0xFF, 0x1, ~uint64_t{0}, ~uint64_t{0}, 0xFFFFull};

// ---------------------------------------------------------------------
// The checker.
// ---------------------------------------------------------------------

class Checker {
 public:
  explicit Checker(const Request& req)
      : req_(req), ops_(req.ops), ha_(helper_addrs()) {}

  bool run() {
    if (req_.code == nullptr) return fail("no code buffer");
    if (ops_.empty()) return fail("empty micro-op stream");
    if (!check_meta()) return false;
    if (!decode_all()) return false;
    if (!check_prologue()) return false;
    if (!check_tail()) return false;
    if (!build_facts()) return false;
    if (!static_pass()) return false;
    if (!trial_pass()) return false;
    return true;
  }

  const std::string& error() const { return error_; }

 private:
  // --- failure plumbing -------------------------------------------------
  bool fail(std::string msg) {
    if (error_.empty()) error_ = std::move(msg);
    return false;
  }

  // Decoded-instruction window around `mark` (pass >= insns.size() for a
  // plain listing), mirroring the verifier's disasm-window diagnostics.
  std::string window(const Region& r, size_t mark) const {
    std::ostringstream os;
    size_t lo = 0, hi = r.insns.size();
    if (mark < r.insns.size()) {
      lo = mark >= 3 ? mark - 3 : 0;
      hi = std::min(r.insns.size(), mark + 4);
    } else {
      hi = std::min<size_t>(hi, 12);
    }
    os << std::hex;
    for (size_t k = lo; k < hi; ++k) {
      os << "\n  " << (k == mark ? "-> " : "   ") << "[0x" << r.insns[k].off
         << "] " << to_text(r.insns[k]);
    }
    return os.str();
  }

  bool fail_region(const char* what, const Region& r, size_t mark,
                   const std::string& msg) {
    return fail(std::string(what) + ": " + msg + window(r, mark));
  }

  bool fail_uop(size_t i, size_t mark, const std::string& msg) {
    std::ostringstream os;
    os << "uop #" << i << " (" << uop_name(ops_[i].code) << ", src pc "
       << req_.src_pc[i] << "): " << msg << window(segs_[i], mark);
    return fail(os.str());
  }

  // --- layer 0: metadata sanity ----------------------------------------
  bool check_meta() {
    const JitMeta& m = req_.code->meta();
    const size_t n = ops_.size();
    if (m.code_off.size() != n) return fail("meta: code_off count != uops");
    if (req_.src_pc.size() != n) return fail("meta: src_pc count != uops");
    const auto len = static_cast<uint32_t>(req_.code->code_bytes());
    if (m.code_off[0] == 0) return fail("meta: missing prologue");
    for (size_t i = 1; i < n; ++i) {
      if (m.code_off[i] <= m.code_off[i - 1]) {
        return fail("meta: code offsets not strictly increasing");
      }
    }
    if (m.tail_off <= m.code_off[n - 1] || m.tail_off >= len) {
      return fail("meta: tail offset out of place");
    }
    return true;
  }

  // --- layer 1: byte-exact decode --------------------------------------
  bool decode_region(uint32_t begin, uint32_t end, const char* what,
                     Region* out) {
    out->begin = begin;
    out->end = end;
    const uint8_t* code = req_.code->code();
    uint32_t off = begin;
    while (off < end) {
      XInsn x;
      std::string err;
      if (!decode_one(code + off, end - off, &x, &err)) {
        std::ostringstream os;
        os << what << ": undecodable bytes at offset 0x" << std::hex << off
           << ": " << err << window(*out, out->insns.size());
        return fail(os.str());
      }
      x.off = off;
      off += x.len;
      out->insns.push_back(x);
    }
    return true;  // off == end: decode_one never reads past `end - off`
  }

  bool decode_all() {
    const JitMeta& m = req_.code->meta();
    const size_t n = ops_.size();
    const auto len = static_cast<uint32_t>(req_.code->code_bytes());
    if (!decode_region(0, m.code_off[0], "prologue", &prologue_)) {
      return false;
    }
    segs_.resize(n);
    for (size_t i = 0; i < n; ++i) {
      const uint32_t end = i + 1 < n ? m.code_off[i + 1] : m.tail_off;
      if (!decode_region(m.code_off[i], end, "segment", &segs_[i])) {
        std::ostringstream os;
        os << "uop #" << i << " (" << uop_name(ops_[i].code) << "): "
           << error_;
        error_.clear();
        return fail(os.str());
      }
    }
    return decode_region(m.tail_off, len, "tail", &tail_);
  }

  // --- layer 2: prologue / tail / epilogue exact shape ------------------
  bool check_prologue() {
    const auto& v = prologue_.insns;
    size_t k = 0;
    const auto bad = [&](const char* what) {
      return fail_region("prologue", prologue_,
                         std::min(k, v.empty() ? 0 : v.size() - 1), what);
    };
    const auto take = [&]() -> const XInsn* {
      return k < v.size() ? &v[k++] : nullptr;
    };
    const XInsn* x;
    for (int reg : {RBP, RBX, R12, R13, R14, R15}) {
      x = take();
      if (x == nullptr || x->op != XOp::Push || x->base != reg) {
        return bad("expected callee-saved push");
      }
    }
    x = take();
    if (x == nullptr || x->op != XOp::Sub || !x->imm_form || !x->w ||
        x->base != RSP || x->imm != kFrameSize) {
      return bad("expected frame allocation (sub rsp, 584)");
    }
    x = take();
    if (x == nullptr || x->op != XOp::Store || x->width != 8 ||
        x->base != RSP || x->disp != kRtSlot || x->reg != RDI) {
      return bad("expected JitRt* spill to [rsp+48]");
    }
    x = take();
    if (x == nullptr || x->op != XOp::Xorps) return bad("expected xorps");
    for (int32_t off = 0; off < static_cast<int32_t>(kStackSize); off += 16) {
      x = take();
      if (x == nullptr || x->op != XOp::MovapsZ || x->base != RSP ||
          x->disp != kBpfStackOff + off) {
        return bad("expected BPF-stack-zeroing movaps");
      }
    }
    x = take();
    if (x == nullptr || x->op != XOp::Lea || x->reg != R9 || x->base != RSP ||
        x->disp != kBpfStackOff) {
      return bad("expected stack-base lea");
    }
    x = take();
    if (x == nullptr || x->op != XOp::Store || x->width != 8 ||
        x->base != RDI || x->disp != kOffStack || x->reg != R9) {
      return bad("expected rt->stack store");
    }
    x = take();
    if (x == nullptr || x->op != XOp::Load || x->width != 8 || x->reg != R10 ||
        x->base != RDI || x->disp != kOffCtx || x->index != -1) {
      return bad("expected rt->ctx load");
    }
    for (int reg : {R12, RAX, RSI, RDX, RCX, R8, RBX, R13, R14, R15}) {
      x = take();
      if (x == nullptr || x->op != XOp::Xor || x->imm_form || x->w ||
          x->base != reg || x->reg != reg) {
        return bad("expected register-zeroing xor");
      }
    }
    x = take();
    if (x == nullptr || x->op != XOp::MovRR || !x->w || x->base != RDI ||
        x->reg != R10) {
      return bad("expected r1 = ctx move");
    }
    x = take();
    if (x == nullptr || x->op != XOp::Lea || x->reg != RBP || x->base != RSP ||
        x->disp != kBpfStackOff + static_cast<int32_t>(kStackSize)) {
      return bad("expected r10 = stack-top lea");
    }
    if (k != v.size()) return bad("trailing instructions after prologue");
    return true;
  }

  bool check_tail() {
    const auto& v = tail_.insns;
    if (v.size() != 2 || v[0].op != XOp::MovRI || !v[0].imm_form || !v[0].w ||
        v[0].base != RAX ||
        static_cast<uint64_t>(v[0].imm) != ha_.fell_off_end ||
        v[1].op != XOp::CallR || v[1].base != RAX) {
      return fail_region("tail", tail_, 0,
                         "expected the fell-off-end trap (movabs rax + call)");
    }
    return true;
  }

  // Exact epilogue match at the end of an Exit segment; on success
  // `*body_end` is the instruction count of the preceding flush body.
  bool match_epilogue(size_t i, size_t* body_end) {
    const Region& r = segs_[i];
    const auto& v = r.insns;
    if (v.size() < 10) return fail_uop(i, 0, "exit segment too short");
    const size_t e = v.size() - 10;
    const auto bad = [&](size_t k, const char* what) {
      return fail_uop(i, e + k, what);
    };
    const XInsn* x = &v[e];
    if (x->op != XOp::Load || x->width != 8 || x->reg != R11 ||
        x->base != RSP || x->disp != kRtSlot || x->index != -1) {
      return bad(0, "epilogue: expected JitRt* reload");
    }
    x = &v[e + 1];
    if (x->op != XOp::Store || x->width != 8 || x->base != R11 ||
        x->disp != kOffInsns || x->reg != R12) {
      return bad(1, "epilogue: expected insns-counter writeback");
    }
    x = &v[e + 2];
    if (x->op != XOp::Add || !x->imm_form || !x->w || x->base != RSP ||
        x->imm != kFrameSize) {
      return bad(2, "epilogue: expected frame release (add rsp, 584)");
    }
    const int pops[6] = {R15, R14, R13, R12, RBX, RBP};
    for (size_t k = 0; k < 6; ++k) {
      x = &v[e + 3 + k];
      if (x->op != XOp::Pop || x->base != pops[k]) {
        return bad(3 + k, "epilogue: expected callee-saved pop");
      }
    }
    if (v[e + 9].op != XOp::Ret) return bad(9, "epilogue: expected ret");
    *body_end = e;
    return true;
  }

  // --- verifier-fact tables (recomputed, mirroring compile_plan) --------
  bool build_facts() {
    if (req_.facts != nullptr) {
      for (const auto& m : req_.facts->mem_accesses) {
        if (m.proven) proven_pcs_.insert(m.pc);
      }
      for (const auto& h : req_.facts->helper_calls) {
        call_slots_[h.pc] = h.map_slot;
      }
    }
    am_of_.assign(ops_.size(), nullptr);
    sa_of_.assign(ops_.size(), nullptr);
    return true;
  }

  // Elision coverage: every unchecked micro-op must trace to an exported
  // verifier fact at its source pc, and every baked map immediate must
  // match the map the program was actually loaded with.
  bool check_elision(size_t i) {
    const MicroOp& u = ops_[i];
    const size_t pc = req_.src_pc[i];
    const Region& r = segs_[i];
    const auto has_movri = [&](uint64_t imm) {
      for (const XInsn& x : r.insns) {
        if (x.op == XOp::MovRI && static_cast<uint64_t>(x.imm) == imm) {
          return true;
        }
      }
      return false;
    };
    const auto has_bound = [&](uint64_t bound) {
      for (const XInsn& x : r.insns) {
        if (x.op == XOp::Cmp && x.imm_form &&
            static_cast<uint64_t>(x.imm) == bound) {
          return true;
        }
      }
      return has_movri(bound);
    };
    if (is_nc_mem(u.code)) {
      if (req_.facts == nullptr || proven_pcs_.count(pc) == 0) {
        return fail_uop(i, r.insns.size(),
                        "unchecked access without a proven verifier fact");
      }
      return true;
    }
    switch (u.code) {
      case ULdMapPtr: {
        for (Map* m : req_.maps) {
          if (reinterpret_cast<uint64_t>(m) == static_cast<uint64_t>(u.imm)) {
            return true;
          }
        }
        return fail_uop(i, r.insns.size(),
                        "baked map pointer matches no loaded map");
      }
      case UCallLookupNC:
      case UCallUpdateNC: {
        auto it = call_slots_.find(pc);
        if (req_.facts == nullptr || it == call_slots_.end()) {
          return fail_uop(i, r.insns.size(),
                          "specialized call without a verifier fact");
        }
        const int32_t slot = it->second;
        if (slot < 0 || static_cast<size_t>(slot) >= req_.maps.size()) {
          return fail_uop(i, r.insns.size(), "map slot out of range");
        }
        ArrayMap* am = as_array_map(req_.maps[slot]);
        if (am == nullptr ||
            reinterpret_cast<uint64_t>(am) != static_cast<uint64_t>(u.imm)) {
          return fail_uop(i, r.insns.size(),
                          "baked array-map pointer mismatch");
        }
        am_of_[i] = am;
        if (u.code == UCallLookupNC) {
          if (!has_movri(reinterpret_cast<uint64_t>(am->storage_base()))) {
            return fail_uop(i, r.insns.size(),
                            "baked storage base does not match the map");
          }
          bool stride_ok = false;
          for (const XInsn& x : r.insns) {
            if (x.op == XOp::Imul && x.imm_form &&
                static_cast<uint64_t>(x.imm) == am->stride()) {
              stride_ok = true;
            }
          }
          if (!stride_ok) {
            return fail_uop(i, r.insns.size(),
                            "baked stride does not match the map");
          }
          if (!has_bound(am->max_entries())) {
            return fail_uop(i, r.insns.size(),
                            "baked max_entries does not match the map");
          }
        } else if (!has_movri(reinterpret_cast<uint64_t>(am))) {
          return fail_uop(i, r.insns.size(),
                          "baked map argument does not match the map");
        }
        return true;
      }
      case UCallSelectNC: {
        auto it = call_slots_.find(pc);
        if (req_.facts == nullptr || it == call_slots_.end()) {
          return fail_uop(i, r.insns.size(),
                          "specialized call without a verifier fact");
        }
        const int32_t slot = it->second;
        if (slot < 0 || static_cast<size_t>(slot) >= req_.maps.size()) {
          return fail_uop(i, r.insns.size(), "map slot out of range");
        }
        ReuseportSockArray* sa = as_sock_array(req_.maps[slot]);
        if (sa == nullptr ||
            reinterpret_cast<uint64_t>(sa) != static_cast<uint64_t>(u.imm)) {
          return fail_uop(i, r.insns.size(),
                          "baked sock-array pointer mismatch");
        }
        sa_of_[i] = sa;
        if (!has_movri(reinterpret_cast<uint64_t>(sa->slots_data()))) {
          return fail_uop(i, r.insns.size(),
                          "baked slots base does not match the sock array");
        }
        if (!has_bound(sa->max_entries())) {
          return fail_uop(i, r.insns.size(),
                          "baked max_entries does not match the sock array");
        }
        return true;
      }
      default:
        return true;
    }
  }

  // --- layer 3: per-segment static checks -------------------------------
  bool static_pass() {
    const size_t n = ops_.size();
    const auto& code_off = req_.code->meta().code_off;
    std::vector<uint8_t> is_target(n, 0);
    for (size_t i = 0; i < n; ++i) {
      if (is_jump_code(ops_[i].code)) {
        if (ops_[i].target >= n) {
          return fail_uop(i, segs_[i].insns.size(), "jump target out of range");
        }
        is_target[ops_[i].target] = 1;
      }
    }

    // Accounting walk: pending charges accumulate across straight-line
    // segments exactly as the compiler's flush logic does, and every flush
    // instruction must carry the independently recomputed constant.
    uint64_t pend_i = 0, pend_f = 0, pend_e = 0;

    for (size_t i = 0; i < n; ++i) {
      const MicroOp& u = ops_[i];
      const Region& r = segs_[i];
      const bool is_exit = u.code == static_cast<uint16_t>(Op::Exit);
      const bool is_jump = is_jump_code(u.code);
      const Charge c = charge_of(u.code);
      pend_i += c.insns;
      pend_f += c.fused;
      pend_e += c.elided;

      size_t body_end = r.insns.size();
      if (is_exit && !match_epilogue(i, &body_end)) return false;

      // In-segment instruction-boundary set for rel8 target checks.
      std::unordered_set<uint32_t> bounds;
      for (const XInsn& x : r.insns) bounds.insert(x.off);

      for (size_t k = 0; k < body_end; ++k) {
        const XInsn& x = r.insns[k];
        switch (x.op) {
          case XOp::Push: case XOp::Pop: case XOp::Ret:
          case XOp::Xorps: case XOp::MovapsZ:
            return fail_uop(i, k, "prologue/epilogue-only instruction in "
                                  "segment body");
          default:
            break;
        }
        if (writes_gp(x, RSP)) {
          return fail_uop(i, k, "stray write to rsp");
        }
        const bool is_flush_add = x.op == XOp::Add && x.imm_form && x.w &&
                                  x.base == R12;
        if (!is_flush_add && writes_gp(x, R12)) {
          return fail_uop(i, k, "stray write to the insns counter (r12)");
        }
        if (is_flush_add) {
          if (pend_i == 0 || static_cast<uint64_t>(x.imm) != pend_i) {
            std::ostringstream os;
            os << "accounting flush carries " << x.imm << ", recomputed "
               << pend_i;
            return fail_uop(i, k, os.str());
          }
          pend_i = 0;
        }
        if (x.op == XOp::AddMem) {
          if (x.base != R11) {
            return fail_uop(i, k, "counter writeback through wrong register");
          }
          uint64_t* pend = nullptr;
          if (x.disp == kOffFused) pend = &pend_f;
          if (x.disp == kOffElided) pend = &pend_e;
          if (pend == nullptr) {
            return fail_uop(i, k, "counter writeback at unknown offset");
          }
          if (*pend == 0 || static_cast<uint64_t>(x.imm) != *pend) {
            std::ostringstream os;
            os << "counter writeback carries " << x.imm << ", recomputed "
               << *pend;
            return fail_uop(i, k, os.str());
          }
          *pend = 0;
        }
        if ((x.op == XOp::Jmp || x.op == XOp::Jcc) && !x.rel8) {
          if (!is_jump) {
            return fail_uop(i, k, "rel32 branch in a non-jump segment");
          }
          const uint64_t t = static_cast<uint64_t>(x.off) + x.len +
                             static_cast<int64_t>(x.rel);
          if (t != code_off[u.target]) {
            std::ostringstream os;
            os << "rel32 target 0x" << std::hex << t
               << " != target micro-op offset 0x" << code_off[u.target];
            return fail_uop(i, k, os.str());
          }
        }
        if ((x.op == XOp::Jmp || x.op == XOp::Jcc) && x.rel8) {
          if (x.rel < 0) {
            return fail_uop(i, k, "backward rel8 branch in segment");
          }
          const uint32_t t = x.off + x.len + static_cast<uint32_t>(x.rel);
          if (t != r.end && bounds.count(t) == 0) {
            return fail_uop(i, k, "rel8 target off instruction boundary");
          }
        }
      }

      // Pending counts must be fully flushed before any control-flow
      // boundary: a branch, an exit, or the next micro-op being a jump
      // target (whose trailing flush lives in THIS segment).
      const bool boundary =
          is_exit || is_jump || (i + 1 < n && is_target[i + 1] != 0);
      if (boundary && (pend_i | pend_f | pend_e) != 0) {
        return fail_uop(i, body_end == 0 ? 0 : body_end - 1,
                        "unflushed accounting at a control-flow boundary");
      }

      if (is_jump) {
        if (r.insns.empty()) return fail_uop(i, 0, "empty jump segment");
        const XInsn& last = r.insns.back();
        const bool backward = u.target <= i;
        if (is_cond_branch(u.code) && !backward) {
          const uint8_t cc = cc_of(static_cast<Op>(u.code));
          if (last.op != XOp::Jcc || last.rel8 || last.cc != cc) {
            return fail_uop(i, r.insns.size() - 1,
                            "forward branch must end in jcc rel32 with the "
                            "op's condition");
          }
        } else {
          if (last.op != XOp::Jmp || last.rel8) {
            return fail_uop(i, r.insns.size() - 1,
                            "jump segment must end in jmp rel32");
          }
        }
        if (backward) {
          bool has_budget_cmp = false, has_abort = false;
          for (const XInsn& x : r.insns) {
            if (x.op == XOp::Cmp && x.imm_form && x.base == R12 &&
                static_cast<uint64_t>(x.imm) == kMaxInsnsExecuted) {
              has_budget_cmp = true;
            }
            if (x.op == XOp::MovRI &&
                static_cast<uint64_t>(x.imm) == ha_.budget_abort) {
              has_abort = true;
            }
          }
          if (!has_budget_cmp || !has_abort) {
            return fail_uop(i, r.insns.size() - 1,
                            "backward edge without a budget check");
          }
          if (is_cond_branch(u.code)) {
            const uint8_t inv = cc_invert(cc_of(static_cast<Op>(u.code)));
            bool has_skip = false;
            for (const XInsn& x : r.insns) {
              if (x.op == XOp::Jcc && x.rel8 && x.cc == inv &&
                  x.off + x.len + static_cast<uint32_t>(x.rel) == r.end) {
                has_skip = true;
              }
            }
            if (!has_skip) {
              return fail_uop(i, r.insns.size() - 1,
                              "backward branch without the inverted-cc skip");
            }
          }
        }
      }

      if (!check_elision(i)) return false;
    }
    return true;
  }

  // --- layer 4: the spec interpreter (plan_exec.cc semantics) -----------
  // Executes ONE micro-op against trial registers + oracle memory, logging
  // observable events. Restated from bpf/plan_exec.cc on purpose.
  Out spec_step(size_t i, uint64_t* regs, TrialMem& mem, std::vector<Event>& ev,
                uint64_t seed) const {
    const MicroOp& u = ops_[i];
    const uint64_t uimm = static_cast<uint64_t>(u.imm);
    const int64_t simm = u.imm;
    uint64_t& dv = regs[u.dst];
    uint64_t& sv = regs[u.src];
    const auto u32 = [](uint64_t v) { return static_cast<uint32_t>(v); };
    const auto check = [&](uint64_t addr, uint64_t n) {
      ev.push_back(ev_check(addr, n));
    };
    const auto store = [&](uint64_t addr, int w, uint64_t v) {
      const uint64_t tv = trunc_w(v, w);
      ev.push_back(ev_store(addr, w, tv));
      mem.write(addr, w, tv);
    };
    const auto call = [&](uint8_t tag, uint64_t a = 0, uint64_t b = 0,
                          uint64_t c = 0) {
      const size_t sq = call_seq(ev);
      ev.push_back(ev_call(tag, a, b, c));
      return helper_ret(seed, sq, tag);
    };
    const auto taken = [&](bool t) {
      return t ? Out{OKind::Branch, u.target} : Out{OKind::Fall, 0};
    };

    if (u.code < kOpCount) {
      switch (static_cast<Op>(u.code)) {
        case Op::AddReg: dv += sv; break;
        case Op::AddImm: dv += uimm; break;
        case Op::SubReg: dv -= sv; break;
        case Op::SubImm: dv -= uimm; break;
        case Op::MulReg: dv *= sv; break;
        case Op::MulImm: dv *= uimm; break;
        case Op::DivReg: dv = sv ? dv / sv : 0; break;
        case Op::DivImm: dv = uimm ? dv / uimm : 0; break;
        case Op::ModReg: dv = sv ? dv % sv : dv; break;
        case Op::ModImm: dv = uimm ? dv % uimm : dv; break;
        case Op::AndReg: dv &= sv; break;
        case Op::AndImm: dv &= uimm; break;
        case Op::OrReg: dv |= sv; break;
        case Op::OrImm: dv |= uimm; break;
        case Op::XorReg: dv ^= sv; break;
        case Op::XorImm: dv ^= uimm; break;
        case Op::LshReg: dv <<= (sv & 63); break;
        case Op::LshImm: dv <<= (uimm & 63); break;
        case Op::RshReg: dv >>= (sv & 63); break;
        case Op::RshImm: dv >>= (uimm & 63); break;
        case Op::ArshReg:
          dv = static_cast<uint64_t>(static_cast<int64_t>(dv) >> (sv & 63));
          break;
        case Op::ArshImm:
          dv = static_cast<uint64_t>(static_cast<int64_t>(dv) >> (uimm & 63));
          break;
        case Op::Neg: dv = 0 - dv; break;
        case Op::MovReg: dv = sv; break;
        case Op::MovImm: dv = uimm; break;
        case Op::Add32Reg: dv = u32(dv + sv); break;
        case Op::Add32Imm: dv = u32(dv + uimm); break;
        case Op::Sub32Reg: dv = u32(dv - sv); break;
        case Op::Sub32Imm: dv = u32(dv - uimm); break;
        case Op::Mul32Reg: dv = u32(dv * sv); break;
        case Op::Mul32Imm: dv = u32(dv * uimm); break;
        case Op::Div32Reg: dv = u32(sv) ? u32(dv) / u32(sv) : 0; break;
        case Op::Div32Imm: dv = u32(uimm) ? u32(dv) / u32(uimm) : 0; break;
        case Op::Mod32Reg: dv = u32(sv) ? u32(dv) % u32(sv) : u32(dv); break;
        case Op::Mod32Imm:
          dv = u32(uimm) ? u32(dv) % u32(uimm) : u32(dv);
          break;
        case Op::And32Reg: dv = u32(dv & sv); break;
        case Op::And32Imm: dv = u32(dv & uimm); break;
        case Op::Or32Reg: dv = u32(dv | sv); break;
        case Op::Or32Imm: dv = u32(dv | uimm); break;
        case Op::Xor32Reg: dv = u32(dv ^ sv); break;
        case Op::Xor32Imm: dv = u32(dv ^ uimm); break;
        case Op::Lsh32Reg: dv = u32(u32(dv) << (sv & 31)); break;
        case Op::Lsh32Imm: dv = u32(u32(dv) << (uimm & 31)); break;
        case Op::Rsh32Reg: dv = u32(dv) >> (sv & 31); break;
        case Op::Rsh32Imm: dv = u32(dv) >> (uimm & 31); break;
        case Op::Arsh32Reg:
          dv = u32(static_cast<int32_t>(u32(dv)) >> (sv & 31));
          break;
        case Op::Arsh32Imm:
          dv = u32(static_cast<int32_t>(u32(dv)) >> (uimm & 31));
          break;
        case Op::Neg32: dv = u32(0 - u32(dv)); break;
        case Op::Mov32Reg: dv = u32(sv); break;
        case Op::Mov32Imm: dv = u32(u.imm); break;
        case Op::LdImm64: dv = uimm; break;
        case Op::LdMapFd: return {OKind::Aborted, 3};
        case Op::LdxB:
          check(sv + u.off, 1);
          dv = mem.read(sv + u.off, 1);
          break;
        case Op::LdxH:
          check(sv + u.off, 2);
          dv = mem.read(sv + u.off, 2);
          break;
        case Op::LdxW:
          check(sv + u.off, 4);
          dv = mem.read(sv + u.off, 4);
          break;
        case Op::LdxDW:
          check(sv + u.off, 8);
          dv = mem.read(sv + u.off, 8);
          break;
        case Op::StxB: check(dv + u.off, 1); store(dv + u.off, 1, sv); break;
        case Op::StxH: check(dv + u.off, 2); store(dv + u.off, 2, sv); break;
        case Op::StxW: check(dv + u.off, 4); store(dv + u.off, 4, sv); break;
        case Op::StxDW: check(dv + u.off, 8); store(dv + u.off, 8, sv); break;
        case Op::StB: check(dv + u.off, 1); store(dv + u.off, 1, uimm); break;
        case Op::StH: check(dv + u.off, 2); store(dv + u.off, 2, uimm); break;
        case Op::StW: check(dv + u.off, 4); store(dv + u.off, 4, uimm); break;
        case Op::StDW: check(dv + u.off, 8); store(dv + u.off, 8, uimm); break;
        case Op::Ja: return {OKind::Branch, u.target};
        case Op::JeqReg: return taken(dv == sv);
        case Op::JeqImm: return taken(dv == uimm);
        case Op::JneReg: return taken(dv != sv);
        case Op::JneImm: return taken(dv != uimm);
        case Op::JgtReg: return taken(dv > sv);
        case Op::JgtImm: return taken(dv > uimm);
        case Op::JgeReg: return taken(dv >= sv);
        case Op::JgeImm: return taken(dv >= uimm);
        case Op::JltReg: return taken(dv < sv);
        case Op::JltImm: return taken(dv < uimm);
        case Op::JleReg: return taken(dv <= sv);
        case Op::JleImm: return taken(dv <= uimm);
        case Op::JsgtReg:
          return taken(static_cast<int64_t>(dv) > static_cast<int64_t>(sv));
        case Op::JsgtImm: return taken(static_cast<int64_t>(dv) > simm);
        case Op::JsgeReg:
          return taken(static_cast<int64_t>(dv) >= static_cast<int64_t>(sv));
        case Op::JsgeImm: return taken(static_cast<int64_t>(dv) >= simm);
        case Op::JsltReg:
          return taken(static_cast<int64_t>(dv) < static_cast<int64_t>(sv));
        case Op::JsltImm: return taken(static_cast<int64_t>(dv) < simm);
        case Op::JsleReg:
          return taken(static_cast<int64_t>(dv) <= static_cast<int64_t>(sv));
        case Op::JsleImm: return taken(static_cast<int64_t>(dv) <= simm);
        case Op::JsetReg: return taken((dv & sv) != 0);
        case Op::JsetImm: return taken((dv & uimm) != 0);
        case Op::Call: return {OKind::Aborted, 2};
        case Op::Exit: return {OKind::Exited, regs[0]};
      }
      return {OKind::Fall, 0};
    }

    switch (u.code) {
      case ULdMapPtr: dv = uimm; break;
      case UPopcount: {
        const uint64_t v = sv;
        const uint64_t a = v - ((v >> 1) & 0x5555555555555555ull);
        const uint64_t b =
            (a & 0x3333333333333333ull) + ((a >> 2) & 0x3333333333333333ull);
        dv = (((b + (b >> 4)) & 0x0F0F0F0F0F0F0F0Full) *
              0x0101010101010101ull) >>
             56;
        sv = b >> 4;
        regs[u.aux] = 0x0101010101010101ull;
        break;
      }
      case UBlsr: {
        const uint64_t t = dv - 1;
        sv = t;
        dv &= t;
        break;
      }
      case UIsolateLow: {
        const uint64_t v = sv;
        dv = ((0 - v) & v) - 1;
        break;
      }
      case ULdxBNC: dv = mem.read(sv + u.off, 1); break;
      case ULdxHNC: dv = mem.read(sv + u.off, 2); break;
      case ULdxWNC: dv = mem.read(sv + u.off, 4); break;
      case ULdxDWNC: dv = mem.read(sv + u.off, 8); break;
      case UStxBNC: store(dv + u.off, 1, sv); break;
      case UStxHNC: store(dv + u.off, 2, sv); break;
      case UStxWNC: store(dv + u.off, 4, sv); break;
      case UStxDWNC: store(dv + u.off, 8, sv); break;
      case UStBNC: store(dv + u.off, 1, uimm); break;
      case UStHNC: store(dv + u.off, 2, uimm); break;
      case UStWNC: store(dv + u.off, 4, uimm); break;
      case UStDWNC: store(dv + u.off, 8, uimm); break;
      case UCallLookup: regs[0] = call(1, regs[1], regs[2]); break;
      case UCallUpdate: regs[0] = call(2, regs[1], regs[2], regs[3]); break;
      case UCallSelect: regs[0] = call(3, regs[1], regs[2], regs[3]); break;
      case UCallTime: regs[0] = call(4); break;
      case UCallRand: regs[0] = call(5); break;
      case UCallUpdateNC:
        regs[0] = call(6, reinterpret_cast<uint64_t>(am_of_[i]), regs[2], regs[3]);
        break;
      case UCallLookupNC: {
        const ArrayMap* am = am_of_[i];
        const auto key = static_cast<uint32_t>(mem.read(regs[2], 4));
        regs[0] = key < am->max_entries()
                   ? reinterpret_cast<uint64_t>(
                         const_cast<ArrayMap*>(am)->storage_base()) +
                         static_cast<uint64_t>(key) * am->stride()
                   : 0;
        break;
      }
      case UCallSelectNC: {
        const ReuseportSockArray* sa = sa_of_[i];
        const auto key = static_cast<uint32_t>(mem.read(regs[3], 4));
        // The inlined fast path loads the slot through program memory;
        // mirror that via the trial oracle rather than the live atomic.
        const uint64_t cookie =
            key < sa->max_entries()
                ? mem.read(reinterpret_cast<uint64_t>(sa->slots_data()) +
                               uint64_t{8} * key,
                           8)
                : kNoSocket;
        if (cookie == kNoSocket) {
          regs[0] = static_cast<uint64_t>(-2);  // -ENOENT
        } else {
          store(regs[1] + kOffSelSock, 8, cookie);
          store(regs[1] + kOffSelMade, 1, 1);
          regs[0] = 0;
        }
        break;
      }
      default:
        break;  // unreachable: decode/static passes reject unknown codes
    }
    return {OKind::Fall, 0};
  }

  // --- layer 4: the x86 symbolic executor -------------------------------
  bool exec_segment(const Region& rg, XState& st, TrialMem& mem,
                    std::vector<Event>& ev, uint64_t seed, Out* out,
                    size_t* err_at, std::string* why) const {
    std::unordered_map<uint32_t, size_t> at;
    for (size_t k = 0; k < rg.insns.size(); ++k) at[rg.insns[k].off] = k;
    const auto err = [&](size_t k, const char* msg) {
      *err_at = k;
      *why = msg;
      return false;
    };
    size_t k = 0;
    size_t steps = 0;
    const size_t max_steps = rg.insns.size() + 8;
    while (true) {
      if (k >= rg.insns.size()) {
        *out = {OKind::Fall, 0};
        return true;
      }
      if (++steps > max_steps) return err(k, "executor step bound exceeded");
      const XInsn& x = rg.insns[k];
      const uint32_t next_off = x.off + x.len;
      uint64_t* const r = st.r;
      const auto u32 = [](uint64_t v) { return static_cast<uint32_t>(v); };
      bool clobber_flags = true;
      switch (x.op) {
        case XOp::MovRR:
          r[x.base] = x.w ? r[x.reg] : u32(r[x.reg]);
          clobber_flags = false;
          break;
        case XOp::MovRI:
          r[x.base] = static_cast<uint64_t>(x.imm);
          clobber_flags = false;
          break;
        case XOp::Lea:
          r[x.reg] = r[x.base] + static_cast<int64_t>(x.disp);
          clobber_flags = false;
          break;
        case XOp::Add: case XOp::Or: case XOp::And:
        case XOp::Sub: case XOp::Xor: {
          const uint64_t b =
              x.imm_form ? static_cast<uint64_t>(x.imm) : r[x.reg];
          uint64_t v = r[x.base];
          switch (x.op) {
            case XOp::Add: v += b; break;
            case XOp::Or: v |= b; break;
            case XOp::And: v &= b; break;
            case XOp::Sub: v -= b; break;
            default: v ^= b; break;
          }
          r[x.base] = x.w ? v : u32(v);
          break;
        }
        case XOp::Cmp: case XOp::Test: {
          const uint64_t b =
              x.imm_form ? static_cast<uint64_t>(x.imm) : r[x.reg];
          st.f = {true, x.w, x.op == XOp::Test, r[x.base], b};
          clobber_flags = false;  // flags just became valid
          break;
        }
        case XOp::Imul: {
          const uint64_t b =
              x.imm_form ? static_cast<uint64_t>(x.imm) : r[x.base];
          const uint64_t a = x.imm_form ? r[x.base] : r[x.reg];
          const uint64_t v = a * b;
          r[x.reg] = x.w ? v : u32(v);
          break;
        }
        case XOp::Div: {
          const uint64_t d = x.w ? r[x.base] : u32(r[x.base]);
          const uint64_t hi = x.w ? r[RDX] : u32(r[RDX]);
          const uint64_t lo = x.w ? r[RAX] : u32(r[RAX]);
          if (hi != 0) return err(k, "div with nonzero high word");
          if (d == 0) return err(k, "reachable division by zero");
          r[RAX] = lo / d;
          r[RDX] = lo % d;
          break;
        }
        case XOp::Neg:
          r[x.base] = x.w ? 0 - r[x.base] : u32(0 - u32(r[x.base]));
          break;
        case XOp::Shl: case XOp::Shr: case XOp::Sar: {
          const uint64_t cnt =
              (x.imm_form ? static_cast<uint64_t>(x.imm) : r[RCX]) &
              (x.w ? 63 : 31);
          uint64_t v = r[x.base];
          if (x.op == XOp::Shl) {
            v = x.w ? v << cnt : u32(u32(v) << cnt);
          } else if (x.op == XOp::Shr) {
            v = x.w ? v >> cnt : u32(v) >> cnt;
          } else {
            v = x.w ? static_cast<uint64_t>(static_cast<int64_t>(v) >> cnt)
                    : u32(static_cast<int32_t>(u32(v)) >> cnt);
          }
          r[x.base] = v;
          break;
        }
        case XOp::Load: {
          uint64_t ea = r[x.base] + static_cast<int64_t>(x.disp);
          if (x.index >= 0) ea += r[x.index] * 8;
          r[x.reg] = mem.read(ea, x.width);
          clobber_flags = false;
          break;
        }
        case XOp::Store: case XOp::StoreImm: {
          const uint64_t ea = r[x.base] + static_cast<int64_t>(x.disp);
          const uint64_t v = trunc_w(
              x.op == XOp::Store ? r[x.reg] : static_cast<uint64_t>(x.imm),
              x.width);
          // Frame spills (rsp-relative) and JitRt writebacks (through the
          // rt sentinel) are implementation bookkeeping, not program
          // effects: perform them, but keep them out of the event log.
          if (x.base != RSP && r[x.base] != kRtSentinel) {
            ev.push_back(ev_store(ea, x.width, v));
          }
          mem.write(ea, x.width, v);
          clobber_flags = false;
          break;
        }
        case XOp::AddMem: {
          if (r[x.base] != kRtSentinel) {
            return err(k, "read-modify-write outside the JitRt block");
          }
          const uint64_t ea = r[x.base] + static_cast<int64_t>(x.disp);
          mem.write(ea, 8, mem.read(ea, 8) + static_cast<uint64_t>(x.imm));
          break;
        }
        case XOp::Push:
          r[RSP] -= 8;
          mem.write(r[RSP], 8, r[x.base]);
          clobber_flags = false;
          break;
        case XOp::Pop:
          r[x.base] = mem.read(r[RSP], 8);
          r[RSP] += 8;
          clobber_flags = false;
          break;
        case XOp::Ret:
          *out = {OKind::Exited, r[RAX]};
          return true;
        case XOp::Jmp: {
          const uint64_t t =
              uint64_t{next_off} + static_cast<int64_t>(x.rel);
          if (!x.rel8) {
            *out = {OKind::Branch, t};
            return true;
          }
          if (t == rg.end) {
            *out = {OKind::Fall, 0};
            return true;
          }
          auto it = at.find(static_cast<uint32_t>(t));
          if (it == at.end()) return err(k, "rel8 jump off boundary");
          k = it->second;
          continue;
        }
        case XOp::Jcc: {
          if (!st.f.valid) {
            return err(k, "conditional branch on unmodeled flags");
          }
          bool taken = false;
          if (!eval_cc(st.f, x.cc, &taken)) {
            return err(k, "condition code outside the emitter's use");
          }
          if (taken) {
            const uint64_t t =
                uint64_t{next_off} + static_cast<int64_t>(x.rel);
            if (!x.rel8) {
              *out = {OKind::Branch, t};
              return true;
            }
            if (t == rg.end) {
              *out = {OKind::Fall, 0};
              return true;
            }
            auto it = at.find(static_cast<uint32_t>(t));
            if (it == at.end()) return err(k, "rel8 jump off boundary");
            k = it->second;
            continue;
          }
          ++k;
          continue;
        }
        case XOp::CallR: {
          const uint64_t t = r[x.base];
          if (t == ha_.budget_abort) { *out = {OKind::Aborted, 1}; return true; }
          if (t == ha_.unknown_helper) { *out = {OKind::Aborted, 2}; return true; }
          if (t == ha_.unresolved_ldmapfd) { *out = {OKind::Aborted, 3}; return true; }
          if (t == ha_.fell_off_end) { *out = {OKind::Aborted, 4}; return true; }
          const size_t sq = call_seq(ev);
          const auto clobber = [&]() {
            for (int cr : {RDI, RSI, RDX, RCX, R8, R9, R10, R11}) {
              r[cr] = mix64(seed ^ 0xC10BBE5ull ^
                            (static_cast<uint64_t>(sq) << 8) ^
                            static_cast<uint64_t>(cr));
            }
          };
          if (t == ha_.update_nc) {
            ev.push_back(ev_call(6, r[RDI], r[RSI], r[RDX]));
            clobber();
            r[RAX] = helper_ret(seed, sq, 6);
          } else {
            // Every other helper takes JitRt* first: the generated code
            // must have reloaded it from the frame slot.
            if (r[RDI] != kRtSentinel) {
              return err(k, "helper called without the JitRt argument");
            }
            if (t == ha_.check_access) {
              ev.push_back(ev_check(r[RSI], r[RDX]));
              const uint64_t addr = r[RSI];
              clobber();
              r[RAX] = addr;
            } else if (t == ha_.call_lookup) {
              ev.push_back(ev_call(1, r[RSI], r[RDX]));
              clobber();
              r[RAX] = helper_ret(seed, sq, 1);
            } else if (t == ha_.call_update) {
              ev.push_back(ev_call(2, r[RSI], r[RDX], r[RCX]));
              clobber();
              r[RAX] = helper_ret(seed, sq, 2);
            } else if (t == ha_.call_select) {
              ev.push_back(ev_call(3, r[RSI], r[RDX], r[RCX]));
              clobber();
              r[RAX] = helper_ret(seed, sq, 3);
            } else if (t == ha_.time) {
              ev.push_back(ev_call(4));
              clobber();
              r[RAX] = helper_ret(seed, sq, 4);
            } else if (t == ha_.rand) {
              ev.push_back(ev_call(5));
              clobber();
              r[RAX] = helper_ret(seed, sq, 5);
            } else {
              return err(k, "call to an unrecognized address");
            }
          }
          break;
        }
        case XOp::Xorps: case XOp::MovapsZ:
          return err(k, "prologue-only instruction reached the executor");
      }
      if (clobber_flags) st.f.valid = false;
      ++k;
    }
  }

  // --- layer 4: the differential trial driver ---------------------------
  bool trial_pass() {
    for (size_t i = 0; i < ops_.size(); ++i) {
      for (int flavor = 0; flavor < kTrialFlavors; ++flavor) {
        if (!run_trial(i, flavor)) return false;
      }
    }
    return true;
  }

  bool run_trial(size_t i, int flavor) {
    const MicroOp& u = ops_[i];
    const Region& rg = segs_[i];
    const uint64_t seed =
        mix64(kSeedBase ^ (static_cast<uint64_t>(i) * kTrialFlavors + flavor));
    const auto trial_fail = [&](size_t mark, const std::string& msg) {
      std::ostringstream os;
      os << "trial flavor " << flavor << ": " << msg;
      return fail_uop(i, mark, os.str());
    };

    uint64_t sregs[kNumRegs];
    for (int kreg = 0; kreg < 10; ++kreg) {
      uint64_t v = mix64(seed ^ (0x100u + kreg)) & kRegMasks[flavor];
      if (v == kRtSentinel) v ^= 1;  // keep the writeback skip rule exact
      sregs[kreg] = v;
    }
    sregs[10] = kStk0;

    TrialMem smem{seed, kMemMasks[flavor], flavor == 4, {}};
    TrialMem xmem = smem;
    smem.write(kRsp0 + kRtSlot, 8, kRtSentinel);
    xmem.write(kRsp0 + kRtSlot, 8, kRtSentinel);

    XState xs;
    for (int kreg = 0; kreg < kNumRegs; ++kreg) {
      xs.r[kBpfRegMap[kreg]] = sregs[kreg];
    }
    xs.r[RSP] = kRsp0;
    xs.r[R9] = mix64(seed ^ 0x201);
    xs.r[R10] = mix64(seed ^ 0x202);
    xs.r[R11] = mix64(seed ^ 0x203);
    xs.r[R12] = 0;

    const uint64_t d_in = sregs[u.dst];
    const uint64_t s_in = sregs[u.src];

    std::vector<Event> sev, xev;
    const Out so = spec_step(i, sregs, smem, sev, seed);

    // Abstract-domain envelope: the concrete transfer the spec just made
    // must be contained in (branches: feasible under) the same ValueRange
    // semantics the verifier proved its facts in.
    if (u.code < kOpCount) {
      const Op op = static_cast<Op>(u.code);
      if (op <= Op::Mov32Imm && op != Op::MovReg && op != Op::MovImm &&
          op != Op::Mov32Reg && op != Op::Mov32Imm) {
        ValueRange b;
        if (op == Op::Neg || op == Op::Neg32) {
          b = ValueRange::konst(0);
        } else if (op_src_is_reg(op)) {
          b = ValueRange::konst(s_in);
        } else {
          b = ValueRange::konst(static_cast<uint64_t>(u.imm));
        }
        const ValueRange vr = ValueRange::alu(op, ValueRange::konst(d_in), b);
        if (!vr.contains(sregs[u.dst])) {
          return trial_fail(rg.insns.size(),
                            "concrete ALU result escapes the abstract "
                            "transfer function's range");
        }
      } else if (is_cond_branch(u.code)) {
        ValueRange d = ValueRange::konst(d_in);
        ValueRange s = op_src_is_reg(op)
                           ? ValueRange::konst(s_in)
                           : ValueRange::konst(static_cast<uint64_t>(u.imm));
        if (!ValueRange::refine_branch(op, so.kind == OKind::Branch, d, s)) {
          return trial_fail(rg.insns.size(),
                            "taken branch edge is infeasible under "
                            "refine_branch");
        }
      }
    }

    Out xo;
    size_t err_at = 0;
    std::string why;
    if (!exec_segment(rg, xs, xmem, xev, seed, &xo, &err_at, &why)) {
      return trial_fail(err_at, why);
    }

    if (xo.kind != so.kind) {
      std::ostringstream os;
      os << "outcome mismatch: spec " << okind_name(so.kind) << ", code "
         << okind_name(xo.kind);
      return trial_fail(rg.insns.size(), os.str());
    }
    switch (so.kind) {
      case OKind::Branch: {
        const uint64_t want = req_.code->meta().code_off[so.v];
        if (xo.v != want) {
          std::ostringstream os;
          os << "branch lands at 0x" << std::hex << xo.v
             << ", target micro-op is at 0x" << want;
          return trial_fail(rg.insns.size(), os.str());
        }
        break;
      }
      case OKind::Exited:
        if (xo.v != so.v) {
          std::ostringstream os;
          os << "return value mismatch: spec r0 0x" << std::hex << so.v
             << ", code rax 0x" << xo.v;
          return trial_fail(rg.insns.size(), os.str());
        }
        break;
      case OKind::Aborted:
        if (xo.v != so.v) {
          std::ostringstream os;
          os << "abort kind mismatch (spec " << so.v << ", code " << xo.v
             << ")";
          return trial_fail(rg.insns.size(), os.str());
        }
        break;
      case OKind::Fall:
        break;
    }
    if (so.kind == OKind::Fall || so.kind == OKind::Branch) {
      for (int kreg = 0; kreg < kNumRegs; ++kreg) {
        if (xs.r[kBpfRegMap[kreg]] != sregs[kreg]) {
          std::ostringstream os;
          os << "r" << kreg << " mismatch: spec 0x" << std::hex << sregs[kreg]
             << ", code 0x" << xs.r[kBpfRegMap[kreg]];
          return trial_fail(rg.insns.size(), os.str());
        }
      }
    }
    if (sev != xev) {
      size_t d = 0;
      while (d < sev.size() && d < xev.size() && sev[d] == xev[d]) ++d;
      std::ostringstream os;
      os << "observable-event mismatch at event " << d << ": spec "
         << (d < sev.size() ? ev_text(sev[d]) : "(none)") << ", code "
         << (d < xev.size() ? ev_text(xev[d]) : "(none)");
      return trial_fail(rg.insns.size(), os.str());
    }
    return true;
  }

  const Request& req_;
  std::span<const MicroOp> ops_;
  const HelperAddrs& ha_;
  std::string error_;
  Region prologue_;
  Region tail_;
  std::vector<Region> segs_;
  std::unordered_set<size_t> proven_pcs_;
  std::unordered_map<size_t, int32_t> call_slots_;
  std::vector<ArrayMap*> am_of_;           // per-uop pinned array map
  std::vector<ReuseportSockArray*> sa_of_; // per-uop pinned sock array
};

}  // namespace

bool enabled() {
  const char* e = std::getenv("HERMES_BPF_VALIDATE");
  if (e != nullptr) {
    return !(std::strcmp(e, "0") == 0 || std::strcmp(e, "off") == 0);
  }
#ifndef NDEBUG
  return true;
#else
  return false;
#endif
}

Result validate(const Request& req) {
  Checker c(req);
  Result res;
  res.ok = c.run();
  res.error = c.error();
  (res.ok ? g_accepts : g_rejects).fetch_add(1, std::memory_order_relaxed);
  return res;
}

uint64_t accepts() { return g_accepts.load(std::memory_order_relaxed); }
uint64_t rejects() { return g_rejects.load(std::memory_order_relaxed); }

}  // namespace hermes::bpf::jit::validate
