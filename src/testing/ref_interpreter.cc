#include "testing/ref_interpreter.h"

#include <cstring>

namespace hermes::bpf {

namespace {

// 64-bit ALU evaluator: one table instead of per-opcode inline bodies.
uint64_t eval64(Op op, uint64_t a, uint64_t b) {
  switch (op) {
    case Op::AddReg: case Op::AddImm: return a + b;
    case Op::SubReg: case Op::SubImm: return a - b;
    case Op::MulReg: case Op::MulImm: return a * b;
    case Op::DivReg: case Op::DivImm: return b != 0 ? a / b : 0;
    case Op::ModReg: case Op::ModImm: return b != 0 ? a % b : a;
    case Op::AndReg: case Op::AndImm: return a & b;
    case Op::OrReg:  case Op::OrImm:  return a | b;
    case Op::XorReg: case Op::XorImm: return a ^ b;
    case Op::LshReg: case Op::LshImm: return a << (b & 63);
    case Op::RshReg: case Op::RshImm: return a >> (b & 63);
    case Op::ArshReg: case Op::ArshImm:
      return static_cast<uint64_t>(static_cast<int64_t>(a) >> (b & 63));
    case Op::MovReg: case Op::MovImm: return b;
    default: return 0;  // unreachable; callers dispatch only ALU64 ops
  }
}

// 32-bit ALU evaluator; result is zero-extended by the caller.
uint32_t eval32(Op op, uint32_t a, uint32_t b) {
  switch (op) {
    case Op::Add32Reg: case Op::Add32Imm: return a + b;
    case Op::Sub32Reg: case Op::Sub32Imm: return a - b;
    case Op::Mul32Reg: case Op::Mul32Imm: return a * b;
    case Op::Div32Reg: case Op::Div32Imm: return b != 0 ? a / b : 0;
    case Op::Mod32Reg: case Op::Mod32Imm: return b != 0 ? a % b : a;
    case Op::And32Reg: case Op::And32Imm: return a & b;
    case Op::Or32Reg:  case Op::Or32Imm:  return a | b;
    case Op::Xor32Reg: case Op::Xor32Imm: return a ^ b;
    case Op::Lsh32Reg: case Op::Lsh32Imm: return a << (b & 31);
    case Op::Rsh32Reg: case Op::Rsh32Imm: return a >> (b & 31);
    case Op::Arsh32Reg: case Op::Arsh32Imm:
      return static_cast<uint32_t>(static_cast<int32_t>(a) >> (b & 31));
    case Op::Mov32Reg: case Op::Mov32Imm: return b;
    default: return 0;
  }
}

bool is_alu64(Op op) {
  switch (op) {
    case Op::AddReg: case Op::AddImm: case Op::SubReg: case Op::SubImm:
    case Op::MulReg: case Op::MulImm: case Op::DivReg: case Op::DivImm:
    case Op::ModReg: case Op::ModImm: case Op::AndReg: case Op::AndImm:
    case Op::OrReg:  case Op::OrImm:  case Op::XorReg: case Op::XorImm:
    case Op::LshReg: case Op::LshImm: case Op::RshReg: case Op::RshImm:
    case Op::ArshReg: case Op::ArshImm: case Op::MovReg: case Op::MovImm:
      return true;
    default:
      return false;
  }
}

bool is_alu32(Op op) {
  switch (op) {
    case Op::Add32Reg: case Op::Add32Imm: case Op::Sub32Reg: case Op::Sub32Imm:
    case Op::Mul32Reg: case Op::Mul32Imm: case Op::Div32Reg: case Op::Div32Imm:
    case Op::Mod32Reg: case Op::Mod32Imm: case Op::And32Reg: case Op::And32Imm:
    case Op::Or32Reg:  case Op::Or32Imm:  case Op::Xor32Reg: case Op::Xor32Imm:
    case Op::Lsh32Reg: case Op::Lsh32Imm: case Op::Rsh32Reg: case Op::Rsh32Imm:
    case Op::Arsh32Reg: case Op::Arsh32Imm: case Op::Mov32Reg:
    case Op::Mov32Imm:
      return true;
    default:
      return false;
  }
}

bool uses_imm_operand(Op op) {
  switch (op) {
    case Op::AddImm: case Op::SubImm: case Op::MulImm: case Op::DivImm:
    case Op::ModImm: case Op::AndImm: case Op::OrImm: case Op::XorImm:
    case Op::LshImm: case Op::RshImm: case Op::ArshImm: case Op::MovImm:
    case Op::Add32Imm: case Op::Sub32Imm: case Op::Mul32Imm: case Op::Div32Imm:
    case Op::Mod32Imm: case Op::And32Imm: case Op::Or32Imm: case Op::Xor32Imm:
    case Op::Lsh32Imm: case Op::Rsh32Imm: case Op::Arsh32Imm: case Op::Mov32Imm:
      return true;
    default:
      return false;
  }
}

// Width of a memory op in bytes, or 0 for non-memory ops.
int mem_width(Op op) {
  switch (op) {
    case Op::LdxB: case Op::StxB: case Op::StB: return 1;
    case Op::LdxH: case Op::StxH: case Op::StH: return 2;
    case Op::LdxW: case Op::StxW: case Op::StW: return 4;
    case Op::LdxDW: case Op::StxDW: case Op::StDW: return 8;
    default: return 0;
  }
}

struct Interp {
  const Program& prog;
  std::span<Map* const> maps;
  ReuseportCtx& ctx;
  const Vm::TimeFn& time_fn;
  const Vm::RandFn& rand_fn;

  alignas(8) uint8_t stack[kStackSize] = {};
  uint64_t regs[kNumRegs] = {};
  RefResult out;
  size_t pc = 0;

  RefResult trap(const std::string& why) {
    out.trapped = true;
    out.trap = why;
    out.trap_pc = pc;
    return out;
  }

  // Resolve a guest address to a host pointer, or nullptr on violation.
  uint8_t* resolve(uint64_t addr, size_t n) {
    const auto lo = static_cast<uintptr_t>(addr);
    const auto fits = [&](const void* base, size_t size) {
      const auto b = reinterpret_cast<uintptr_t>(base);
      return lo >= b && n <= size && lo - b <= size - n;
    };
    if (fits(stack, kStackSize)) return reinterpret_cast<uint8_t*>(lo);
    if (fits(&ctx, kCtxReadableBytes)) return reinterpret_cast<uint8_t*>(lo);
    for (Map* m : maps) {
      auto* am = dynamic_cast<ArrayMap*>(m);
      if (am != nullptr && fits(am->storage_base(), am->storage_bytes())) {
        return reinterpret_cast<uint8_t*>(lo);
      }
    }
    return nullptr;
  }

  // Identify which bound map a register value designates (or null).
  Map* map_at(uint64_t v) {
    for (Map* m : maps) {
      if (reinterpret_cast<uint64_t>(m) == v) return m;
    }
    return nullptr;
  }

  RefResult run() {
    regs[1] = reinterpret_cast<uint64_t>(&ctx);
    regs[10] = reinterpret_cast<uint64_t>(stack + kStackSize);

    while (true) {
      if (pc >= prog.size()) return trap("pc out of bounds");
      if (out.insns_executed >= kMaxInsnsExecuted) {
        return trap("instruction budget exceeded");
      }
      const Insn& in = prog[pc];
      ++out.insns_executed;
      if (in.dst >= kNumRegs || in.src >= kNumRegs) {
        return trap("register index out of range");
      }
      const uint64_t imm_u = static_cast<uint64_t>(in.imm);

      if (is_alu64(in.op)) {
        const uint64_t b = uses_imm_operand(in.op) ? imm_u : regs[in.src];
        regs[in.dst] = eval64(in.op, regs[in.dst], b);
        ++pc;
        continue;
      }
      if (is_alu32(in.op)) {
        const uint32_t b = uses_imm_operand(in.op)
                               ? static_cast<uint32_t>(in.imm)
                               : static_cast<uint32_t>(regs[in.src]);
        regs[in.dst] =
            eval32(in.op, static_cast<uint32_t>(regs[in.dst]), b);
        ++pc;
        continue;
      }

      switch (in.op) {
        case Op::Neg: regs[in.dst] = 0 - regs[in.dst]; ++pc; continue;
        case Op::Neg32:
          regs[in.dst] =
              static_cast<uint32_t>(0 - static_cast<uint32_t>(regs[in.dst]));
          ++pc;
          continue;
        case Op::LdImm64: regs[in.dst] = imm_u; ++pc; continue;
        case Op::LdMapFd: {
          if (in.imm < 0 || static_cast<size_t>(in.imm) >= maps.size()) {
            return trap("LdMapFd slot out of range");
          }
          regs[in.dst] =
              reinterpret_cast<uint64_t>(maps[static_cast<size_t>(in.imm)]);
          ++pc;
          continue;
        }
        default: break;
      }

      if (const int width = mem_width(in.op); width != 0) {
        const bool is_load =
            in.op == Op::LdxB || in.op == Op::LdxH || in.op == Op::LdxW ||
            in.op == Op::LdxDW;
        const uint64_t base = is_load ? regs[in.src] : regs[in.dst];
        uint8_t* p = resolve(base + in.off, static_cast<size_t>(width));
        if (p == nullptr) return trap("memory access violation");
        if (is_load) {
          uint64_t v = 0;
          std::memcpy(&v, p, static_cast<size_t>(width));  // little-endian
          regs[in.dst] = v;
        } else {
          const bool from_reg =
              in.op == Op::StxB || in.op == Op::StxH || in.op == Op::StxW ||
              in.op == Op::StxDW;
          const uint64_t v = from_reg ? regs[in.src] : imm_u;
          std::memcpy(p, &v, static_cast<size_t>(width));
        }
        ++pc;
        continue;
      }

      // Control flow, helpers, exit.
      switch (in.op) {
        case Op::Ja: case Op::JeqReg: case Op::JeqImm: case Op::JneReg:
        case Op::JneImm: case Op::JgtReg: case Op::JgtImm: case Op::JgeReg:
        case Op::JgeImm: case Op::JltReg: case Op::JltImm: case Op::JleReg:
        case Op::JleImm: case Op::JsgtReg: case Op::JsgtImm: case Op::JsgeReg:
        case Op::JsgeImm: case Op::JsltReg: case Op::JsltImm: case Op::JsleReg:
        case Op::JsleImm: case Op::JsetReg: case Op::JsetImm: {
          const uint64_t a = regs[in.dst];
          const uint64_t b =
              (in.op == Op::JeqReg || in.op == Op::JneReg ||
               in.op == Op::JgtReg || in.op == Op::JgeReg ||
               in.op == Op::JltReg || in.op == Op::JleReg ||
               in.op == Op::JsgtReg || in.op == Op::JsgeReg ||
               in.op == Op::JsltReg || in.op == Op::JsleReg ||
               in.op == Op::JsetReg)
                  ? regs[in.src]
                  : imm_u;
          const auto sa = static_cast<int64_t>(a);
          const auto sb = static_cast<int64_t>(b);
          bool taken = false;
          switch (in.op) {
            case Op::Ja: taken = true; break;
            case Op::JeqReg: case Op::JeqImm: taken = a == b; break;
            case Op::JneReg: case Op::JneImm: taken = a != b; break;
            case Op::JgtReg: case Op::JgtImm: taken = a > b; break;
            case Op::JgeReg: case Op::JgeImm: taken = a >= b; break;
            case Op::JltReg: case Op::JltImm: taken = a < b; break;
            case Op::JleReg: case Op::JleImm: taken = a <= b; break;
            case Op::JsgtReg: case Op::JsgtImm: taken = sa > sb; break;
            case Op::JsgeReg: case Op::JsgeImm: taken = sa >= sb; break;
            case Op::JsltReg: case Op::JsltImm: taken = sa < sb; break;
            case Op::JsleReg: case Op::JsleImm: taken = sa <= sb; break;
            case Op::JsetReg: case Op::JsetImm: taken = (a & b) != 0; break;
            default: break;
          }
          const int64_t target =
              static_cast<int64_t>(pc) + 1 + (taken ? in.off : 0);
          if (target < 0) return trap("jump to negative pc");
          pc = static_cast<size_t>(target);
          continue;
        }

        case Op::Call: {
          switch (static_cast<HelperId>(in.imm)) {
            case HelperId::MapLookupElem: {
              auto* am = dynamic_cast<ArrayMap*>(map_at(regs[1]));
              if (am == nullptr) return trap("lookup: r1 is not an array map");
              uint8_t* kp = resolve(regs[2], 4);
              if (kp == nullptr) return trap("lookup: bad key pointer");
              uint32_t key;
              std::memcpy(&key, kp, 4);
              regs[0] = reinterpret_cast<uint64_t>(am->lookup(key));
              break;
            }
            case HelperId::MapUpdateElem: {
              auto* am = dynamic_cast<ArrayMap*>(map_at(regs[1]));
              if (am == nullptr) return trap("update: r1 is not an array map");
              uint8_t* kp = resolve(regs[2], 4);
              if (kp == nullptr) return trap("update: bad key pointer");
              uint8_t* vp = resolve(regs[3], am->value_size());
              if (vp == nullptr) return trap("update: bad value pointer");
              uint32_t key;
              std::memcpy(&key, kp, 4);
              regs[0] = am->update(key, vp) ? 0 : static_cast<uint64_t>(-1);
              break;
            }
            case HelperId::SkSelectReuseport: {
              if (regs[1] != reinterpret_cast<uint64_t>(&ctx)) {
                return trap("sk_select: r1 is not the context");
              }
              auto* sa = dynamic_cast<ReuseportSockArray*>(map_at(regs[2]));
              if (sa == nullptr) return trap("sk_select: r2 is not a sockarray");
              uint8_t* kp = resolve(regs[3], 4);
              if (kp == nullptr) return trap("sk_select: bad key pointer");
              uint32_t key;
              std::memcpy(&key, kp, 4);
              const uint64_t cookie = sa->get(key);
              if (cookie == kNoSocket) {
                regs[0] = static_cast<uint64_t>(-2);  // -ENOENT
              } else {
                ctx.selected_socket = cookie;
                ctx.selection_made = true;
                regs[0] = 0;
              }
              break;
            }
            case HelperId::KtimeGetNs:
              regs[0] = time_fn ? time_fn() : 0;
              break;
            case HelperId::GetPrandomU32:
              regs[0] = rand_fn ? rand_fn() : 0;
              break;
            default:
              return trap("unknown helper id");
          }
          // r1-r5 are caller-saved: the kernel clobbers them across calls.
          // Vm leaves them intact, but verified programs never read them
          // after a call, so the two implementations agree observably.
          ++pc;
          continue;
        }

        case Op::Exit:
          out.ret = regs[0];
          return out;

        default:
          return trap("unhandled opcode");
      }
    }
  }
};

}  // namespace

RefResult ref_run(const Program& prog, std::span<Map* const> maps,
                  ReuseportCtx& ctx, const Vm::TimeFn& time_fn,
                  const Vm::RandFn& rand_fn) {
  Interp interp{prog, maps, ctx, time_fn, rand_fn};
  return interp.run();
}

}  // namespace hermes::bpf
