// Tiered execution engine for the in-repo eBPF dialect: the ExecutionPlan
// is a pre-decoded, direct-threaded form of a verified program, compiled
// once at Vm::load time and reused for every dispatch.
//
// compile_plan turns the program into a flat micro-op array: jump offsets
// resolved to absolute indices, LdMapFd slots resolved to map pointers,
// helper calls specialized per helper id, and the popcount / rank-select
// idioms that core/dispatch_prog.cc emits fused into superinstructions
// (19-insn Hamming weight -> 1 micro-op, 3-insn clear-lowest-bit -> 1,
// 4-insn isolate-lowest-bit -> 1). Dispatch uses computed goto where the
// compiler supports it. Given the verifier's facts, the compiler also
// elides runtime bounds checks at accesses the abstract interpreter
// (bpf/analysis/) proved in-bounds for every execution — which, for a
// verified program, is every access it visited; accesses the analysis
// range-pruned as dead keep the checked micro-op. Without facts every
// access stays checked (the form tests compile to cover the checked
// micro-ops).
//
// Two tiers are selectable: Elide (the threaded plan above, the
// production tier) and Jit (the same micro-ops compiled to native code).
// Semantics match the reference interpreter (testing/ref_interpreter.h)
// by construction and by test: a fused micro-op writes the exact final
// register values of the sequence it replaces (including clobbered
// scratch registers) and charges the sequence's full instruction count,
// so RunResult::insns_executed — the Table 5 overhead metric — is
// tier-invariant. tests/torture_bpf_diff_test runs the no-facts plan and
// both tiers over >= 10k fuzzed programs and demands byte-identical
// results.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bpf/insn.h"
#include "bpf/maps.h"

namespace hermes::bpf {

namespace analysis {
struct AnalysisResult;
}  // namespace analysis

namespace jit {
class JitCode;
}  // namespace jit

// The numeric values name the bpf.tier<N>_dispatches counters.
enum class ExecTier : uint8_t {
  Elide = 2,  // threaded micro-ops, fusion, verifier-guided check elision
  Jit = 3,    // Elide micro-ops compiled to native x86-64 (bpf/jit/);
              // falls back to Elide when the host cannot JIT
};

const char* to_string(ExecTier t);

// Why a tier-3 (Jit) load request landed on Elide instead. Split out so
// observability can count fallback causes separately (the
// bpf.jit_fallbacks_* counters) rather than folding an alloc failure, an
// operator switch, and a translation-validation rejection into one number.
enum class JitFallbackKind : uint8_t {
  None = 0,        // no fallback: a tier-3 request got tier 3
  Disabled,        // HERMES_BPF_JIT=off|0, or the host is not x86-64
  AllocFailure,    // the W^X buffer could not be mapped or protected
  ValidateReject,  // translation validation rejected the emitted code
  Other,           // codegen refusal (a micro-op it cannot translate)
};
inline constexpr size_t kJitFallbackKindCount = 5;

const char* to_string(JitFallbackKind k);

// A contiguous byte region a plan may touch (runtime checking).
struct MemRegion {
  uint8_t* base = nullptr;
  size_t size = 0;
};

// One pre-decoded instruction. `code` is the Op value for micro-ops that
// keep 1:1 instruction semantics, or one of the extended codes below.
struct MicroOp {
  uint16_t code = 0;
  uint8_t dst = 0;
  uint8_t src = 0;
  uint8_t aux = 0;      // scratch register of a fused popcount
  int32_t off = 0;      // memory displacement
  uint32_t target = 0;  // taken-jump successor (absolute micro-op index)
  int64_t imm = 0;      // immediate, or pre-resolved pointer bits
};

inline constexpr uint16_t kOpCount = static_cast<uint16_t>(Op::Exit) + 1;

// Extended micro-op codes (contiguous after the Op range so the threaded
// dispatch table stays dense).
enum UExt : uint16_t {
  ULdMapPtr = kOpCount,  // dst = imm (map pointer resolved at compile time)
  UPopcount,             // fused emit_popcount: dst, src, aux as documented
  UBlsr,                 // fused v &= v-1 triplet: dst &= dst-1, src = old-1
  UIsolateLow,           // fused (v & -v) - 1 prologue into dst from src
  // Unchecked loads/stores (analysis-proven accesses only).
  ULdxBNC, ULdxHNC, ULdxWNC, ULdxDWNC,
  UStxBNC, UStxHNC, UStxWNC, UStxDWNC,
  UStBNC, UStHNC, UStWNC, UStDWNC,
  // Helper calls, specialized per id; imm carries the pre-downcast map
  // pointer when the analysis pinned the map slot (0 = resolve at runtime).
  // The NC variants skip the key/value buffer bounds checks (the helper
  // signature check proved those buffers in-bounds).
  UCallLookup, UCallLookupNC,
  UCallUpdate, UCallUpdateNC,
  UCallSelect, UCallSelectNC,
  UCallTime, UCallRand,
  kUopCodeCount,  // dispatch-table size
};

class ExecutionPlan {
 public:
  struct Stats {
    uint32_t n_insns = 0;        // source program length
    uint32_t n_uops = 0;         // micro-ops after fusion
    uint32_t fused_popcount = 0; // segments fused per rule
    uint32_t fused_blsr = 0;
    uint32_t fused_isolate = 0;
    uint32_t elided_sites = 0;   // static count of unchecked micro-ops
    uint32_t checked_sites = 0;  // memory/helper sites that kept the check
  };

  struct ExecResult {
    uint64_t ret = 0;
    uint64_t insns_executed = 0;  // source-instruction count (tier-invariant)
    uint32_t fused_hits = 0;      // fused micro-ops executed this run
    uint32_t elided_checks = 0;   // unchecked accesses executed this run
  };

  ~ExecutionPlan();  // out-of-line: jit_ holds an incomplete type here

  ExecTier tier() const { return tier_; }
  const Stats& stats() const { return stats_; }
  std::span<const MicroOp> ops() const { return ops_; }

  // Non-null iff tier() == Jit: execute() runs the native code instead of
  // the threaded dispatch loop.
  const jit::JitCode* jit_code() const { return jit_.get(); }
  // Why a Jit request compiled down to Elide ("" when it didn't).
  const std::string& jit_fallback_reason() const {
    return jit_fallback_reason_;
  }
  JitFallbackKind jit_fallback_kind() const { return jit_fallback_kind_; }

  // Run the plan. Register/stack/helper semantics mirror the kernel
  // interpreter; violations abort (the program was verified — a trip here
  // is a repo bug).
  ExecResult execute(ReuseportCtx& ctx,
                     const std::function<uint64_t()>& time_fn,
                     const std::function<uint32_t()>& rand_fn) const;

 private:
  friend std::unique_ptr<ExecutionPlan> compile_plan(
      const Program& prog, std::span<Map* const> maps,
      const analysis::AnalysisResult* facts, ExecTier tier);

  ExecTier tier_ = ExecTier::Elide;
  std::vector<MicroOp> ops_;
  std::vector<MemRegion> map_regions_;  // array-map stores, hoisted at load
  Stats stats_;
  std::unique_ptr<jit::JitCode> jit_;  // tier 3 only
  std::string jit_fallback_reason_;
  JitFallbackKind jit_fallback_kind_ = JitFallbackKind::None;
};

// Compile a verified program into a plan. `facts` (the verifier's
// AnalysisResult) licenses check elision and helper-map pre-resolution;
// pass nullptr to compile without facts (all accesses stay checked, helper
// maps resolve at runtime).
std::unique_ptr<ExecutionPlan> compile_plan(
    const Program& prog, std::span<Map* const> maps,
    const analysis::AnalysisResult* facts, ExecTier tier);

}  // namespace hermes::bpf
