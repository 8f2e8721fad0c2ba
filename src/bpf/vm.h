// The eBPF virtual machine: loads a verified program with its bound maps
// and executes it against a ReuseportCtx (or raw context buffer).
//
// Execution model matches the kernel interpreter: 64-bit registers, 512-byte
// zeroed stack per run, helpers dispatched by id, hard instruction budget.
// Loads/stores are additionally bounds-checked at runtime (defense in depth
// on top of the verifier; a violation is a bug in this repo, so it aborts).
//
// Execution is tiered (see bpf/plan.h): load() verifies once and compiles
// the program into a cached ExecutionPlan at the Vm's tier; run() executes
// that plan. Results are bit-identical across tiers.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bpf/insn.h"
#include "bpf/maps.h"
#include "bpf/plan.h"
#include "bpf/verifier.h"

namespace hermes::bpf {

// A loaded, verified program. Create via Vm::load().
class LoadedProgram {
 public:
  const Program& insns() const { return prog_; }
  std::span<Map* const> maps() const { return maps_; }

  // Tier this program actually executes at — may be Elide when a Jit
  // request fell back (see Vm::jit_fallback_reason).
  ExecTier tier() const { return plan_->tier(); }
  const ExecutionPlan* plan() const { return plan_.get(); }

 private:
  friend class Vm;
  Program prog_;
  std::vector<Map*> maps_;
  std::unique_ptr<ExecutionPlan> plan_;
};

class Vm {
 public:
  // Time source for the KtimeGetNs helper; the simulator wires the sim
  // clock in, the live demo wires CLOCK_MONOTONIC.
  using TimeFn = std::function<uint64_t()>;
  using RandFn = std::function<uint32_t()>;

  void set_time_fn(TimeFn fn) { time_fn_ = std::move(fn); }
  void set_rand_fn(RandFn fn) { rand_fn_ = std::move(fn); }

  // Tier for subsequently loaded programs (already-loaded programs keep
  // the plan they were compiled with). A fresh Vm compiles at Elide, the
  // production tier; tests and benches pin Jit here.
  ExecTier tier() const { return tier_; }
  void set_tier(ExecTier t) { tier_ = t; }

  // Verify + bind maps + compile the execution plan for the current tier.
  // Returns nullptr and fills `error` on rejection.
  std::unique_ptr<LoadedProgram> load(Program prog, std::vector<Map*> maps,
                                      std::string* error = nullptr) const;

  struct RunResult {
    uint64_t ret = 0;          // r0 at exit
    uint64_t insns_executed = 0;  // source instructions; tier-invariant
    ExecTier tier = ExecTier::Elide;  // tier that executed this run
    uint32_t fused_hits = 0;      // fused micro-ops executed
    uint32_t elided_checks = 0;   // unchecked accesses executed
  };

  // Run against a reuseport context. The program may call
  // bpf_sk_select_reuseport, which records its decision into `ctx`.
  RunResult run(const LoadedProgram& prog, ReuseportCtx& ctx) const;

  // Cumulative executed-instruction counter across run() calls (overhead
  // accounting for Table 5).
  uint64_t total_insns() const { return total_insns_; }

  // Tier-3 fallback state: how many load() calls requested Jit but got an
  // Elide plan, and why the most recent one fell back. Never a silent
  // downgrade — core/hermes.cc forwards this to the bpf.jit_fallbacks
  // observability counters (split by kind: disabled / alloc failure /
  // validation rejection).
  uint64_t jit_fallbacks() const { return jit_fallbacks_; }
  const std::string& jit_fallback_reason() const {
    return jit_fallback_reason_;
  }
  JitFallbackKind jit_fallback_kind() const { return jit_fallback_kind_; }
  uint64_t jit_fallbacks_by_kind(JitFallbackKind k) const {
    return jit_fallbacks_by_kind_[static_cast<size_t>(k)];
  }

 private:
  TimeFn time_fn_;
  RandFn rand_fn_;
  ExecTier tier_ = ExecTier::Elide;
  mutable uint64_t total_insns_ = 0;
  mutable uint64_t jit_fallbacks_ = 0;
  mutable std::string jit_fallback_reason_;
  mutable JitFallbackKind jit_fallback_kind_ = JitFallbackKind::None;
  mutable uint64_t jit_fallbacks_by_kind_[kJitFallbackKindCount] = {};
};

}  // namespace hermes::bpf
