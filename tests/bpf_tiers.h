// The two selectable eBPF execution tiers (bpf/plan.h). The semantic bpf
// suites run every case at both in one binary and demand identical
// results. On a host that cannot JIT, the Jit leg runs the Elide fallback
// (the fallback contract itself is pinned in bpf_jit_test).
#pragma once

#include <gtest/gtest.h>

#include "bpf/plan.h"
#include "bpf/vm.h"

namespace hermes::bpf {

inline constexpr ExecTier kTiers[] = {ExecTier::Elide, ExecTier::Jit};

// Runs `body(vm)` once per tier, each time on a fresh Vm pinned to it.
template <typename Body>
void for_each_tier(Body&& body) {
  for (ExecTier tier : kTiers) {
    SCOPED_TRACE(to_string(tier));
    Vm vm;
    vm.set_tier(tier);
    body(vm);
  }
}

}  // namespace hermes::bpf
