// Dispatch hot path microbench: ns/dispatch of the production eBPF
// dispatch program under each execution tier (src/bpf/plan.h).
//
//   tier 2  pre-decoded threaded plan (superinstruction fusion, computed
//           goto, map pointers resolved at load) with verifier-guided
//           check elision — the production tier
//   tier 3  native x86-64 JIT over the tier-2 micro-ops (bpf/jit/); on
//           hosts without codegen the row silently measures the tier-2
//           fallback and the tier3-vs-tier2 bar is reported as SKIP
//
// The program under test is core::build_dispatch_program — the exact
// bytecode sim::LbDevice attaches — at the two-level geometry (2 groups x
// 8 workers), so one dispatch exercises both popcounts, the 63-unit
// rank-select ladder, and the isolate-lowest-bit epilogue that the plan
// fuses into superinstructions.
//
// Wall-clock metrics carry the _cost_ns / .speedup suffixes and are
// reported but never gated (bench/bench_gate_check.cc); the gated metrics
// are the deterministic ones: insns/dispatch per tier (tier-invariant by
// construction — fused micro-ops charge their original instruction
// counts), plan shape (uops, fusion/elision site counts), and per-dispatch
// fused/elided counter rates.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bpf/jit/jit.h"
#include "bpf/maps.h"
#include "bpf/plan.h"
#include "bpf/vm.h"
#include "core/dispatch_prog.h"
#include "simcore/rng.h"
#include "util/check.h"

namespace hermes::bench {
namespace {

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

template <typename F>
double ns_per_op(F&& op, int iters) {
  for (int i = 0; i < iters / 10; ++i) op(i);  // warmup
  double best = 1e300;
  for (int rep = 0; rep < 5; ++rep) {
    const double start = cpu_seconds();
    for (int i = 0; i < iters; ++i) op(i);
    best = std::min(best, cpu_seconds() - start);
  }
  return best / iters * 1e9;
}

constexpr uint32_t kNumGroups = 2;
constexpr uint32_t kWorkersPerGroup = 8;
constexpr size_t kNumCtxs = 1024;  // power of two (cheap index mask)
constexpr int kTimedIters = 200'000;

struct TierResult {
  double cost_ns = 0;
  // Deterministic sweep over the kNumCtxs contexts:
  uint64_t insns = 0;
  uint64_t fused_hits = 0;
  uint64_t elided_checks = 0;
  uint64_t selections = 0;
  uint64_t ret_sum = 0;
  bpf::ExecutionPlan::Stats plan{};
};

TierResult run_tier(bpf::ExecTier tier,
                    const std::vector<bpf::ReuseportCtx>& ctxs) {
  core::DispatchProgramParams params;
  params.num_groups = kNumGroups;
  params.workers_per_group = kWorkersPerGroup;
  bpf::ArrayMap sel(params.num_groups, sizeof(uint64_t));
  sel.store_u64(0, 0xad);  // 5 of 8 workers available
  sel.store_u64(1, 0x5f);  // 6 of 8
  bpf::ReuseportSockArray socks(kNumGroups * kWorkersPerGroup);
  for (uint32_t w = 0; w < kNumGroups * kWorkersPerGroup; ++w) {
    socks.update(w, 1000 + w);
  }

  bpf::Vm vm;
  vm.set_tier(tier);
  std::string err;
  auto loaded =
      vm.load(core::build_dispatch_program(params), {&sel, &socks}, &err);
  HERMES_CHECK_MSG(loaded != nullptr, "dispatch program rejected");
  const bpf::ExecTier expected =
      (tier == bpf::ExecTier::Jit && !bpf::jit::available())
          ? bpf::ExecTier::Elide
          : tier;
  HERMES_CHECK(loaded->tier() == expected);
  // Fusion must have fired on the production program: 2 popcounts, the
  // full rank-select ladder, 1 isolate-lowest-bit.
  HERMES_CHECK(loaded->plan()->stats().fused_popcount == 2);
  HERMES_CHECK(loaded->plan()->stats().fused_isolate == 1);

  TierResult r;
  r.plan = loaded->plan()->stats();

  // Deterministic sweep: every context once, results accumulated.
  for (const bpf::ReuseportCtx& c : ctxs) {
    bpf::ReuseportCtx ctx = c;
    const bpf::Vm::RunResult run = vm.run(*loaded, ctx);
    r.insns += run.insns_executed;
    r.fused_hits += run.fused_hits;
    r.elided_checks += run.elided_checks;
    r.ret_sum += run.ret * 31 + ctx.selected_socket;
    if (ctx.selection_made) ++r.selections;
  }

  // Timed loop: cycle through the contexts so the branch pattern matches
  // production traffic rather than one lucky hash.
  std::vector<bpf::ReuseportCtx> scratch = ctxs;
  r.cost_ns = ns_per_op(
      [&](int i) {
        bpf::ReuseportCtx& ctx = scratch[static_cast<size_t>(i) &
                                         (kNumCtxs - 1)];
        ctx.selection_made = 0;
        (void)vm.run(*loaded, ctx);
      },
      kTimedIters);
  return r;
}

// One-time translation-validation cost: wall-clock of a full tier-3
// Vm::load (verify + plan compile + codegen) with the validator forced
// on vs off. This is load-time work — it never touches the dispatch hot
// path — so the row is reported for sizing (how much a validated attach
// costs) and never gated.
double load_cost_ns(const char* validate_env) {
  core::DispatchProgramParams params;
  params.num_groups = kNumGroups;
  params.workers_per_group = kWorkersPerGroup;
  bpf::ArrayMap sel(params.num_groups, sizeof(uint64_t));
  bpf::ReuseportSockArray socks(kNumGroups * kWorkersPerGroup);
  for (uint32_t w = 0; w < kNumGroups * kWorkersPerGroup; ++w) {
    socks.update(w, 1000 + w);
  }
  const bpf::Program prog = core::build_dispatch_program(params);
  bpf::Vm vm;
  vm.set_tier(bpf::ExecTier::Jit);

  const char* saved = ::getenv("HERMES_BPF_VALIDATE");
  const std::string saved_val = saved != nullptr ? saved : "";
  ::setenv("HERMES_BPF_VALIDATE", validate_env, 1);
  const double cost = ns_per_op(
      [&](int) {
        std::string err;
        auto loaded = vm.load(prog, {&sel, &socks}, &err);
        HERMES_CHECK_MSG(loaded != nullptr, "dispatch program rejected");
      },
      200);
  if (saved != nullptr) {
    ::setenv("HERMES_BPF_VALIDATE", saved_val.c_str(), 1);
  } else {
    ::unsetenv("HERMES_BPF_VALIDATE");
  }
  return cost;
}

int main_impl(int argc, char** argv) {
  BenchJson json("dispatch_path", &argc, argv);
  header("dispatch_path: ns/dispatch per eBPF execution tier");

  std::vector<bpf::ReuseportCtx> ctxs(kNumCtxs);
  sim::Rng rng(17);
  for (bpf::ReuseportCtx& c : ctxs) {
    c.hash = static_cast<uint32_t>(rng.next_u64());
    c.hash2 = static_cast<uint32_t>(rng.next_u64());
    c.ip_protocol = 6;
  }

  const bpf::ExecTier tiers[] = {bpf::ExecTier::Elide, bpf::ExecTier::Jit};
  TierResult res[2];
  for (int t = 0; t < 2; ++t) res[t] = run_tier(tiers[t], ctxs);
  const TierResult& elide = res[0];
  const TierResult& jit = res[1];

  // Tier equivalence on the production program: identical returns,
  // selections, and instruction counts, or the bench itself is measuring
  // two different programs.
  HERMES_CHECK_MSG(jit.ret_sum == elide.ret_sum &&
                       jit.selections == elide.selections &&
                       jit.insns == elide.insns,
                   "tier divergence on dispatch program");

  const double n = static_cast<double>(kNumCtxs);
  std::printf("\n%-28s %12s %14s %10s %10s\n", "tier", "ns/dispatch",
              "insns/dispatch", "fused/d", "elided/d");
  for (int t = 0; t < 2; ++t) {
    std::printf("%-28s %12.1f %14.1f %10.2f %10.2f\n",
                bpf::to_string(tiers[t]), res[t].cost_ns,
                static_cast<double>(res[t].insns) / n,
                static_cast<double>(res[t].fused_hits) / n,
                static_cast<double>(res[t].elided_checks) / n);
  }

  const double jit_vs_elide = elide.cost_ns / jit.cost_ns;
  std::printf("plan: %" PRIu64 " insns -> %" PRIu64
              " uops (popcount=%u blsr=%u isolate=%u, elided sites=%u of "
              "%u mem/helper sites)\n",
              static_cast<uint64_t>(elide.plan.n_insns),
              static_cast<uint64_t>(elide.plan.n_uops),
              elide.plan.fused_popcount, elide.plan.fused_blsr,
              elide.plan.fused_isolate, elide.plan.elided_sites,
              elide.plan.elided_sites + elide.plan.checked_sites);
  std::printf("\npaper says: dispatch program overhead is negligible "
              "(Table 5); we measure the\ntiered engine keeping it so — "
              "acceptance bar is tier3 >= 2x tier2 (native code vs\n"
              "threaded dispatch).\n");
  std::printf("bar: tier3/tier2 %.2fx (%s)\n", jit_vs_elide,
              bpf::jit::available() ? (jit_vs_elide >= 2.0 ? "PASS" : "FAIL")
                                    : "SKIP: jit unavailable");

  // One-time validation cost at load: how much slower a tier-3 attach is
  // with translation validation on. Pure load-time work, never gated.
  const double load_plain_ns = load_cost_ns("0");
  const double load_validated_ns = load_cost_ns("1");
  std::printf("\ntier-3 load (one-time): %.0f ns plain, %.0f ns validated "
              "(+%.0f ns, %.2fx)%s\n",
              load_plain_ns, load_validated_ns,
              load_validated_ns - load_plain_ns,
              load_validated_ns / load_plain_ns,
              bpf::jit::available() ? "" : " (jit unavailable: no validation)");

  // Wall-clock: reported, never gated.
  json.metric("load_cost_ns", load_plain_ns);
  json.metric("load_validated_cost_ns", load_validated_ns);
  json.metric("tier2_cost_ns", elide.cost_ns);
  json.metric("tier3_cost_ns", jit.cost_ns);
  json.metric("tier3_vs_tier2.speedup", jit_vs_elide);
  // Deterministic: gated against bench/baseline.json. The tier-3 rates
  // equal tier 2's by construction (same micro-op stream and counter
  // charges), so the baseline stays portable to non-JIT hosts.
  for (int t = 0; t < 2; ++t) {
    const std::string p =
        "tier" + std::to_string(static_cast<int>(tiers[t]));
    json.metric(p + "_insns_per_dispatch",
                static_cast<double>(res[t].insns) / n);
    json.metric(p + "_fused_per_dispatch",
                static_cast<double>(res[t].fused_hits) / n);
    json.metric(p + "_elided_per_dispatch",
                static_cast<double>(res[t].elided_checks) / n);
  }
  json.metric("plan_uops", static_cast<double>(elide.plan.n_uops));
  json.metric("plan_fused_popcount",
              static_cast<double>(elide.plan.fused_popcount));
  json.metric("plan_fused_blsr", static_cast<double>(elide.plan.fused_blsr));
  json.metric("plan_fused_isolate",
              static_cast<double>(elide.plan.fused_isolate));
  json.metric("plan_elided_sites",
              static_cast<double>(elide.plan.elided_sites));
  return 0;
}

}  // namespace
}  // namespace hermes::bench

int main(int argc, char** argv) {
  return hermes::bench::main_impl(argc, argv);
}
