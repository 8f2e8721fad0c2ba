// Stage-2 scheduling hot path microbench: ns per Scheduler::schedule call
// against the reference implementation kept as the differential oracle
// (testing/sched_reference.h, DESIGN.md §8).
//
//   reference  per-worker WST read() snapshots and scalar filter loops
//   fast       Scheduler::schedule: one SoA gather over the group slice,
//              then branchless bit-walking fixed-point filters
//
// Scenarios, all at 64 workers (one full bitmap word — the paper's group
// size and the acceptance geometry):
//   steady   static load split: half the workers over the connection
//            threshold; the bitmap never changes (the sim's common case —
//            load shifts slowly relative to loop rate);
//   churn    one worker's pending count toggles every call, so the bitmap
//            keeps flipping.
//
// Wall-clock metrics carry the _cost_ns / .speedup suffixes and are
// reported but never gated (bench/bench_gate_check.cc); the gated metrics
// are deterministic: the published/suppressed sync counts of a scripted
// virtual-time schedule_and_sync sweep, and the bitmap checksum of that
// sweep as computed by the scheduler and by the reference, which any
// change to filter semantics or suppression policy would shift.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/hermes.h"
#include "core/scheduler.h"
#include "simcore/rng.h"
#include "testing/sched_reference.h"
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

constexpr uint32_t kWorkers = 64;
constexpr int kTimedIters = 100'000;
// Virtual-time step per call: 1 us, so ~5000 calls fit one 5 ms refresh
// interval — the sim's own ratio of loop rate to refresh rate.
constexpr int64_t kStepNs = 1'000;

core::HermesRuntime make_runtime(uint32_t workers) {
  core::HermesRuntime::Options opts;
  opts.num_workers = workers;
  return core::HermesRuntime(opts);
}

void fill_steady(core::HermesRuntime& rt, SimTime now) {
  for (WorkerId w = 0; w < rt.num_workers(); ++w) {
    rt.hooks_for(w).on_loop_enter(now);
    // Workers with an odd id sit far above the connection average and get
    // filtered: a half-full candidate set through the later stages.
    rt.wst().add_connections(w, (w % 2) != 0 ? 10'000 : 100);
    rt.wst().add_pending(w, static_cast<int64_t>(w % 8));
  }
}

// ns per call of `schedule(rt, now)` over one scenario's WST mutation
// script (the fast path and the reference run identical scripts).
template <typename ScheduleFn>
double scenario_cost_ns(bool churn, ScheduleFn&& schedule) {
  core::HermesRuntime rt = make_runtime(kWorkers);
  const SimTime t0 = SimTime::seconds(1);
  fill_steady(rt, t0);
  int64_t vnow = t0.ns();
  return ns_per_op(
      [&](int i) {
        vnow += kStepNs;
        // Heartbeat refresh keeps everyone inside the hang threshold
        // without entering the timed loop (50 ms threshold vs 100 ms of
        // virtual time covered): re-heartbeat every 2^15 calls (~33 ms).
        if ((i & 0x7fff) == 0) {
          for (WorkerId w = 0; w < kWorkers; ++w) {
            rt.hooks_for(w).on_loop_enter(SimTime::nanos(vnow));
          }
        }
        // Churn toggles worker 0 across the pending-events threshold, so
        // the bitmap flips every call.
        if (churn) rt.wst().add_pending(0, (i & 1) != 0 ? -1'000 : 1'000);
        (void)schedule(rt, SimTime::nanos(vnow));
      },
      kTimedIters);
}

struct PathCosts {
  double steady_ns = 0;
  double churn_ns = 0;
};

template <typename ScheduleFn>
PathCosts path_costs(ScheduleFn&& schedule) {
  return {scenario_cost_ns(false, schedule), scenario_cost_ns(true, schedule)};
}

core::ScheduleResult fast_schedule(core::HermesRuntime& rt, SimTime now) {
  return rt.scheduler().schedule(rt.wst(), now, 0, kWorkers);
}

core::ScheduleResult reference_schedule(core::HermesRuntime& rt,
                                        SimTime now) {
  const core::HermesConfig& cfg = rt.config();
  return core::schedule_reference_with_order(cfg, rt.wst(), now,
                                             cfg.stage_order, cfg.num_stages,
                                             0, kWorkers);
}

// Deterministic scripted sweep (gated metrics): a fixed mutation script
// over virtual time through the production schedule_and_sync. Counters and
// both bitmap checksums must be identical on every machine and every run.
struct SweepResult {
  uint64_t syncs = 0;
  uint64_t suppressed = 0;
  uint64_t checksum_fast = 0;
  uint64_t checksum_reference = 0;
};

SweepResult run_sweep() {
  SweepResult r;
  core::HermesRuntime rt = make_runtime(kWorkers);
  sim::Rng rng(42);
  int64_t vnow = SimTime::seconds(1).ns();
  for (WorkerId w = 0; w < kWorkers; ++w) {
    rt.hooks_for(w).on_loop_enter(SimTime::nanos(vnow));
    rt.wst().add_connections(w, static_cast<int64_t>(rng.next_below(200)));
  }
  for (int i = 0; i < 20'000; ++i) {
    vnow += kStepNs;
    if (i % 1000 == 0) {
      for (WorkerId w = 0; w < kWorkers; ++w) {
        rt.hooks_for(w).on_loop_enter(SimTime::nanos(vnow));
      }
    }
    if (i % 64 == 0) {
      const auto w = static_cast<WorkerId>(rng.next_below(kWorkers));
      rt.wst().add_connections(w, 500);
    }
    const SimTime now = SimTime::nanos(vnow);
    const auto res = rt.schedule_and_sync(static_cast<WorkerId>(i & 63), now);
    const auto ref = reference_schedule(rt, now);
    // The timing comparison is only meaningful between two schedulers
    // that compute the same thing.
    HERMES_CHECK_MSG(res.bitmap == ref.bitmap &&
                         res.after_time == ref.after_time &&
                         res.after_conn == ref.after_conn &&
                         res.after_event == ref.after_event,
                     "fast/reference scheduler divergence");
    r.checksum_fast = r.checksum_fast * 1099511628211ull ^ res.bitmap;
    r.checksum_reference = r.checksum_reference * 1099511628211ull ^ ref.bitmap;
  }
  r.syncs = rt.counters().syncs;
  r.suppressed = rt.counters().syncs_suppressed;
  return r;
}

// Two-level variant: 256 workers in 4 groups, one WST scan for all groups
// vs four per-group schedule_and_sync calls.
struct TwoLevelResult {
  double per_group_cost_ns = 0;  // 4x schedule_and_sync
  double all_groups_cost_ns = 0; // one schedule_all_groups call
};

TwoLevelResult run_two_level() {
  constexpr uint32_t kBigWorkers = 256;
  TwoLevelResult r;
  {
    core::HermesRuntime rt = make_runtime(kBigWorkers);
    fill_steady(rt, SimTime::seconds(1));
    int64_t vnow = SimTime::seconds(1).ns();
    const uint32_t wpg = rt.workers_per_group();
    r.per_group_cost_ns = ns_per_op(
        [&](int i) {
          vnow += kStepNs;
          if ((i & 0x3fff) == 0) {
            for (WorkerId w = 0; w < kBigWorkers; ++w) {
              rt.hooks_for(w).on_loop_enter(SimTime::nanos(vnow));
            }
          }
          for (uint32_t g = 0; g < rt.num_groups(); ++g) {
            (void)rt.schedule_and_sync(static_cast<WorkerId>(g * wpg),
                                       SimTime::nanos(vnow));
          }
        },
        kTimedIters / 4);
  }
  {
    core::HermesRuntime rt = make_runtime(kBigWorkers);
    fill_steady(rt, SimTime::seconds(1));
    int64_t vnow = SimTime::seconds(1).ns();
    std::vector<core::ScheduleResult> out(rt.num_groups());
    r.all_groups_cost_ns = ns_per_op(
        [&](int i) {
          vnow += kStepNs;
          if ((i & 0x3fff) == 0) {
            for (WorkerId w = 0; w < kBigWorkers; ++w) {
              rt.hooks_for(w).on_loop_enter(SimTime::nanos(vnow));
            }
          }
          rt.schedule_all_groups(0, SimTime::nanos(vnow), out.data());
        },
        kTimedIters / 4);
  }
  return r;
}

int main_impl(int argc, char** argv) {
  BenchJson json("sched_path", &argc, argv);
  header("sched_path: ns/schedule per scheduler implementation, 64 workers");

  const SweepResult sweep = run_sweep();
  const PathCosts ref = path_costs(reference_schedule);
  const PathCosts fast = path_costs(fast_schedule);
  const TwoLevelResult two = run_two_level();

  std::printf("\n%-12s %16s %16s\n", "path", "steady ns/call", "churn ns/call");
  std::printf("%-12s %16.1f %16.1f\n", "reference", ref.steady_ns,
              ref.churn_ns);
  std::printf("%-12s %16.1f %16.1f\n", "fast", fast.steady_ns,
              fast.churn_ns);

  const double steady_speedup = ref.steady_ns / fast.steady_ns;
  const double churn_speedup = ref.churn_ns / fast.churn_ns;
  std::printf("\nspeedup steady: %.2fx   churn: %.2fx\n", steady_speedup,
              churn_speedup);

  const double total = 20'000.0;
  std::printf("scripted schedule_and_sync sweep (20k calls): published %llu, "
              "suppressed %llu (%.1f%%)\n",
              static_cast<unsigned long long>(sweep.syncs),
              static_cast<unsigned long long>(sweep.suppressed),
              100.0 * static_cast<double>(sweep.suppressed) / total);
  std::printf("two-level (256 workers, 4 groups): per-group %.1f ns, "
              "single-scan %.1f ns (%.2fx)\n",
              two.per_group_cost_ns, two.all_groups_cost_ns,
              two.per_group_cost_ns / two.all_groups_cost_ns);

  std::printf("\npaper says: the per-loop scheduling work must stay in the "
              "noise (Table 5 < 5%%);\nwe measure the fast path keeping it "
              "there — acceptance bar is fast >= 2x reference\nat 64 "
              "workers in the steady (common) case.\n");
  std::printf("bar: steady %.2fx (%s), bitmaps identical (checked)\n",
              steady_speedup, steady_speedup >= 2.0 ? "PASS" : "FAIL");

  // Wall-clock: reported, never gated.
  json.metric("reference_steady_cost_ns", ref.steady_ns);
  json.metric("reference_churn_cost_ns", ref.churn_ns);
  json.metric("fast_steady_cost_ns", fast.steady_ns);
  json.metric("fast_churn_cost_ns", fast.churn_ns);
  json.metric("steady.speedup", steady_speedup);
  json.metric("churn.speedup", churn_speedup);
  json.metric("two_level_per_group_cost_ns", two.per_group_cost_ns);
  json.metric("two_level_all_groups_cost_ns", two.all_groups_cost_ns);
  // Deterministic: gated against bench/baseline.json.
  json.metric("fast_sweep_syncs", static_cast<double>(sweep.syncs));
  json.metric("fast_sweep_suppressed", static_cast<double>(sweep.suppressed));
  json.metric("sweep_bitmap_checksum_fast",
              static_cast<double>(sweep.checksum_fast % 1'000'000'007));
  json.metric("sweep_bitmap_checksum_reference",
              static_cast<double>(sweep.checksum_reference % 1'000'000'007));
  return 0;
}

}  // namespace
}  // namespace hermes::bench

int main(int argc, char** argv) {
  return hermes::bench::main_impl(argc, argv);
}
