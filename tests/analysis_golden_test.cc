// Golden digest of the abstract interpreter's output.
//
// Every field of every AnalysisResult — verdict, error text, error pc,
// the abstract register dump at the failing pc, dead instructions and
// edges, step count, loop trips, the return range, and the per-pc helper
// and memory-access facts — is folded into one 64-bit digest per corpus
// and compared against values pinned from a known-good analyzer. The
// corpora:
//
//   * seeds 0..9999 of testing::gen_program (accepted AND rejected
//     programs, so rejection messages and error states are covered);
//   * every scheduling policy's dispatch program (core/policy.h) across
//     single-group and two-level pool geometries, plus the bare dispatch
//     program and the planted out-of-range variants;
//   * the bench/analysis_cost corpora (fixed atom counts) and its counted
//     loops.
//
// The test exists to make performance work on the analyzer safe: any
// change to its internal representation must leave this digest unmoved.
// A deliberate change to analyzer output re-pins the constants below
// (TESTING.md, "Analyzer golden digest").
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bpf/analysis/interp.h"
#include "bpf/assembler.h"
#include "bpf/maps.h"
#include "core/dispatch_prog.h"
#include "core/policy.h"
#include "simcore/rng.h"
#include "testing/fuzz_gen.h"

namespace hermes::bpf::analysis {
namespace {

// Pinned digests. Re-pin only for an intended change in analyzer output.
constexpr uint64_t kFuzzDigest = 0x84c24771c04e1018;
constexpr uint64_t kDispatchDigest = 0x60e25e92caf4ff57;
constexpr uint64_t kCostCorpusDigest = 0x4e9a674f385fab3a;

// FNV-1a over a canonical little-endian encoding of each field.
class Digest {
 public:
  void u64(uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<uint8_t>(v >> (8 * i)));
  }
  void str(const std::string& s) {
    u64(s.size());
    for (char c : s) byte(static_cast<uint8_t>(c));
  }
  void range(const ValueRange& r) {
    u64(r.tn.value);
    u64(r.tn.mask);
    u64(r.umin);
    u64(r.umax);
    u64(static_cast<uint64_t>(r.smin));
    u64(static_cast<uint64_t>(r.smax));
  }
  void result(const AnalysisResult& r) {
    u64(r.ok ? 1 : 0);
    str(r.error);
    u64(r.error_pc);
    str(r.error_state);
    u64(r.dead_insns);
    u64(r.dead_edges);
    u64(r.analysis_steps);
    u64(r.max_loop_trips);
    u64(r.ret_reachable ? 1 : 0);
    range(r.ret);
    u64(r.helper_calls.size());
    for (const HelperCallInfo& h : r.helper_calls) {
      u64(h.pc);
      u64(static_cast<uint64_t>(h.id));
      u64(static_cast<uint64_t>(static_cast<int64_t>(h.map_slot)));
      u64(h.key_known ? 1 : 0);
      range(h.key);
    }
    u64(r.mem_accesses.size());
    for (const MemAccessInfo& m : r.mem_accesses) {
      u64(m.pc);
      u64(static_cast<uint64_t>(m.base_kind));
      u64(m.proven ? 1 : 0);
    }
  }
  uint64_t value() const { return h_; }

 private:
  void byte(uint8_t b) {
    h_ ^= b;
    h_ *= 0x100000001b3ull;
  }
  uint64_t h_ = 0xcbf29ce484222325ull;
};

std::string hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

TEST(AnalysisGolden, FuzzCorpusDigest) {
  // The generator's default harness: slot 0 = ArrayMap(2, 8), slot 1 =
  // SockArray(8).
  const testing::GenOptions gen;
  ArrayMap array(gen.array_entries, sizeof(uint64_t));
  ReuseportSockArray socks(gen.sock_entries);
  const std::vector<Map*> maps = {&array, &socks};
  Digest d;
  int accepted = 0;
  int rejected = 0;
  for (uint64_t seed = 0; seed < 10'000; ++seed) {
    sim::Rng rng(seed);
    const Program prog = testing::gen_program(rng, gen);
    const AnalysisResult r = analyze(prog, maps);
    d.result(r);
    (r.ok ? accepted : rejected) += 1;
  }
  // Both verdict classes must be in the digest.
  EXPECT_GT(accepted, 1000);
  EXPECT_GT(rejected, 100);
  EXPECT_EQ(hex(d.value()), hex(kFuzzDigest));
}

TEST(AnalysisGolden, DispatchProgramsDigest) {
  struct Geometry {
    uint32_t groups, per_group;
  };
  std::vector<Geometry> geometries;
  for (uint32_t w = 1; w <= 64; ++w) geometries.push_back({1, w});
  for (const Geometry g : {Geometry{2, 8}, Geometry{2, 64}, Geometry{3, 5},
                           Geometry{4, 16}, Geometry{4, 32}, Geometry{8, 64},
                           Geometry{16, 16}, Geometry{64, 64}}) {
    geometries.push_back(g);
  }
  core::PolicyConfig pcfg;
  pcfg.worker_weights = {4, 4, 2, 1};

  Digest d;
  int analyzed = 0;
  for (const Geometry& g : geometries) {
    const uint32_t n_socks = g.groups * g.per_group;
    ArrayMap sel(g.groups, sizeof(uint64_t));
    ReuseportSockArray socks(n_socks);
    for (uint32_t min_workers : {1u, 2u}) {
      core::DispatchProgramParams base;
      base.num_groups = g.groups;
      base.workers_per_group = g.per_group;
      base.min_workers = min_workers;
      {
        const std::vector<Map*> maps = {&sel, &socks};
        d.result(analyze(core::build_dispatch_program(base), maps));
        ++analyzed;
      }
      for (size_t k = 0; k < core::kPolicyCount; ++k) {
        const auto policy =
            core::make_policy(static_cast<core::PolicyKind>(k), pcfg);
        const uint32_t aux_bytes = policy->aux_value_bytes();
        ArrayMap aux(g.groups, aux_bytes > 0 ? aux_bytes : 8);
        std::vector<Map*> maps = {&sel, &socks};
        if (aux_bytes > 0) maps.push_back(&aux);
        for (bool planted : {false, true}) {
          core::PolicyProgramParams pp;
          pp.base = base;
          pp.plant_out_of_range = planted;
          d.result(analyze(policy->build_program(pp), maps));
          ++analyzed;
        }
      }
    }
  }
  EXPECT_EQ(analyzed, static_cast<int>(geometries.size()) * 2 *
                          (1 + 2 * static_cast<int>(core::kPolicyCount)));
  EXPECT_EQ(hex(d.value()), hex(kDispatchDigest));
}

TEST(AnalysisGolden, CostCorpusDigest) {
  ArrayMap array(2, sizeof(uint64_t));
  ReuseportSockArray socks(8);
  const std::vector<Map*> maps = {&array, &socks};
  Digest d;
  auto corpus = [&](uint32_t atoms, int count, uint64_t seed_base) {
    testing::GenOptions opt;
    opt.min_atoms = atoms;
    opt.max_atoms = atoms;
    for (int i = 0; i < count; ++i) {
      sim::Rng rng(seed_base + static_cast<uint64_t>(i));
      d.result(analyze(testing::gen_program(rng, opt), maps));
    }
  };
  // bench/analysis_cost's size table and its microbenchmark corpora.
  for (uint32_t atoms : {2u, 4u, 8u, 16u, 32u}) {
    corpus(atoms, 200, 0xc057ull * atoms);
  }
  for (uint32_t atoms : {2u, 8u, 32u}) corpus(atoms, 32, 0xbe7c0000 + atoms);
  // Its counted loops: per-iteration replay up to and past the trip bound.
  for (int64_t trips : {1, 8, 32, 128, 129}) {
    Assembler a;
    a.mov(r0, 0).mov(r7, 0);
    a.label("top");
    a.add(r0, 3).add(r7, 1);
    a.jlt(r7, trips, "top");
    a.exit();
    d.result(analyze(a.finish(), maps));
  }
  EXPECT_EQ(hex(d.value()), hex(kCostCorpusDigest));
}

}  // namespace
}  // namespace hermes::bpf::analysis
