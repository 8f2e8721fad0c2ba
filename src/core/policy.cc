#include "core/policy.h"

#include <cstring>

#include "bpf/assembler.h"
#include "util/check.h"

namespace hermes::core {

namespace {

using bpf::Assembler;
using bpf::HelperId;
using bpf::R;
using namespace hermes::bpf;  // r0..r10 register names

// Second p2c sample: a deterministic 32-bit multiplicative mix of the
// 4-tuple hash (Fibonacci hashing constant). NOT bpf_get_prandom_u32 —
// the reference mirror and the tier-equivalence fuzz sweep both need the
// decision to be a pure function of the context.
constexpr uint32_t kP2cHashMix = 0x9E3779B1u;

// Aux map lookup with the group key already spilled at fp-4 by the
// prologue. Null check jumps to "fallback"; the value pointer lands in r0.
void emit_aux_lookup(Assembler& a, const PolicyProgramParams& p) {
  a.ld_map_fd(r1, p.aux_map_slot);
  a.mov(r2, r10);
  a.add(r2, -4);
  a.call(HelperId::MapLookupElem);
  a.jeq(r0, 0, "fallback");
}

uint64_t clamp_nonneg(int64_t v) {
  return v < 0 ? 0 : static_cast<uint64_t>(v);
}

// ---------------------------------------------------------------------------
// cascade — the paper's pair, kept as default and reference.

class CascadePolicy final : public SchedulingPolicy {
 public:
  PolicyKind kind() const override { return PolicyKind::Cascade; }

  bpf::Program build_program(const PolicyProgramParams& p) const override {
    if (!p.plant_out_of_range) {
      // Byte-identical to the pre-policy-framework program.
      return build_dispatch_program(p.base);
    }
    Assembler a;
    emit::dispatch_prologue(a, p.base);
    a.ldx_w(r1, r6, bpf::kCtxOffHash);
    a.mul(r1, r9);
    a.rsh(r1, 32);
    a.add(r1, 1);
    emit::rank_select(a, "cascade");
    emit::dispatch_epilogue(a, p.base, r2, /*emit_guard=*/false);
    return a.finish();
  }

  WorkerId reference_dispatch(const PolicyProgramParams& p,
                              const uint64_t* group_bitmaps,
                              uint8_t* /*aux_base*/, size_t /*aux_stride*/,
                              uint32_t hash, uint32_t hash2) const override {
    return core::reference_dispatch(p.base, group_bitmaps, hash, hash2);
  }
};

// ---------------------------------------------------------------------------
// p2c — two independent rank-samples of the bitmap; the per-worker WST
// load word (connections) breaks the tie toward the less-loaded worker.

class P2cPolicy final : public SchedulingPolicy {
 public:
  PolicyKind kind() const override { return PolicyKind::P2c; }

  uint32_t aux_value_bytes() const override {
    return kMaxWorkersPerGroup * sizeof(uint64_t);
  }

  void fill_aux(const PolicyAuxInputs& in, uint64_t* out_words) const override {
    // Per-worker load words. Slots past the live slice get the MAX
    // sentinel so a corrupt selection can only lose the comparison.
    for (uint32_t i = 0; i < kMaxWorkersPerGroup; ++i) {
      out_words[i] = i < in.limit ? clamp_nonneg(in.connections[i])
                                  : UINT64_MAX;
    }
  }

  bpf::Program build_program(const PolicyProgramParams& p) const override {
    const auto wpg = static_cast<int64_t>(p.base.workers_per_group);
    const bool guard = !p.plant_out_of_range;
    Assembler a;
    emit::dispatch_prologue(a, p.base);

    // Both ranks up front (they need n = r9, which the aux value pointer
    // will overwrite): nthA from the 4-tuple hash, nthB from its mix.
    a.ldx_w(r1, r6, bpf::kCtxOffHash);
    a.mov(r5, r1);
    a.mul(r1, r9);
    a.rsh(r1, 32);
    a.add(r1, 1);
    a.stx_dw(r10, -16, r1);  // nthA
    a.mul32(r5, static_cast<int32_t>(kP2cHashMix));
    a.mul(r5, r9);
    a.rsh(r5, 32);
    a.add(r5, 1);
    a.stx_dw(r10, -24, r5);  // nthB

    emit_aux_lookup(a, p);
    a.mov(r9, r0);  // r9 = per-worker load words (n is dead)

    // Sample A: position + load word.
    a.ldx_dw(r1, r10, -16);
    emit::rank_select(a, "p2c_a");
    if (guard) a.jge(r2, wpg, "fallback");
    a.stx_dw(r10, -16, r2);  // posA (slot reused; rank is dead)
    a.mov(r3, r2);
    a.lsh(r3, 3);
    a.mov(r4, r9);
    a.add(r4, r3);
    a.ldx_dw(r3, r4, 0);
    a.stx_dw(r10, -32, r3);  // loadA

    // Sample B: position + load word.
    a.ldx_dw(r1, r10, -24);
    emit::rank_select(a, "p2c_b");
    if (guard) a.jge(r2, wpg, "fallback");
    a.mov(r3, r2);
    a.lsh(r3, 3);
    a.mov(r4, r9);
    a.add(r4, r3);
    a.ldx_dw(r5, r4, 0);  // loadB

    // The smaller load wins; ties go to sample A.
    a.ldx_dw(r3, r10, -32);
    a.jlt(r5, r3, "p2c_picked");  // loadB < loadA: keep posB (r2)
    a.ldx_dw(r2, r10, -16);       // else posA
    a.label("p2c_picked");

    emit::dispatch_epilogue(a, p.base, r2, guard);
    return a.finish();
  }

  WorkerId reference_dispatch(const PolicyProgramParams& p,
                              const uint64_t* group_bitmaps,
                              uint8_t* aux_base, size_t aux_stride,
                              uint32_t hash, uint32_t hash2) const override {
    const DispatchProgramParams& b = p.base;
    uint32_t group = 0;
    if (b.num_groups > 1) group = reciprocal_scale_u32(hash2, b.num_groups);
    const uint64_t bitmap = group_bitmaps[group];
    const uint32_t n = count_nonzero_bits(bitmap);
    if (n < b.min_workers) return kInvalidWorker;
    const uint32_t pos_a =
        find_nth_nonzero_bit(bitmap, reciprocal_scale_u32(hash, n) + 1);
    if (pos_a >= b.workers_per_group) return kInvalidWorker;
    const uint32_t hash_b = hash * kP2cHashMix;
    const uint32_t pos_b =
        find_nth_nonzero_bit(bitmap, reciprocal_scale_u32(hash_b, n) + 1);
    if (pos_b >= b.workers_per_group) return kInvalidWorker;
    const uint64_t* loads =
        reinterpret_cast<const uint64_t*>(aux_base + group * aux_stride);
    const uint32_t pos = loads[pos_b] < loads[pos_a] ? pos_b : pos_a;
    return group * b.workers_per_group + pos;
  }
};

// ---------------------------------------------------------------------------
// weighted — heterogeneous workers: a 64-slot lottery table over the
// eligible set, slots allotted proportionally to per-worker capacity
// weights; the program indexes it by the hash's top 6 bits and re-checks
// bitmap membership so a stale table can only cause a fallback.

class WeightedPolicy final : public SchedulingPolicy {
 public:
  explicit WeightedPolicy(std::vector<uint32_t> weights)
      : weights_(std::move(weights)) {}

  PolicyKind kind() const override { return PolicyKind::Weighted; }

  uint32_t aux_value_bytes() const override { return kMaxWorkersPerGroup; }

  void fill_aux(const PolicyAuxInputs& in, uint64_t* out_words) const override {
    uint8_t table[kMaxWorkersPerGroup];
    uint32_t wt[kMaxWorkersPerGroup] = {};
    uint64_t total = 0;
    const uint64_t bitmap = in.result != nullptr ? in.result->bitmap : 0;
    for (uint32_t i = 0; i < in.limit && i < kMaxWorkersPerGroup; ++i) {
      if (((bitmap >> i) & 1u) == 0) continue;
      wt[i] = weight_of(in.base + i);
      total += wt[i];
    }
    if (total == 0) {
      // Nothing eligible (or all-zero weights): poison every slot; the
      // program's id < workers_per_group guard turns that into fallback.
      std::memset(table, 0xFF, sizeof(table));
    } else {
      // Slot s belongs to the eligible worker whose cumulative-weight
      // range covers floor(s * total / 64) — deterministic proportional
      // allotment, largest shares first in worker-id order.
      uint32_t worker = 0;
      uint64_t prefix = wt[0];
      for (uint32_t s = 0; s < kMaxWorkersPerGroup; ++s) {
        const uint64_t target = s * total / kMaxWorkersPerGroup;
        while (prefix <= target && worker + 1 < kMaxWorkersPerGroup) {
          ++worker;
          prefix += wt[worker];
        }
        table[s] = static_cast<uint8_t>(worker);
      }
    }
    std::memcpy(out_words, table, sizeof(table));
  }

  bpf::Program build_program(const PolicyProgramParams& p) const override {
    const auto wpg = static_cast<int64_t>(p.base.workers_per_group);
    Assembler a;
    emit::dispatch_prologue(a, p.base);
    emit_aux_lookup(a, p);

    // slot = top 6 bits of the hash (provably < 64 = table size).
    a.ldx_w(r1, r6, bpf::kCtxOffHash);
    a.rsh(r1, 26);
    a.mov(r2, r0);
    a.add(r2, r1);
    a.ldx_b(r3, r2, 0);  // candidate worker id from the lottery table
    if (!p.plant_out_of_range) a.jge(r3, wpg, "fallback");

    // In-kernel eligibility re-check: the table may be one refresh staler
    // than the bitmap; selection-in-eligible-set must hold anyway.
    a.mov(r4, r8);
    a.rsh(r4, r3);
    a.jset(r4, 1, "w_member");
    a.ja("fallback");
    a.label("w_member");

    emit::dispatch_epilogue(a, p.base, r3, /*emit_guard=*/false);
    return a.finish();
  }

  WorkerId reference_dispatch(const PolicyProgramParams& p,
                              const uint64_t* group_bitmaps,
                              uint8_t* aux_base, size_t aux_stride,
                              uint32_t hash, uint32_t hash2) const override {
    const DispatchProgramParams& b = p.base;
    uint32_t group = 0;
    if (b.num_groups > 1) group = reciprocal_scale_u32(hash2, b.num_groups);
    const uint64_t bitmap = group_bitmaps[group];
    if (count_nonzero_bits(bitmap) < b.min_workers) return kInvalidWorker;
    const uint8_t* table = aux_base + group * aux_stride;
    const uint32_t id = table[hash >> 26];
    if (id >= b.workers_per_group) return kInvalidWorker;
    if (((bitmap >> id) & 1u) == 0) return kInvalidWorker;
    return group * b.workers_per_group + id;
  }

 private:
  uint32_t weight_of(WorkerId w) const {
    return w < weights_.size() ? weights_[w] : 1;
  }

  std::vector<uint32_t> weights_;
};

// ---------------------------------------------------------------------------
// queue_est — Charon/LSQ-style local-shortest-queue: argmin of per-worker
// queue estimates over the eligible set, with an in-kernel increment per
// dispatch so consecutive picks between refreshes spread out instead of
// herding onto one stale minimum.

class QueueEstPolicy final : public SchedulingPolicy {
 public:
  PolicyKind kind() const override { return PolicyKind::QueueEst; }

  uint32_t aux_value_bytes() const override {
    return kMaxWorkersPerGroup * sizeof(uint64_t);
  }

  void fill_aux(const PolicyAuxInputs& in, uint64_t* out_words) const override {
    // Refresh the estimates from the WST pending_events counters; the
    // schedule/publish cadence bounds their staleness, and the in-kernel
    // increments model the dispatches since. MAX-sentinel slots never win
    // the argmin.
    for (uint32_t i = 0; i < kMaxWorkersPerGroup; ++i) {
      out_words[i] = i < in.limit ? clamp_nonneg(in.pending_events[i])
                                  : UINT64_MAX;
    }
  }

  bpf::Program build_program(const PolicyProgramParams& p) const override {
    const auto wpg = static_cast<int64_t>(p.base.workers_per_group);
    Assembler a;
    emit::dispatch_prologue(a, p.base);
    emit_aux_lookup(a, p);
    a.mov(r9, r0);  // r9 = estimate words (n is dead after the prologue)

    // Unrolled argmin over the eligible set: walk the bitmap LSB-first,
    // keep the strictly smallest estimate (ties -> lowest worker id).
    a.mov(r2, r8);               // shifted bitmap copy
    a.ld_imm64(r3, UINT64_MAX);  // best estimate
    a.mov(r5, 2 * wpg);          // best index; sentinel fails the guard
    for (int64_t i = 0; i < wpg; ++i) {
      const std::string cand = "qe_cand_" + std::to_string(i);
      const std::string skip = "qe_skip_" + std::to_string(i);
      a.jset(r2, 1, cand);
      a.ja(skip);
      a.label(cand);
      a.ldx_dw(r4, r9, static_cast<int32_t>(i * 8));
      a.jge(r4, r3, skip);
      a.mov(r3, r4);
      a.mov(r5, i);
      a.label(skip);
      a.rsh(r2, 1);
    }
    if (!p.plant_out_of_range) a.jge(r5, wpg, "fallback");

    // estimates[best] += 1 before the pick becomes visible — the local
    // part of the estimate (legal map-value store; bit-identical across
    // all execution tiers, and the torture sweep compares the map bytes).
    a.mov(r4, r5);
    a.lsh(r4, 3);
    a.mov(r1, r9);
    a.add(r1, r4);
    a.ldx_dw(r2, r1, 0);
    a.add(r2, 1);
    a.stx_dw(r1, 0, r2);

    emit::dispatch_epilogue(a, p.base, r5, /*emit_guard=*/false);
    return a.finish();
  }

  WorkerId reference_dispatch(const PolicyProgramParams& p,
                              const uint64_t* group_bitmaps,
                              uint8_t* aux_base, size_t aux_stride,
                              uint32_t hash, uint32_t hash2) const override {
    (void)hash;
    const DispatchProgramParams& b = p.base;
    uint32_t group = 0;
    if (b.num_groups > 1) group = reciprocal_scale_u32(hash2, b.num_groups);
    const uint64_t bitmap = group_bitmaps[group];
    if (count_nonzero_bits(bitmap) < b.min_workers) return kInvalidWorker;
    uint64_t* est = reinterpret_cast<uint64_t*>(aux_base + group * aux_stride);
    uint64_t best = UINT64_MAX;
    uint32_t best_i = b.workers_per_group;
    for (uint32_t i = 0; i < b.workers_per_group; ++i) {
      if (((bitmap >> i) & 1u) == 0) continue;
      if (est[i] < best) {
        best = est[i];
        best_i = i;
      }
    }
    if (best_i >= b.workers_per_group) return kInvalidWorker;
    est[best_i] += 1;  // mirror the in-kernel increment
    return group * b.workers_per_group + best_i;
  }
};

}  // namespace

const char* to_string(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::Cascade:
      return "cascade";
    case PolicyKind::P2c:
      return "p2c";
    case PolicyKind::Weighted:
      return "weighted";
    case PolicyKind::QueueEst:
      return "queue_est";
  }
  return "?";
}

bool parse_policy(std::string_view name, PolicyKind* out) {
  for (size_t k = 0; k < kPolicyCount; ++k) {
    const auto kind = static_cast<PolicyKind>(k);
    if (name == to_string(kind)) {
      *out = kind;
      return true;
    }
  }
  return false;
}

PolicyKind default_policy() { return PolicyKind::Cascade; }

std::unique_ptr<SchedulingPolicy> make_policy(PolicyKind kind,
                                              const PolicyConfig& cfg) {
  switch (kind) {
    case PolicyKind::Cascade:
      return std::make_unique<CascadePolicy>();
    case PolicyKind::P2c:
      return std::make_unique<P2cPolicy>();
    case PolicyKind::Weighted:
      return std::make_unique<WeightedPolicy>(cfg.worker_weights);
    case PolicyKind::QueueEst:
      return std::make_unique<QueueEstPolicy>();
  }
  HERMES_CHECK_MSG(false, "unknown policy kind");
  return nullptr;
}

}  // namespace hermes::core
