#include "bpf/vm.h"

namespace hermes::bpf {

std::unique_ptr<LoadedProgram> Vm::load(Program prog, std::vector<Map*> maps,
                                        std::string* error) const {
  VerifyResult vr = verify(prog, maps);
  if (!vr) {
    if (error != nullptr) *error = vr.error;
    return nullptr;
  }
  auto lp = std::unique_ptr<LoadedProgram>(new LoadedProgram);
  lp->prog_ = std::move(prog);
  lp->maps_ = std::move(maps);
  lp->plan_ = compile_plan(lp->prog_, lp->maps_, &vr.analysis, tier_);
  // The plan's tier is authoritative: a Jit request may have compiled
  // down to Elide (non-x86-64 host, W^X failure, codegen refusal).
  if (tier_ == ExecTier::Jit && lp->tier() != ExecTier::Jit) {
    ++jit_fallbacks_;
    jit_fallback_reason_ = lp->plan_->jit_fallback_reason();
    jit_fallback_kind_ = lp->plan_->jit_fallback_kind();
    ++jit_fallbacks_by_kind_[static_cast<size_t>(jit_fallback_kind_)];
  }
  return lp;
}

Vm::RunResult Vm::run(const LoadedProgram& lp, ReuseportCtx& ctx) const {
  ExecutionPlan::ExecResult er = lp.plan_->execute(ctx, time_fn_, rand_fn_);
  total_insns_ += er.insns_executed;
  RunResult res;
  res.ret = er.ret;
  res.insns_executed = er.insns_executed;
  res.tier = lp.tier();
  res.fused_hits = er.fused_hits;
  res.elided_checks = er.elided_checks;
  return res;
}

}  // namespace hermes::bpf
