// Reference implementation of the Stage-2 cascade (paper Algo. 1), kept as
// the differential oracle for core::Scheduler.
//
// Structurally the obviously-correct transcription: per-worker read()
// snapshots of the slice, then one scalar loop over every slot per filter,
// with the same exact 128-bit fixed-point threshold math as the scheduler
// (core::theta_permille_of). tests/sched_fast_test.cc demands that
// Scheduler::schedule_with_order and Scheduler::schedule_gathered return
// bit-identical results; bench/sched_path times the scheduler against it.
// Test-only: no production code links it.
#pragma once

#include <cstdint>

#include "core/config.h"
#include "core/scheduler.h"
#include "core/wst.h"
#include "util/types.h"

namespace hermes::core {

// Same semantics as Scheduler(cfg).schedule_with_order(...).
ScheduleResult schedule_reference_with_order(const HermesConfig& cfg,
                                             const WorkerStatusTable& wst,
                                             SimTime now,
                                             const FilterStage* order,
                                             uint32_t num_stages,
                                             WorkerId base = 0,
                                             uint32_t limit = 0);

}  // namespace hermes::core
