// Trial harness for the managed array (ROADMAP item 1): N full MEMS device
// stacks behind an ArrayManager, a seeded foreground workload, a scheduled
// (or fault-injected) member failure, and the resulting degraded ->
// rebuilding -> resync lifecycle — reported as TrialMetrics so TrialRunner
// can fan trials across threads with byte-identical aggregates at any
// --jobs.
#ifndef MSTK_SRC_ARRAY_ARRAY_EXPERIMENT_H_
#define MSTK_SRC_ARRAY_ARRAY_EXPERIMENT_H_

#include <cstdint>

#include "src/array/array_manager.h"
#include "src/core/trial_runner.h"
#include "src/mems/mems_params.h"
#include "src/workload/random_workload.h"

namespace mstk {

struct ArrayRunConfig {
  ArrayManagerConfig manager;
  // Hot spares; the trial builds manager.active_members + spares devices.
  int spares = 1;
  // Foreground stream (capacity_blocks is filled in from the array).
  RandomWorkloadConfig workload;

  // Deterministic failure trigger: fail this device at fail_at_ms of
  // virtual time (< 0 disables). The reliable way for sweeps to observe a
  // full lifecycle cycle.
  int fail_device = 0;
  TimeMs fail_at_ms = -1.0;

  // Optional per-member online fault injection (§6): each member gets its
  // own seeded FaultInjector; a member whose spares run out is failed out
  // of the array through the driver's degraded sink.
  double transient_rate = 0.0;
  double permanent_rate = 0.0;
  int64_t member_spares = 4;
  RecoveryPolicy recovery;
};

// Runs one trial with every member scheduled by SPTF. Reported metrics:
// the standard foreground summary (mean_response_ms, mean_service_ms,
// response_scv, mean_queue_depth, makespan_ms, completed), aggregated
// member fault/rebuild counters
// (fault_* / rebuild separated from foreground), and the lifecycle
// (array_state_transitions, array_final_state, array_superblock_version,
// array_rebuild_chunks, array_degraded_at_ms, array_rebuilding_at_ms,
// array_resync_at_ms, array_optimal_again_ms — -1 when never reached).
TrialMetrics RunArrayRebuildTrial(const ArrayRunConfig& config, uint64_t seed,
                                  const MemsParams& params = MemsParams{});

}  // namespace mstk

#endif  // MSTK_SRC_ARRAY_ARRAY_EXPERIMENT_H_
