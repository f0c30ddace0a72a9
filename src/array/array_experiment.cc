#include "src/array/array_experiment.h"

#include <memory>
#include <string>
#include <vector>

#include "src/core/metrics.h"
#include "src/fault/injector.h"
#include "src/mems/mems_device.h"
#include "src/sched/sched_kind.h"
#include "src/sim/rng.h"
#include "src/sim/simulator.h"

namespace mstk {

namespace {

// First transition into `state` after the initial entry, or -1.
double TransitionAtMs(const std::vector<ArrayManager::Transition>& transitions,
                      ArrayState state) {
  for (size_t i = 1; i < transitions.size(); ++i) {
    if (transitions[i].state == state) {
      return transitions[i].at_ms;
    }
  }
  return -1.0;
}

}  // namespace

TrialMetrics RunArrayRebuildTrial(const ArrayRunConfig& config, uint64_t seed,
                                  const MemsParams& params) {
  const int device_count = config.manager.active_members + config.spares;
  std::vector<std::unique_ptr<MemsDevice>> owned;
  std::vector<StorageDevice*> devices;
  owned.reserve(static_cast<size_t>(device_count));
  for (int d = 0; d < device_count; ++d) {
    owned.push_back(std::make_unique<MemsDevice>(params));
    devices.push_back(owned.back().get());
  }

  Simulator sim;
  MetricsCollector metrics;
  metrics.set_exclude_background(true);
  const SchedulerFactory sptf = [](const StorageDevice* device) {
    return MakeScheduler(SchedKind::kSptf, device);
  };
  ArrayManager manager(&sim, config.manager, devices, sptf, &metrics);

  // Per-member fault injection, each member on its own sub-stream of the
  // trial seed.
  std::vector<std::unique_ptr<FaultInjector>> injectors;
  if (config.transient_rate > 0.0 || config.permanent_rate > 0.0) {
    std::vector<FaultModel*> models;
    for (int d = 0; d < device_count; ++d) {
      FaultInjectorConfig fc;
      fc.transient_rate = config.transient_rate;
      fc.permanent_rate = config.permanent_rate;
      fc.spares = config.member_spares;
      injectors.push_back(std::make_unique<FaultInjector>(
          fc, devices[static_cast<size_t>(d)]->CapacityBlocks(),
          DeriveTrialSeed(seed, 1000 + d)));
      models.push_back(injectors.back().get());
    }
    manager.AttachFaultModels(models, config.recovery);
  }

  RandomWorkloadConfig wc = config.workload;
  wc.capacity_blocks = manager.CapacityBlocks();
  Rng rng(seed);
  const std::vector<Request> requests = GenerateRandomWorkload(wc, rng);
  for (const Request& req : requests) {
    const Request* arrival = &req;
    sim.ScheduleAt(req.arrival_ms, [&manager, arrival] { manager.Submit(*arrival); });
  }

  struct FailPlan {
    ArrayManager* manager;
    Simulator* sim;
    int device;
  };
  FailPlan plan{&manager, &sim, config.fail_device};
  if (config.fail_at_ms >= 0.0) {
    FailPlan* p = &plan;
    sim.ScheduleAt(config.fail_at_ms,
                   [p] { p->manager->FailDevice(p->device, p->sim->NowMs()); });
  }

  sim.Run();

  TrialMetrics out = {
      {"mean_response_ms", metrics.response_time().mean()},
      {"mean_service_ms", metrics.service_time().mean()},
      {"response_scv", metrics.ResponseScv()},
      {"mean_queue_depth", metrics.queue_depth().mean()},
      {"makespan_ms", metrics.last_completion_ms()},
      {"completed", static_cast<double>(metrics.completed())},
  };
  // Member-side recovery and rebuild volume, kept apart from the foreground
  // summary above (member collectors exclude background traffic from their
  // latency stats; it only lands in these counters).
  const FaultCounters fc = manager.DeviceFaults();
  out.emplace_back("fault_transient_errors", static_cast<double>(fc.transient_errors));
  out.emplace_back("fault_retries", static_cast<double>(fc.retries));
  out.emplace_back("fault_permanent", static_cast<double>(fc.permanent_faults));
  out.emplace_back("fault_remaps", static_cast<double>(fc.remaps));
  out.emplace_back("fault_failed_requests",
                   static_cast<double>(fc.failed_requests + manager.failed_foreground()));
  out.emplace_back("rebuild_ios", static_cast<double>(fc.rebuild_ios));
  out.emplace_back("rebuild_ms", fc.rebuild_ms);
  // Lifecycle: the degraded -> rebuilding -> resync -> optimal cycle as
  // virtual timestamps, plus superblock bookkeeping.
  const auto& transitions = manager.transitions();
  out.emplace_back("array_state_transitions", static_cast<double>(transitions.size() - 1));
  out.emplace_back("array_final_state", static_cast<double>(manager.state()));
  out.emplace_back("array_superblock_version",
                   static_cast<double>(manager.superblock().version));
  out.emplace_back("array_rebuild_chunks",
                   static_cast<double>(manager.rebuild_chunks_committed()));
  out.emplace_back("array_degraded_at_ms", TransitionAtMs(transitions, ArrayState::kDegraded));
  out.emplace_back("array_rebuilding_at_ms",
                   TransitionAtMs(transitions, ArrayState::kRebuilding));
  out.emplace_back("array_resync_at_ms", TransitionAtMs(transitions, ArrayState::kResync));
  out.emplace_back("array_optimal_again_ms",
                   TransitionAtMs(transitions, ArrayState::kOptimal));
  return out;
}

}  // namespace mstk
