// Trace pipeline: the library's trace tooling end to end — generate a
// synthetic workload, write it as a v1 trace, read it back, characterize
// it, scale it, and replay it against both device models under two
// schedulers. (DiskSim-format traces join the same flow after
// `mstk_trace convert` imports them as v1.)
//
// Run: ./build/examples/trace_pipeline
#include <cstdio>
#include <filesystem>

#include "src/core/experiment.h"
#include "src/disk/disk_device.h"
#include "src/mems/mems_device.h"
#include "src/sched/fcfs.h"
#include "src/sched/sptf.h"
#include "src/sim/rng.h"
#include "src/trace/format.h"
#include "src/trace/replay.h"
#include "src/trace/transforms.h"
#include "src/workload/analysis.h"
#include "src/workload/cello_like.h"

int main() {
  using namespace mstk;

  // 1. Generate and persist a workload.
  MemsDevice mems;
  CelloLikeConfig config;
  config.request_count = 15000;
  config.capacity_blocks = mems.CapacityBlocks();
  Rng rng(23);
  trace::TraceWriter writer;
  for (const trace::TraceRecord& record : trace::FromRequests(GenerateCelloLike(config, rng))) {
    writer.Append(record);
  }
  const std::string path =
      (std::filesystem::temp_directory_path() / "pipeline.trace").string();
  if (!writer.WriteFile(path)) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }

  // 2. Load and characterize it.
  std::string error;
  trace::ParsedTrace parsed;
  if (!trace::ReadTraceFile(path, &parsed, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  std::printf("trace written to %s\n\n%s\n", path.c_str(),
              FormatProfile(AnalyzeWorkload(trace::ToRequests(parsed))).c_str());

  // 3. Scale it up 8x and replay on both devices, clamping addresses to
  //    each device's capacity.
  const std::vector<trace::TraceRecord> warped = trace::TimeWarp(parsed.records, 8.0);
  DiskDevice disk;
  std::printf("replay at 8x (mean response / p99, ms):\n");
  for (StorageDevice* device : {static_cast<StorageDevice*>(&mems),
                                static_cast<StorageDevice*>(&disk)}) {
    const trace::ParsedTrace fitted{
        trace::kTraceVersion,
        trace::RemapToCapacity(warped, device->CapacityBlocks(), trace::RemapMode::kClamp)};
    const std::vector<Request> requests = trace::ToRequests(fitted);
    FcfsScheduler fcfs;
    SptfScheduler sptf(device);
    for (IoScheduler* sched : {static_cast<IoScheduler*>(&fcfs),
                               static_cast<IoScheduler*>(&sptf)}) {
      ExperimentResult r = trace::Replay(device, sched, requests, trace::ReplayConfig{});
      std::printf("  %-5s %-6s %10.3f %10.3f\n", device->name(), sched->name(),
                  r.MeanResponseMs(), r.metrics.ResponseQuantile(0.99));
    }
  }
  std::remove(path.c_str());
  return 0;
}
