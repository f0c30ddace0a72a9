// Trace replay through the standard Driver/MetricsCollector I/O path.
//
// Replay feeds a request stream (usually ToRequests() of a parsed trace)
// into a Driver exactly where the synthetic generators plug in, so phase
// breakdowns and Chrome traces work on replayed load unchanged. The §4.3
// footnote's open-versus-closed criticism is addressed with three
// arrival-control modes:
//
//   kOpen    submit every request at its recorded timestamp: RunOpenLoop.
//            Faithful to the captured arrival process, but no completion
//            feedback — a slow device just builds queue.
//   kClosed  ignore timestamps entirely: keep `window` requests outstanding,
//            submitting the next record as soon as a completion frees a
//            slot. Models the trace's demand under full feedback.
//   kHybrid  a request is eligible at its recorded timestamp but waits for a
//            window slot: submission time is max(recorded arrival, slot
//            free). Keeps the captured arrival shape while bounding the
//            fan-in a real client pool would impose.
//
// Fault-injected replay is the open loop of RunFaultInjectedOpenLoop
// (src/fault/fault_experiment.h).
#ifndef MSTK_SRC_TRACE_REPLAY_H_
#define MSTK_SRC_TRACE_REPLAY_H_

#include <cstdint>
#include <vector>

#include "src/core/driver.h"
#include "src/core/experiment.h"
#include "src/core/io_scheduler.h"
#include "src/core/storage_device.h"
#include "src/sim/trace_writer.h"
#include "src/trace/format.h"

namespace mstk {
namespace trace {

enum class ArrivalMode { kOpen, kClosed, kHybrid };

const char* ArrivalModeName(ArrivalMode mode);
// Parses "open" / "closed" / "hybrid"; returns false on anything else.
bool ParseArrivalMode(const char* name, ArrivalMode* out);

struct ReplayConfig {
  ArrivalMode mode = ArrivalMode::kOpen;
  // Outstanding-request bound for kClosed / kHybrid (ignored by kOpen).
  int window = 8;
};

// Replays a request stream (usually ToRequests() of a parsed trace, already
// remapped to the device's capacity) under the chosen arrival control.
// Returns the same ExperimentResult the generator-driven harnesses produce.
ExperimentResult Replay(StorageDevice* device, IoScheduler* scheduler,
                        const std::vector<Request>& requests, const ReplayConfig& config,
                        TraceTrack trace = {});

}  // namespace trace
}  // namespace mstk

#endif  // MSTK_SRC_TRACE_REPLAY_H_
