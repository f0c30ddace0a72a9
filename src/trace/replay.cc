#include "src/trace/replay.h"

#include <cstring>

#include "src/sim/check.h"
#include "src/sim/simulator.h"

namespace mstk {
namespace trace {
namespace {

// Shared state for the windowed modes. Events capture one pointer to this,
// staying inside the event queue's inline capture budget.
struct ReplayState {
  Simulator* sim = nullptr;
  Driver* driver = nullptr;
  const std::vector<Request>* requests = nullptr;
  int window = 0;
  bool keep_recorded_arrivals = false;  // hybrid: true, closed: false
  size_t eligible = 0;                  // records whose arrival time has passed
  size_t next_submit = 0;
  int outstanding = 0;

  void TryAdmit() {
    while (outstanding < window && next_submit < eligible) {
      Request req = (*requests)[next_submit];
      ++next_submit;
      ++outstanding;
      if (!keep_recorded_arrivals) {
        req.arrival_ms = sim->NowMs();
      }
      driver->Submit(req);
    }
  }

  void Arrive() {
    ++eligible;
    TryAdmit();
  }

  void OnComplete() {
    --outstanding;
    TryAdmit();
  }
};

}  // namespace

const char* ArrivalModeName(ArrivalMode mode) {
  switch (mode) {
    case ArrivalMode::kOpen: return "open";
    case ArrivalMode::kClosed: return "closed";
    case ArrivalMode::kHybrid: return "hybrid";
  }
  return "?";
}

bool ParseArrivalMode(const char* name, ArrivalMode* out) {
  if (std::strcmp(name, "open") == 0) {
    *out = ArrivalMode::kOpen;
  } else if (std::strcmp(name, "closed") == 0) {
    *out = ArrivalMode::kClosed;
  } else if (std::strcmp(name, "hybrid") == 0) {
    *out = ArrivalMode::kHybrid;
  } else {
    return false;
  }
  return true;
}

ExperimentResult Replay(StorageDevice* device, IoScheduler* scheduler,
                        const std::vector<Request>& requests, const ReplayConfig& config,
                        TraceTrack trace) {
  if (config.mode == ArrivalMode::kOpen) {
    // Faithful replay: one arrival event per record at its timestamp.
    return RunOpenLoop(device, scheduler, requests, trace);
  }
  MSTK_CHECK(config.window >= 1, "windowed replay needs window >= 1");
  device->Reset();
  scheduler->Reset();

  Simulator sim;
  ExperimentResult result;
  Driver driver(&sim, device, scheduler, &result.metrics);
  driver.set_trace(trace);

  ReplayState state;
  state.sim = &sim;
  state.driver = &driver;
  state.requests = &requests;
  state.window = config.window;
  state.keep_recorded_arrivals = config.mode == ArrivalMode::kHybrid;
  ReplayState* sp = &state;
  driver.set_on_complete([sp](const Request&, TimeMs) { sp->OnComplete(); });
  if (config.mode == ArrivalMode::kClosed) {
    // Timestamps are demand order only: everything is eligible at t=0.
    state.eligible = requests.size();
    sim.ScheduleAt(0.0, [sp] { sp->TryAdmit(); });
  } else {
    // Eligibility tracks recorded arrivals; the window throttles
    // submission. Arrivals are sorted, so a counter is the FIFO.
    for (const Request& req : requests) {
      sim.ScheduleAt(req.arrival_ms, [sp] { sp->Arrive(); });
    }
  }

  sim.Run();
  result.makespan_ms = result.metrics.last_completion_ms();
  result.activity = device->activity();
  return result;
}

}  // namespace trace
}  // namespace mstk
