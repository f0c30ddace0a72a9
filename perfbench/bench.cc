// perfbench — the repo benchmark's measuring program.
//
// Runs one workload through the library's public entry points and prints one
// JSON object: host timings, the simulated outputs (with the exact bits of
// every double, so a caller can check them against recorded values), a
// stability record, and with --trace 1 the per-layer totals of a traced run.
// perfbench/run.py builds and drives it; see perfbench/README.md for the
// workloads and metrics.
//
// A run's input is `--parts` independent parts, each generated from its own
// seed derived from --seed. Each part is a short simulation (about 0.1 s of
// host time), and the run repeats them round-robin until --seconds have
// passed. A part's simulation phase is timed in chunks of 10-40 ms (one
// RunOpenLoop or trace::Replay call, or a Simulator::RunUntil slice); each
// chunk counts its fastest repeat, and the run's host time is the sum over
// chunks and parts. On a host with slow phases, short chunks are the ones
// that find the host quiet (README.md, "Host noise").
//
//   perfbench --workload W [--seed S] [--seconds T] [--trace 0|1]
//             [--parts N] [--size F] [--max-rounds N] [--spans PATH]
#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/tracing.h"
#include "src/array/array_manager.h"
#include "src/core/experiment.h"
#include "src/core/metrics.h"
#include "src/core/trial_runner.h"
#include "src/disk/disk_device.h"
#include "src/fault/injector.h"
#include "src/layout/layout_map.h"
#include "src/layout/layout_policy.h"
#include "src/mems/mems_device.h"
#include "src/sched/clook.h"
#include "src/sched/sptf.h"
#include "src/sim/rng.h"
#include "src/sim/simulator.h"
#include "src/trace/format.h"
#include "src/trace/replay.h"
#include "src/trace/scenarios.h"
#include "src/trace/transforms.h"
#include "src/workload/random_workload.h"
#include "src/workload/tpcc_like.h"

namespace mstk {
namespace perfbench {
namespace {

// ---- Workload parameters (one part at --size 1) ----

// tpcc_mems_sptf: Fig 7(b) TPC-C-like streams, time scale 10 (scale 11 and
// above overloads the device). A part is kTpccStreams independent streams.
constexpr int kTpccStreams = 3;
constexpr int64_t kTpccRequests = 3000;
constexpr double kTpccScale = 10.0;

// zoo_closed_tiled: per-scenario record count before the x4 client fan-out.
constexpr int64_t kZooRecords = 375;
constexpr int kZooClients = 4;
constexpr int kZooWindow = 8;
constexpr int64_t kZooHotBlocks = 200000;
constexpr int64_t kZooColdBlocks = 800000;

// raid5_disk_rebuild: 16 active + 2 spare Atlas-10K members.
constexpr int kRaidActive = 16;
constexpr int kRaidSpares = 2;
constexpr int64_t kRaidRequests = 40000;
constexpr double kRaidRatePerS = 600.0;
constexpr int64_t kRaidExtentBlocks = int64_t{1} << 20;
constexpr TimeMs kRaidFailAtMs = 100.0;
constexpr int kRaidChunks = 8;

// Every part gets at least this many repeats, however short the budget.
constexpr int kMinRounds = 3;

// The golden part: a fixed-seed instance run after the timed repeats of
// every run, whose outputs perfbench/expected.json records.
constexpr uint64_t kGoldenSeed = 424242;
constexpr double kGoldenSize = 1.0;

// Span buffer of a traced repeat.
constexpr size_t kSpanCap = size_t{1} << 21;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  int parts = 8;
  double size = 1.0;
  int max_rounds = 0;  // 0 = unbounded (time budget only)
  std::string spans_path;
};

// Decorators to wrap the layers in. A null Instruments pointer runs the
// plain public path with no decorator at all.
struct Instruments {
  Tracer* tracer = nullptr;            // null: forward without clock reads
  std::vector<ServiceEvent>* log = nullptr;
  // Where each simulation's services start in *log: one entry per
  // RunOpenLoop stream, trace::Replay or RAID run.
  std::vector<size_t> sim_starts;
  FaultTally tally;
};

// Deterministic simulated outputs: every value must repeat bit-for-bit.
struct SimOutput {
  int64_t submitted = 0;
  int64_t completed = 0;
  int64_t failed = 0;
  std::vector<std::pair<std::string, double>> values;

  void Put(const std::string& name, double v) { values.emplace_back(name, v); }
  double Get(const std::string& name) const {
    for (const auto& [k, v] : values) {
      if (k == name) {
        return v;
      }
    }
    return 0.0;
  }
  bool SameAs(const SimOutput& o) const {
    if (submitted != o.submitted || completed != o.completed || failed != o.failed ||
        values.size() != o.values.size()) {
      return false;
    }
    for (size_t i = 0; i < values.size(); ++i) {
      if (values[i].first != o.values[i].first ||
          std::memcmp(&values[i].second, &o.values[i].second, sizeof(double)) != 0) {
        return false;
      }
    }
    return true;
  }
};

struct Iteration {
  SimOutput sim;
  double setup_s = 0.0;
  double run_s = 0.0;
  std::vector<double> chunk_s;   // run_s split into fixed slices of work
  int64_t events = 0;            // simulator events fired
  int64_t pending_at_start = 0;  // events queued before the first one fires
  int64_t background_ios = 0;
  int64_t trace_records = 0;
  int64_t trace_bytes = 0;
  int64_t member_service_calls = 0;
};

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

int64_t Scaled(int64_t n, double size) {
  return std::max<int64_t>(1, static_cast<int64_t>(static_cast<double>(n) * size));
}

Tracer* TracerOf(const Instruments* inst) { return inst == nullptr ? nullptr : inst->tracer; }

// Marks the start of a simulation in the service log.
void BeginSimulation(Instruments* inst) {
  if (inst != nullptr && inst->log != nullptr) {
    inst->sim_starts.push_back(inst->log->size());
  }
}

// A MEMS device with SPTF over it. With instruments both are decorated, and
// SPTF estimates through the device decorator, so its estimates are timed.
struct SptfStack {
  SptfStack(MemsDevice* mems, Instruments* inst)
      : traced_device(inst == nullptr ? nullptr
                                      : std::make_unique<TracedDevice>(mems, inst->tracer,
                                                                       true, inst->log)),
        device(inst == nullptr ? static_cast<StorageDevice*>(mems) : traced_device.get()),
        sptf(device),
        traced_scheduler(inst == nullptr ? nullptr
                                         : std::make_unique<TracedScheduler>(&sptf, inst->tracer)),
        scheduler(inst == nullptr ? static_cast<IoScheduler*>(&sptf) : traced_scheduler.get()) {}
  SptfStack(const SptfStack&) = delete;
  SptfStack& operator=(const SptfStack&) = delete;

  std::unique_ptr<TracedDevice> traced_device;
  StorageDevice* device;
  SptfScheduler sptf;
  std::unique_ptr<TracedScheduler> traced_scheduler;
  IoScheduler* scheduler;
};

// ---- tpcc_mems_sptf ----

Iteration RunTpcc(uint64_t seed, double size, Instruments* inst) {
  Iteration it;
  const int64_t t0 = NowNs();
  MemsDevice device;
  std::vector<std::vector<Request>> streams;
  for (int j = 0; j < kTpccStreams; ++j) {
    Span span(TracerOf(inst), kWorkloadGenerate);
    TpccLikeConfig config;
    config.request_count = Scaled(kTpccRequests, size);
    config.capacity_blocks = device.CapacityBlocks();
    config.scale = kTpccScale;
    Rng rng(DeriveTrialSeed(seed, j));
    streams.push_back(GenerateTpccLike(config, rng));
  }
  SptfStack stack(&device, inst);
  const int64_t t1 = NowNs();
  it.setup_s = Seconds(t1 - t0);

  double weighted_sum = 0.0;
  double p99_sum = 0.0;
  double worst_backlog = 0.0;
  double shortest_span = std::numeric_limits<double>::infinity();
  double busy_ms = 0.0;
  for (int j = 0; j < kTpccStreams; ++j) {
    const std::vector<Request>& requests = streams[static_cast<size_t>(j)];
    BeginSimulation(inst);
    const int64_t c0 = NowNs();
    ExperimentResult result = RunOpenLoop(stack.device, stack.scheduler, requests);
    it.chunk_s.push_back(Seconds(NowNs() - c0));

    const int64_t n = static_cast<int64_t>(requests.size());
    const int64_t done = result.metrics.completed();
    const double p99 = result.metrics.ResponseQuantile(0.99);
    const std::string key = "s" + std::to_string(j);
    // RunOpenLoop queues one arrival event per request up front and, with no
    // fault model, fires one completion event per request.
    it.pending_at_start = std::max(it.pending_at_start, n);
    it.events += n + done;
    it.sim.submitted += n;
    it.sim.completed += done;
    weighted_sum += result.MeanResponseMs() * static_cast<double>(done);
    p99_sum += p99;
    worst_backlog = std::max(worst_backlog, result.makespan_ms - requests.back().arrival_ms);
    shortest_span = std::min(shortest_span, requests.back().arrival_ms);
    busy_ms += device.activity().busy_ms;
    it.sim.Put(key + ".mean_response_ms", result.MeanResponseMs());
    it.sim.Put(key + ".p99_response_ms", p99);
    it.sim.Put(key + ".makespan_ms", result.makespan_ms);
    it.sim.Put(key + ".mean_queue_depth", result.metrics.queue_depth().mean());
  }
  for (double c : it.chunk_s) {
    it.run_s += c;
  }
  it.sim.Put("mean_response_ms", weighted_sum / static_cast<double>(it.sim.completed));
  // Each stream is its own simulation: the mean of their p99s.
  it.sim.Put("p99_response_ms", p99_sum / kTpccStreams);
  it.sim.Put("end_backlog_ms", worst_backlog);
  it.sim.Put("arrival_span_ms", shortest_span);
  it.sim.Put("device_busy_ms", busy_ms);
  return it;
}

// ---- zoo_closed_tiled ----

Iteration RunZoo(uint64_t seed, double size, Instruments* inst) {
  Iteration it;
  Tracer* tracer = TracerOf(inst);
  const int64_t t0 = NowNs();
  MemsDevice device;
  const std::vector<std::string>& names = trace::ScenarioNames();
  std::vector<std::vector<Request>> streams;
  for (const std::string& name : names) {
    trace::ParsedTrace generated;
    {
      Span span(tracer, kWorkloadGenerate);
      trace::ScenarioConfig config;
      config.request_count = Scaled(kZooRecords, size);
      config.seed = seed;
      generated = trace::GenerateScenario(name, config);
    }
    std::string bytes;
    {
      Span span(tracer, kTraceSerialize);
      bytes = trace::SerializeTrace(generated.records);
    }
    trace::ParsedTrace parsed;
    std::string error;
    bool parsed_ok = false;
    {
      Span span(tracer, kTraceParse);
      span.set_items(static_cast<int64_t>(bytes.size()));
      parsed_ok = trace::ParseTrace(bytes, &parsed, &error);
    }
    if (!parsed_ok) {
      std::fprintf(stderr, "perfbench: %s does not parse back: %s\n", name.c_str(),
                   error.c_str());
      std::exit(3);
    }
    it.trace_records += static_cast<int64_t>(parsed.records.size());
    it.trace_bytes += static_cast<int64_t>(bytes.size());
    {
      Span span(tracer, kTraceTransform);
      parsed.records = trace::MultiplyClients(parsed.records, kZooClients,
                                              trace::ScenarioFootprintBlocks(name));
      parsed.records = trace::RemapToCapacity(parsed.records, kZooHotBlocks + kZooColdBlocks,
                                              trace::RemapMode::kScale);
      streams.push_back(trace::ToRequests(parsed));
    }
  }
  LayoutSpec spec;
  spec.geometry = &device.geometry();
  spec.device_capacity_blocks = device.CapacityBlocks();
  spec.hot_blocks = kZooHotBlocks;
  spec.cold_blocks = kZooColdBlocks;
  ExtentLayout layout("");
  {
    Span span(tracer, kLayoutBuild);
    layout = FindLayoutPolicy("tiled")->Build(spec);
  }
  for (std::vector<Request>& stream : streams) {
    Span span(tracer, kLayoutApply);
    stream = ApplyLayout(layout, stream);
  }
  SptfStack stack(&device, inst);
  trace::ReplayConfig replay;
  replay.mode = trace::ArrivalMode::kClosed;
  replay.window = kZooWindow;

  const int64_t t1 = NowNs();
  it.setup_s = Seconds(t1 - t0);
  std::vector<ExperimentResult> results;
  results.reserve(streams.size());
  for (const std::vector<Request>& stream : streams) {
    BeginSimulation(inst);
    const int64_t c0 = NowNs();
    results.push_back(trace::Replay(stack.device, stack.scheduler, stream, replay));
    it.chunk_s.push_back(Seconds(NowNs() - c0));
    it.run_s += it.chunk_s.back();
  }
  double weighted_sum = 0.0;
  double p99_sum = 0.0;
  double makespan = 0.0;
  for (size_t i = 0; i < results.size(); ++i) {
    ExperimentResult& r = results[i];
    const int64_t done = r.metrics.completed();
    const double p99 = r.metrics.ResponseQuantile(0.99);
    it.sim.submitted += static_cast<int64_t>(streams[i].size());
    it.sim.completed += done;
    weighted_sum += r.MeanResponseMs() * static_cast<double>(done);
    p99_sum += p99;
    makespan += r.makespan_ms;
    it.sim.Put(names[i] + ".mean_response_ms", r.MeanResponseMs());
    it.sim.Put(names[i] + ".p99_response_ms", p99);
    it.sim.Put(names[i] + ".makespan_ms", r.makespan_ms);
    it.sim.Put(names[i] + ".mean_queue_depth", r.metrics.queue_depth().mean());
  }
  it.sim.Put("mean_response_ms", weighted_sum / static_cast<double>(it.sim.completed));
  // Each trace is its own replay: the mean of their p99s.
  it.sim.Put("p99_response_ms", p99_sum / static_cast<double>(results.size()));
  it.sim.Put("makespan_ms", makespan);
  // Closed replay queues one admission event per replay, then fires one
  // completion event per request (no fault model).
  it.pending_at_start = 1;
  it.events = static_cast<int64_t>(streams.size()) + it.sim.completed;
  return it;
}

// ---- raid5_disk_rebuild ----

struct RaidArrival {
  ArrayManager* manager;
  Tracer* tracer;
};

Iteration RunRaid(uint64_t seed, double size, Instruments* inst) {
  Iteration it;
  Tracer* tracer = TracerOf(inst);
  const int64_t t0 = NowNs();
  const int device_count = kRaidActive + kRaidSpares;
  std::vector<std::unique_ptr<DiskDevice>> disks;
  std::vector<std::unique_ptr<TracedDevice>> traced_devices;
  std::vector<StorageDevice*> devices;
  for (int d = 0; d < device_count; ++d) {
    disks.push_back(std::make_unique<DiskDevice>());
    devices.push_back(disks.back().get());
    if (inst != nullptr) {
      traced_devices.push_back(
          std::make_unique<TracedDevice>(disks.back().get(), tracer, false, inst->log));
      devices.back() = traced_devices.back().get();
    }
  }

  Simulator sim;
  MetricsCollector metrics;
  metrics.set_exclude_background(true);
  ArrayManagerConfig config;
  config.raid.level = RaidLevel::kRaid5;
  config.active_members = kRaidActive;
  // Small instances shrink the rebuild extent with the request count.
  config.member_extent_blocks =
      std::max<int64_t>(config.rebuild_chunk_blocks * 64,
                        Scaled(kRaidExtentBlocks, std::min(1.0, size)) /
                            config.rebuild_chunk_blocks * config.rebuild_chunk_blocks);
  config.rebuild_policy = RebuildPolicy::kGreedy;
  SchedulerFactory factory = [](const StorageDevice*) {
    return std::make_unique<ClookScheduler>();
  };
  if (inst != nullptr) {
    factory = [tracer](const StorageDevice*) -> std::unique_ptr<IoScheduler> {
      return std::make_unique<TracedScheduler>(std::make_unique<ClookScheduler>(), tracer);
    };
  }
  ArrayManager manager(&sim, config, devices, factory, &metrics);

  std::vector<std::unique_ptr<FaultInjector>> injectors;
  std::vector<std::unique_ptr<TracedFaultModel>> traced_models;
  std::vector<FaultModel*> models;
  for (int d = 0; d < device_count; ++d) {
    FaultInjectorConfig fc;
    fc.transient_rate = 1e-3;
    fc.lost_completion_rate = 1e-4;
    fc.permanent_rate = 2e-5;
    fc.spares = 64;
    fc.remap_style = RemapStyle::kDiskSlip;
    injectors.push_back(std::make_unique<FaultInjector>(
        fc, devices[static_cast<size_t>(d)]->CapacityBlocks(), DeriveTrialSeed(seed, 1000 + d)));
    models.push_back(injectors.back().get());
    if (inst != nullptr) {
      traced_models.push_back(
          std::make_unique<TracedFaultModel>(injectors.back().get(), tracer, &inst->tally));
      models.back() = traced_models.back().get();
    }
  }
  manager.AttachFaultModels(models, RecoveryPolicy{});

  std::vector<Request> requests;
  {
    Span span(tracer, kWorkloadGenerate);
    RandomWorkloadConfig wc;
    wc.arrival_rate_per_s = kRaidRatePerS;
    wc.read_fraction = 0.67;
    wc.mean_request_bytes = 4096.0;
    wc.request_count = Scaled(kRaidRequests, size);
    wc.capacity_blocks = manager.CapacityBlocks();
    Rng rng(seed);
    requests = GenerateRandomWorkload(wc, rng);
  }
  // Outlives sim.Run(): the arrival events read it. A null tracer makes the
  // span free, so the plain run times Submit alone.
  RaidArrival ctx{&manager, tracer};
  RaidArrival* c = &ctx;
  for (const Request& req : requests) {
    const Request* arrival = &req;
    sim.ScheduleAt(req.arrival_ms, [c, arrival] {
      Span span(c->tracer, kArraySubmit);
      c->manager->Submit(*arrival);
    });
  }
  ArrayManager* m = &manager;
  Simulator* s = &sim;
  sim.ScheduleAt(kRaidFailAtMs, [m, s] { m->FailDevice(0, s->NowMs()); });
  it.pending_at_start = sim.PendingEvents();
  BeginSimulation(inst);

  const int64_t t1 = NowNs();
  it.setup_s = Seconds(t1 - t0);
  // Fixed slices of simulated time, so each chunk does the same work on
  // every repeat; the last one runs the queue dry (rebuild tail included).
  for (int i = 1; i <= kRaidChunks; ++i) {
    const int64_t c0 = NowNs();
    it.events += i < kRaidChunks
                     ? sim.RunUntil(requests.back().arrival_ms * i / kRaidChunks)
                     : sim.Run();
    it.chunk_s.push_back(Seconds(NowNs() - c0));
    it.run_s += it.chunk_s.back();
  }
  const FaultCounters fc = manager.DeviceFaults();
  it.sim.submitted = static_cast<int64_t>(requests.size());
  it.sim.completed = metrics.completed();
  it.sim.failed = fc.failed_requests + manager.failed_foreground();
  it.background_ios = fc.rebuild_ios;
  for (const auto& disk : disks) {
    it.member_service_calls += disk->activity().requests;
  }
  it.sim.Put("mean_response_ms", metrics.response_time().mean());
  it.sim.Put("p99_response_ms", metrics.ResponseQuantile(0.99));
  it.sim.Put("makespan_ms", metrics.last_completion_ms());
  it.sim.Put("end_backlog_ms", metrics.last_completion_ms() - requests.back().arrival_ms);
  it.sim.Put("arrival_span_ms", requests.back().arrival_ms);
  it.sim.Put("fault_transient_errors", static_cast<double>(fc.transient_errors));
  it.sim.Put("fault_timeouts", static_cast<double>(fc.timeouts));
  it.sim.Put("fault_retries", static_cast<double>(fc.retries));
  it.sim.Put("fault_permanent", static_cast<double>(fc.permanent_faults));
  it.sim.Put("fault_remaps", static_cast<double>(fc.remaps));
  it.sim.Put("fault_failed_requests", static_cast<double>(fc.failed_requests));
  it.sim.Put("rebuild_ios", static_cast<double>(fc.rebuild_ios));
  it.sim.Put("array_final_state", static_cast<double>(manager.state()));
  it.sim.Put("array_superblock_version", static_cast<double>(manager.superblock().version));
  it.sim.Put("array_rebuild_chunks", static_cast<double>(manager.rebuild_chunks_committed()));
  it.sim.Put("array_state_transitions", static_cast<double>(manager.transitions().size() - 1));
  it.sim.Put("array_member_extent_blocks", static_cast<double>(config.member_extent_blocks));
  return it;
}

Iteration RunOnce(const std::string& workload, uint64_t seed, double size, Instruments* inst) {
  if (workload == "tpcc_mems_sptf") {
    return RunTpcc(seed, size, inst);
  }
  if (workload == "zoo_closed_tiled") {
    return RunZoo(seed, size, inst);
  }
  return RunRaid(seed, size, inst);
}

// ---- Stability: the simulated backlog must not grow ----

// One simulation's mean foreground latency over the first and the last
// quarter of its device services, in dispatch order.
struct Stability {
  double first_quarter_ms = 0.0;
  double last_quarter_ms = 0.0;
  int64_t services = 0;
};

Stability Quarters(const ServiceEvent* begin, const ServiceEvent* end) {
  std::vector<double> latency;
  for (const ServiceEvent* e = begin; e != end; ++e) {
    if (e->foreground) {
      latency.push_back(e->start_ms + e->service_ms - e->arrival_ms);
    }
  }
  Stability s;
  s.services = static_cast<int64_t>(latency.size());
  const size_t q = latency.size() / 4;
  if (q == 0) {
    return s;
  }
  double first = 0.0;
  double last = 0.0;
  for (size_t i = 0; i < q; ++i) {
    first += latency[i];
    last += latency[latency.size() - q + i];
  }
  s.first_quarter_ms = first / static_cast<double>(q);
  s.last_quarter_ms = last / static_cast<double>(q);
  return s;
}

// Quarters of each simulation of a logged iteration.
std::vector<Stability> SimulationQuarters(const std::vector<ServiceEvent>& log,
                                          const std::vector<size_t>& starts) {
  std::vector<Stability> out;
  for (size_t i = 0; i < starts.size(); ++i) {
    const size_t end = i + 1 < starts.size() ? starts[i + 1] : log.size();
    out.push_back(Quarters(log.data() + starts[i], log.data() + end));
  }
  return out;
}

// ---- Per-layer totals ----

// Additive per-layer totals of traced iterations: one part's fastest traced
// iteration, or the sum of those over the parts of a run.
struct LayerSums {
  LayerTotals layers[kLayerCount] = {};
  FaultTally tally;
  double run_s = 0.0;
  int64_t completed = 0;
  int64_t failed = 0;
  int64_t events = 0;
  int64_t pending_at_start = 0;  // the largest of any part: it sets memory
  int64_t background_ios = 0;
  int64_t trace_records = 0;
  int64_t trace_bytes = 0;
  int64_t member_service_calls = 0;
  int64_t rebuild_chunks = 0;
  int64_t superblock_bumps = 0;
  int64_t final_state = 0;  // the worst of any part (0 = kOptimal)
  int64_t spans_dropped = 0;

  static LayerSums Of(const Iteration& it, const Tracer& tr, const FaultTally& tally) {
    LayerSums s;
    for (int layer = 0; layer < kLayerCount; ++layer) {
      s.layers[layer] = tr.totals(layer);
    }
    s.tally = tally;
    s.run_s = it.run_s;
    s.completed = it.sim.completed;
    s.failed = it.sim.failed;
    s.events = it.events;
    s.pending_at_start = it.pending_at_start;
    s.background_ios = it.background_ios;
    s.trace_records = it.trace_records;
    s.trace_bytes = it.trace_bytes;
    s.member_service_calls = it.member_service_calls;
    s.rebuild_chunks = static_cast<int64_t>(it.sim.Get("array_rebuild_chunks"));
    s.superblock_bumps = static_cast<int64_t>(it.sim.Get("array_superblock_version"));
    s.final_state = static_cast<int64_t>(it.sim.Get("array_final_state"));
    s.spans_dropped = tr.dropped();
    return s;
  }

  void Add(const LayerSums& o) {
    for (int layer = 0; layer < kLayerCount; ++layer) {
      layers[layer].calls += o.layers[layer].calls;
      layers[layer].items += o.layers[layer].items;
      layers[layer].total_ns += o.layers[layer].total_ns;
      layers[layer].self_ns += o.layers[layer].self_ns;
      layers[layer].root_ns += o.layers[layer].root_ns;
    }
    tally.retries += o.tally.retries;
    tally.timeouts += o.tally.timeouts;
    tally.remaps += o.tally.remaps;
    run_s += o.run_s;
    completed += o.completed;
    failed += o.failed;
    events += o.events;
    pending_at_start = std::max(pending_at_start, o.pending_at_start);
    background_ios += o.background_ios;
    trace_records += o.trace_records;
    trace_bytes += o.trace_bytes;
    member_service_calls += o.member_service_calls;
    rebuild_chunks += o.rebuild_chunks;
    superblock_bumps += o.superblock_bumps;
    final_state = std::max(final_state, o.final_state);
    spans_dropped += o.spans_dropped;
  }
};

using Metrics = std::vector<std::pair<std::string, double>>;

// Per-layer metrics, named <module>.<metric>, plus the raw self time of
// every run-phase span kind as self.<layer>.
Metrics LayerMetrics(const LayerSums& s) {
  auto total_s = [&](int layer) { return Seconds(s.layers[layer].total_ns); };
  auto self_s = [&](int layer) { return Seconds(s.layers[layer].self_ns); };
  auto calls = [&](int layer) { return static_cast<double>(s.layers[layer].calls); };
  auto items = [&](int layer) { return static_cast<double>(s.layers[layer].items); };
  auto per = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  const double ios = static_cast<double>(s.completed);
  const double events = static_cast<double>(s.events);
  const double services = calls(kMemsService) + calls(kDiskService);
  const double estimate_items = items(kMemsEstimate) + items(kDiskEstimate);
  // Core: the run time no run-phase span covers (event queue, Driver,
  // metrics, background runner, array and replay completion-side work).
  double covered_s = 0.0;
  double root_s = 0.0;
  for (int layer = 0; layer < kFirstSetupLayer; ++layer) {
    covered_s += self_s(layer);
    root_s += Seconds(s.layers[layer].root_ns);
  }
  const double core_self = s.run_s - covered_s;

  Metrics m = {
      {"sim.events", events},
      {"sim.events_per_io", per(events, ios)},
      {"sim.pending_at_start", static_cast<double>(s.pending_at_start)},
      {"core.self_s", core_self},
      {"core.self_ns_per_event", per(core_self * 1e9, events)},
      {"core.background_ios", static_cast<double>(s.background_ios)},
      {"sched.add_calls", calls(kSchedAdd)},
      {"sched.add_s", total_s(kSchedAdd)},
      {"sched.pop_calls", calls(kSchedPop)},
      {"sched.pop_s", total_s(kSchedPop)},
      {"sched.pop_self_s", self_s(kSchedPop)},
      {"sched.depth_at_pop", per(items(kSchedPop), calls(kSchedPop))},
      {"sched.passthrough_share", services > 0.0 ? 1.0 - calls(kSchedPop) / services : 0.0},
      {"sched.estimate_cache_hit_share",
       items(kSchedPop) > 0.0 && estimate_items > 0.0 ? 1.0 - estimate_items / items(kSchedPop)
                                                      : 0.0},
      {"sched.pick_yield", per(calls(kSchedPop), estimate_items)},
      {"mems.service_calls", calls(kMemsService)},
      {"mems.service_s", total_s(kMemsService)},
      {"mems.service_ns_per_call", per(total_s(kMemsService) * 1e9, calls(kMemsService))},
      {"mems.estimate_calls", calls(kMemsEstimate)},
      {"mems.estimate_items", items(kMemsEstimate)},
      {"mems.estimate_s", total_s(kMemsEstimate)},
      {"mems.estimate_ns_per_item", per(total_s(kMemsEstimate) * 1e9, items(kMemsEstimate))},
      {"mems.estimates_per_io", per(items(kMemsEstimate), ios)},
      {"disk.service_calls", calls(kDiskService)},
      {"disk.service_s", total_s(kDiskService)},
      {"disk.service_ns_per_call", per(total_s(kDiskService) * 1e9, calls(kDiskService))},
      {"fault.judge_calls", calls(kFaultJudge)},
      {"fault.judge_s", total_s(kFaultJudge)},
      {"fault.map_calls", calls(kFaultMap)},
      {"fault.map_s", total_s(kFaultMap)},
      {"fault.retry_share", per(static_cast<double>(s.tally.retries), calls(kFaultJudge))},
      {"fault.timeouts", static_cast<double>(s.tally.timeouts)},
      {"fault.remaps", static_cast<double>(s.tally.remaps)},
      {"fault.failed_requests", static_cast<double>(s.failed)},
      {"array.submit_calls", calls(kArraySubmit)},
      {"array.submit_s", total_s(kArraySubmit)},
      {"array.submit_self_s", self_s(kArraySubmit)},
      {"array.member_ops_per_io", per(static_cast<double>(s.member_service_calls), ios)},
      {"array.rebuild_chunks", static_cast<double>(s.rebuild_chunks)},
      {"array.superblock_version", static_cast<double>(s.superblock_bumps)},
      {"array.final_state", static_cast<double>(s.final_state)},
      {"trace.records", static_cast<double>(s.trace_records)},
      {"trace.serialize_s", total_s(kTraceSerialize)},
      {"trace.parse_s", total_s(kTraceParse)},
      {"trace.parse_mib_per_s",
       per(static_cast<double>(s.trace_bytes) / (1024.0 * 1024.0), total_s(kTraceParse))},
      {"trace.transform_s", total_s(kTraceTransform)},
      {"layout.build_s", total_s(kLayoutBuild)},
      {"layout.apply_s", total_s(kLayoutApply)},
      {"workload.generate_s", total_s(kWorkloadGenerate)},
      {"tracing.run_s", s.run_s},
      // Run-phase time inside outermost spans, summed span by span: the
      // self times of the run-phase layers must add up to it.
      {"tracing.root_s", root_s},
      {"tracing.spans_dropped", static_cast<double>(s.spans_dropped)},
  };
  for (int layer = 0; layer < kFirstSetupLayer; ++layer) {
    m.emplace_back(std::string("self.") + LayerName(layer), self_s(layer));
  }
  return m;
}

// ---- Output ----

// Peak resident set of this program's own address space. getrusage's
// ru_maxrss is not used: it keeps the parent's peak across fork and exec, so
// it would report the launching interpreter's footprint.
double PeakRssMib() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0.0;
  }
  char line[256];
  long kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) {
      break;
    }
  }
  std::fclose(f);
  return static_cast<double>(kib) / 1024.0;
}

void PrintDoubles(const char* key, const std::vector<double>& xs) {
  std::printf("\"%s\":[", key);
  for (size_t i = 0; i < xs.size(); ++i) {
    std::printf("%s%.9g", i == 0 ? "" : ",", xs[i]);
  }
  std::printf("]");
}

void PrintSim(const SimOutput& sim) {
  std::printf("{\"submitted\":%" PRId64 ",\"completed\":%" PRId64 ",\"failed\":%" PRId64
              ",\"values\":{",
              sim.submitted, sim.completed, sim.failed);
  for (size_t i = 0; i < sim.values.size(); ++i) {
    uint64_t bits = 0;
    std::memcpy(&bits, &sim.values[i].second, sizeof bits);
    std::printf("%s\"%s\":{\"value\":%.17g,\"bits\":\"%016" PRIx64 "\"}", i == 0 ? "" : ",",
                sim.values[i].first.c_str(), sim.values[i].second, bits);
  }
  std::printf("}}");
}

void PrintMetrics(const char* key, const Metrics& m) {
  std::printf("\"%s\":{", key);
  for (size_t i = 0; i < m.size(); ++i) {
    std::printf("%s\"%s\":%.9g", i == 0 ? "" : ",", m[i].first.c_str(), m[i].second);
  }
  std::printf("}");
}

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) {
      return false;
    }
    const char* v = argv[++i];
    if (a == "--workload") {
      o->workload = v;
    } else if (a == "--seed") {
      o->seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      o->seconds = std::atof(v);
    } else if (a == "--trace") {
      o->trace = std::atoi(v);
    } else if (a == "--parts") {
      o->parts = std::max(1, std::atoi(v));
    } else if (a == "--size") {
      o->size = std::atof(v);
    } else if (a == "--max-rounds") {
      o->max_rounds = std::atoi(v);
    } else if (a == "--spans") {
      o->spans_path = v;
    } else {
      return false;
    }
  }
  return o->workload == "tpcc_mems_sptf" || o->workload == "zoo_closed_tiled" ||
         o->workload == "raid5_disk_rebuild";
}

// One part of a run and what its repeats found.
struct Part {
  uint64_t seed = 0;
  SimOutput sim;  // from the first repeat; every later one must match
  bool consistent = true;
  bool decorated_identical = true;
  double best_setup_s = std::numeric_limits<double>::infinity();
  std::vector<double> best_chunk_s;  // per chunk, the fastest repeat
  double best_total_s = std::numeric_limits<double>::infinity();  // whole run phase
  std::vector<Stability> stability;  // one per simulation
  bool traced = false;  // best_traced holds a traced iteration
  LayerSums best_traced;
};

int Main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload tpcc_mems_sptf|zoo_closed_tiled|"
                 "raid5_disk_rebuild [--seed S] [--seconds T] [--trace 0|1]\n"
                 "       [--parts N] [--size F] [--max-rounds N] [--spans PATH]\n");
    return 2;
  }
  std::vector<Part> parts(static_cast<size_t>(opt.parts));
  for (int k = 0; k < opt.parts; ++k) {
    parts[static_cast<size_t>(k)].seed = DeriveTrialSeed(opt.seed, k);
  }

  // Rounds over all parts until the budget is spent. With --trace 1 every
  // plain repeat is followed by a traced one, so host drift hits both alike;
  // only each part's fastest traced repeat is kept, and the spans of the last
  // traced repeat are written out. One tracer serves every traced repeat.
  std::unique_ptr<Tracer> tracer;
  if (opt.trace == 1) {
    tracer = std::make_unique<Tracer>(kSpanCap);
  }
  const int64_t budget_ns = static_cast<int64_t>(opt.seconds * 1e9);
  const int64_t start_ns = NowNs();
  int rounds = 0;
  for (;;) {
    for (Part& part : parts) {
      const Iteration it = RunOnce(opt.workload, part.seed, opt.size, nullptr);
      if (rounds == 0) {
        part.sim = it.sim;
        part.best_chunk_s = it.chunk_s;
      }
      part.consistent = part.consistent && it.sim.SameAs(part.sim);
      part.best_setup_s = std::min(part.best_setup_s, it.setup_s);
      part.best_total_s = std::min(part.best_total_s, it.run_s);
      for (size_t c = 0; c < it.chunk_s.size(); ++c) {
        part.best_chunk_s[c] = std::min(part.best_chunk_s[c], it.chunk_s[c]);
      }
      if (opt.trace == 1) {
        tracer->Clear();
        Instruments inst;
        inst.tracer = tracer.get();
        const Iteration traced = RunOnce(opt.workload, part.seed, opt.size, &inst);
        part.decorated_identical = part.decorated_identical && traced.sim.SameAs(part.sim);
        if (!part.traced || traced.run_s < part.best_traced.run_s) {
          part.best_traced = LayerSums::Of(traced, *tracer, inst.tally);
          part.traced = true;
        }
      }
    }
    ++rounds;
    if (opt.max_rounds > 0 && rounds >= opt.max_rounds) {
      break;
    }
    if (rounds >= kMinRounds && NowNs() - start_ns >= budget_ns) {
      break;
    }
  }
  const double peak_rss_mib = PeakRssMib();

  // The decorators must be transparent: one extra clock-free decorated pass
  // per part checks that, and its service log feeds the stability check.
  for (Part& part : parts) {
    std::vector<ServiceEvent> log;
    Instruments inst;
    inst.log = &log;
    const Iteration checked = RunOnce(opt.workload, part.seed, opt.size, &inst);
    part.decorated_identical = part.decorated_identical && checked.sim.SameAs(part.sim);
    part.stability = SimulationQuarters(log, inst.sim_starts);
  }

  bool consistent = true;
  bool decorated_identical = true;
  double setup_s = 0.0;
  double run_s = 0.0;
  double best_total_s = 0.0;
  std::vector<double> part_run_s;
  LayerSums traced;
  for (const Part& part : parts) {
    consistent = consistent && part.consistent;
    decorated_identical = decorated_identical && part.decorated_identical;
    setup_s += part.best_setup_s;
    double part_s = 0.0;
    for (double c : part.best_chunk_s) {
      part_s += c;
    }
    run_s += part_s;
    part_run_s.push_back(part_s);
    best_total_s += part.best_total_s;
    traced.Add(part.best_traced);
  }

  std::printf("{\"workload\":\"%s\",\"seed\":%" PRIu64 ",\"size\":%.9g,\"parts\":%d,"
              "\"rounds\":%d,\"setup_s\":%.9g,\"run_s\":%.9g,",
              opt.workload.c_str(), opt.seed, opt.size, opt.parts, rounds, setup_s, run_s);
  PrintDoubles("part_run_s", part_run_s);
  std::printf(",\"peak_rss_mib\":%.9g,\"consistent\":%s,\"decorated_identical\":%s,",
              peak_rss_mib, consistent ? "true" : "false",
              decorated_identical ? "true" : "false");
  std::printf("\"parts_sim\":[");
  for (size_t k = 0; k < parts.size(); ++k) {
    std::printf("%s", k == 0 ? "" : ",");
    PrintSim(parts[k].sim);
  }
  std::printf("],\"stability\":[");
  bool first_sim = true;
  for (size_t k = 0; k < parts.size(); ++k) {
    for (size_t j = 0; j < parts[k].stability.size(); ++j) {
      const Stability& st = parts[k].stability[j];
      std::printf("%s{\"part\":%zu,\"sim\":%zu,\"first_quarter_ms\":%.9g,"
                  "\"last_quarter_ms\":%.9g,\"services\":%" PRId64 "}",
                  first_sim ? "" : ",", k, j, st.first_quarter_ms, st.last_quarter_ms,
                  st.services);
      first_sim = false;
    }
  }
  std::printf("]");
  if (opt.trace == 1) {
    std::printf(",");
    Metrics layers = LayerMetrics(traced);
    // Both sides from whole fastest repeats, so the estimators match.
    layers.emplace_back("tracing.overhead_s", traced.run_s - best_total_s);
    PrintMetrics("layers", layers);
    if (!opt.spans_path.empty() && !tracer->WriteSpans(opt.spans_path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", opt.spans_path.c_str());
      return 1;
    }
  }
  // Checked against perfbench/expected.json whatever seed the run was given.
  const Iteration golden = RunOnce(opt.workload, kGoldenSeed, kGoldenSize, nullptr);
  std::printf(",\"golden\":");
  PrintSim(golden.sim);
  std::printf("}\n");
  return 0;
}

}  // namespace
}  // namespace perfbench
}  // namespace mstk

int main(int argc, char** argv) { return mstk::perfbench::Main(argc, argv); }
