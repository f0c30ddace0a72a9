// The harness layer: the scheduler factory table and the one trial path.
// Every RunTrial route (source x device x layout x arrival x faults) must
// reproduce, bit for bit, the library calls a caller would assemble by hand
// — the seed derivations included — because the figure benches and the
// mstk_sweep matrices all measure their cells through it.
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/bench_util.h"
#include "src/disk/disk_device.h"
#include "src/fault/fault_experiment.h"
#include "src/layout/layout_map.h"
#include "src/layout/layout_policy.h"
#include "src/mems/mems_device.h"
#include "src/sched/clook.h"
#include "src/sched/fcfs.h"
#include "src/sched/sched_kind.h"
#include "src/sched/sptf.h"
#include "src/sim/rng.h"
#include "src/trace/replay.h"
#include "src/trace/scenarios.h"
#include "src/trace/transforms.h"
#include "src/workload/cello_like.h"
#include "src/workload/random_workload.h"
#include "src/workload/tpcc_like.h"

namespace mstk {
namespace {

constexpr SchedKind kAllKinds[] = {SchedKind::kFcfs, SchedKind::kSstfLbn, SchedKind::kClook,
                                   SchedKind::kLook, SchedKind::kSptf};

const uint64_t kSeed = DeriveTrialSeed(7, 3);

void ExpectSameResult(ExperimentResult got, ExperimentResult want) {
  ASSERT_GT(want.metrics.completed(), 0);
  EXPECT_EQ(got.metrics.completed(), want.metrics.completed());
  EXPECT_EQ(got.MeanResponseMs(), want.MeanResponseMs());
  EXPECT_EQ(got.metrics.ResponseQuantile(0.99), want.metrics.ResponseQuantile(0.99));
  EXPECT_EQ(got.makespan_ms, want.makespan_ms);
}

std::vector<Request> RandomStream(double rate, int64_t count, int64_t capacity, Rng& rng) {
  RandomWorkloadConfig config;
  config.arrival_rate_per_s = rate;
  config.request_count = count;
  config.capacity_blocks = capacity;
  return GenerateRandomWorkload(config, rng);
}

LayoutSpec LayoutSpecFor(const MemsDevice& device) {
  LayoutSpec spec;
  spec.geometry = &device.geometry();
  spec.device_capacity_blocks = device.CapacityBlocks();
  spec.hot_blocks = 200000;
  spec.cold_blocks = 800000;
  return spec;
}

TEST(SchedKindTest, FactoryBuildsTheNamedPolicy) {
  MemsDevice device;
  for (const SchedKind kind : kAllKinds) {
    const std::unique_ptr<IoScheduler> sched = MakeScheduler(kind, &device);
    ASSERT_NE(sched, nullptr);
    EXPECT_STREQ(sched->name(), SchedKindName(kind));
  }
}

TEST(SchedKindTest, CliNamesRoundTripAndUnknownNamesAreRejected) {
  for (const SchedKind kind : kAllKinds) {
    SchedKind parsed = kind == SchedKind::kFcfs ? SchedKind::kSptf : SchedKind::kFcfs;
    ASSERT_TRUE(ParseSchedKind(SchedKindCliName(kind), &parsed)) << SchedKindCliName(kind);
    EXPECT_EQ(parsed, kind);
  }
  SchedKind parsed = SchedKind::kLook;
  for (const char* bad : {"", "bogus", "SPTF", "sstf_lbn", "c-look", "sptf "}) {
    EXPECT_FALSE(ParseSchedKind(bad, &parsed)) << bad;
  }
  EXPECT_EQ(parsed, SchedKind::kLook);  // untouched on failure
}

TEST(SchedKindTest, PaperSchedulersAreTheFigureColumns) {
  std::vector<std::string> names;
  for (const SchedKind kind : kPaperScheds) names.emplace_back(SchedKindName(kind));
  EXPECT_EQ(names, (std::vector<std::string>{"FCFS", "SSTF_LBN", "C-LOOK", "SPTF"}));
}

TEST(RunTrialTest, RandomOpenLoopMatchesLibraryCall) {
  TrialSpec spec;
  spec.sched = SchedKind::kSptf;
  spec.rate = 900;
  spec.count = 600;

  MemsDevice device;
  Rng rng(kSeed);
  const auto requests = RandomStream(900, 600, device.CapacityBlocks(), rng);
  SptfScheduler sched(&device);
  ExpectSameResult(RunTrial(spec, kSeed), RunOpenLoop(&device, &sched, requests));
}

TEST(RunTrialTest, CelloOpenLoopMatchesLibraryCall) {
  TrialSpec spec;
  spec.sched = SchedKind::kClook;
  spec.source = TrialSource::kCello;
  spec.scale = 4;
  spec.count = 800;

  MemsDevice device;
  CelloLikeConfig config;
  config.request_count = 800;
  config.capacity_blocks = device.CapacityBlocks();
  config.scale = 4;
  Rng rng(kSeed);
  const auto requests = GenerateCelloLike(config, rng);
  ClookScheduler sched;
  ExpectSameResult(RunTrial(spec, kSeed), RunOpenLoop(&device, &sched, requests));
}

TEST(RunTrialTest, TpccOpenLoopMatchesLibraryCall) {
  TrialSpec spec;
  spec.sched = SchedKind::kSptf;
  spec.source = TrialSource::kTpcc;
  spec.scale = 8;
  spec.count = 800;

  MemsDevice device;
  TpccLikeConfig config;
  config.request_count = 800;
  config.capacity_blocks = device.CapacityBlocks();
  config.scale = 8;
  Rng rng(kSeed);
  const auto requests = GenerateTpccLike(config, rng);
  SptfScheduler sched(&device);
  ExpectSameResult(RunTrial(spec, kSeed), RunOpenLoop(&device, &sched, requests));
}

FaultRunConfig BusyFaults() {
  FaultRunConfig config;
  config.injector.transient_rate = 0.05;
  config.injector.permanent_rate = 0.01;
  config.injector.lost_completion_rate = 0.01;
  config.injector.spares = 16;
  return config;
}

TEST(RunTrialTest, FaultedMemsMatchesLibraryCall) {
  TrialSpec spec;
  spec.sched = SchedKind::kSptf;
  spec.rate = 800;
  spec.count = 600;
  spec.faults = BusyFaults();

  MemsDevice device;
  Rng rng(kSeed);
  const auto requests = RandomStream(800, 600, device.CapacityBlocks(), rng);
  SptfScheduler sched(&device);
  const ExperimentResult want = RunFaultInjectedOpenLoop(
      &device, &sched, requests, BusyFaults(), DeriveTrialSeed(kSeed, 0x0fa17));
  ASSERT_GT(want.metrics.fault().transient_errors, 0);
  ExpectSameResult(RunTrial(spec, kSeed), want);
}

TEST(RunTrialTest, FaultedDiskMatchesLibraryCall) {
  FaultRunConfig faults = BusyFaults();
  faults.injector.remap_style = RemapStyle::kDiskSlip;
  TrialSpec spec;
  spec.device = TrialDevice::kDisk;
  spec.sched = SchedKind::kClook;
  spec.rate = 150;
  spec.count = 400;
  spec.faults = faults;

  DiskDevice device;
  Rng rng(kSeed);
  const auto requests = RandomStream(150, 400, device.CapacityBlocks(), rng);
  ClookScheduler sched;
  const ExperimentResult want = RunFaultInjectedOpenLoop(&device, &sched, requests, faults,
                                                         DeriveTrialSeed(kSeed, 0x0fa17));
  ASSERT_GT(want.metrics.fault().transient_errors, 0);
  ExpectSameResult(RunTrial(spec, kSeed), want);
}

TEST(RunTrialTest, BipartiteThroughLayoutMatchesLibraryCall) {
  const LayoutPolicy* policy = FindLayoutPolicy("tiled");
  ASSERT_NE(policy, nullptr);
  TrialSpec spec;
  spec.sched = SchedKind::kFcfs;
  spec.source = TrialSource::kBipartite;
  spec.count = 800;
  spec.layout = policy;

  MemsDevice device;
  Rng rng(kSeed);
  std::vector<Request> logical = RandomStream(500, 800, 1000000, rng);
  for (Request& req : logical) {
    req.type = IoType::kRead;
    if (rng.Bernoulli(0.11)) {
      req.block_count = 128;
      req.lbn = 200000 + rng.UniformInt(800000 - 128);
    } else {
      req.block_count = 8;
      req.lbn = rng.UniformInt(200000 - 8);
    }
  }
  const auto requests = ApplyLayout(policy->Build(LayoutSpecFor(device)), logical);
  FcfsScheduler sched;
  ExpectSameResult(RunTrial(spec, kSeed), RunOpenLoop(&device, &sched, requests));
}

// The scenario stream as a caller would prepare it by hand.
std::vector<Request> ScenarioStream(int clients, double warp, int64_t space) {
  trace::ScenarioConfig config;
  config.request_count = 500;
  config.seed = kSeed;
  trace::ParsedTrace parsed = trace::GenerateScenario("oltp_burst", config);
  if (clients > 1) {
    parsed.records = trace::MultiplyClients(parsed.records, clients,
                                            trace::ScenarioFootprintBlocks("oltp_burst"));
  }
  if (warp != 1.0) parsed.records = trace::TimeWarp(parsed.records, warp);
  parsed.records = trace::RemapToCapacity(parsed.records, space, trace::RemapMode::kScale);
  return trace::ToRequests(parsed);
}

TEST(RunTrialTest, ScenarioThroughLayoutMatchesLibraryCall) {
  const LayoutPolicy* policy = FindLayoutPolicy("columnar");
  ASSERT_NE(policy, nullptr);
  TrialSpec spec;
  spec.sched = SchedKind::kSptf;
  spec.source = TrialSource::kScenario;
  spec.scenario = "oltp_burst";
  spec.clients = 2;
  spec.warp = 0.5;
  spec.count = 500;
  spec.layout = policy;

  MemsDevice device;
  const auto requests =
      ApplyLayout(policy->Build(LayoutSpecFor(device)), ScenarioStream(2, 0.5, 1000000));
  SptfScheduler sched(&device);
  ExpectSameResult(RunTrial(spec, kSeed), RunOpenLoop(&device, &sched, requests));
}

TEST(RunTrialTest, ScenarioClosedAndHybridMatchReplay) {
  for (const trace::ArrivalMode mode :
       {trace::ArrivalMode::kClosed, trace::ArrivalMode::kHybrid}) {
    SCOPED_TRACE(trace::ArrivalModeName(mode));
    TrialSpec spec;
    spec.sched = SchedKind::kSptf;
    spec.source = TrialSource::kScenario;
    spec.scenario = "oltp_burst";
    spec.count = 500;
    spec.arrival = mode;
    spec.window = 3;

    MemsDevice device;
    SptfScheduler sched(&device);
    trace::ReplayConfig replay;
    replay.mode = mode;
    replay.window = 3;
    ExpectSameResult(
        RunTrial(spec, kSeed),
        trace::Replay(&device, &sched, ScenarioStream(1, 1.0, device.CapacityBlocks()), replay));
  }
}

TEST(RunTrialTest, TraceTrackRecordsWithoutPerturbingResults) {
  TrialSpec spec;
  spec.sched = SchedKind::kSstfLbn;
  spec.rate = 1200;
  spec.count = 300;
  TraceWriter writer;
  const int tid = writer.AddTrack("cell");
  ExpectSameResult(RunTrial(spec, kSeed, TraceTrack(&writer, tid)), RunTrial(spec, kSeed));
  EXPECT_FALSE(writer.events().empty());
}

}  // namespace
}  // namespace mstk
