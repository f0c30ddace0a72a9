// google-benchmark microbenchmarks for the hot paths of the simulator:
// the closed-form sled planner (SPTF evaluates it per pending request per
// dispatch), device service computation, and scheduler dispatch.
#include <benchmark/benchmark.h>

#include <vector>

#include "src/disk/disk_device.h"
#include "src/mems/mems_device.h"
#include "src/sched/sptf.h"
#include "src/sim/rng.h"

namespace {

using namespace mstk;

// Services one random 4 KB request, leaving the sled where it is at every
// dispatch of a real run: on a row boundary moving at access velocity (a
// fresh device rests at the centre, off the row-boundary grid, and would
// bypass the Y-leg memo), almost always at a new X (so the per-cylinder
// X-leg memo, keyed on the sled's X, holds nothing for it, as after most
// services).
void ServiceOne(MemsDevice& device, Rng& rng) {
  Request req;
  req.block_count = 8;
  req.lbn = rng.UniformInt(device.CapacityBlocks() - 8);
  (void)device.ServiceRequest(req, 0.0);
}

void BM_SledSeekClosedForm(benchmark::State& state) {
  const SledKinematics kin(SledAxisParams{803.6, 50e-6, 0.75});
  Rng rng(1);
  double from = -40e-6;
  for (auto _ : state) {
    const double to = rng.Uniform(-50e-6, 50e-6);
    benchmark::DoNotOptimize(kin.SeekSeconds(from, to));
    from = to;
  }
}
BENCHMARK(BM_SledSeekClosedForm);

// The same seeks through the full four-candidate plan SeekSeconds must match
// bit for bit: the gap to BM_SledSeekClosedForm is the single-candidate gain.
void BM_SledSeekPlanReference(benchmark::State& state) {
  const SledKinematics kin(SledAxisParams{803.6, 50e-6, 0.75});
  Rng rng(1);
  double from = -40e-6;
  for (auto _ : state) {
    const double to = rng.Uniform(-50e-6, 50e-6);
    benchmark::DoNotOptimize(kin.TravelSeconds(from, 0.0, to, 0.0));
    from = to;
  }
}
BENCHMARK(BM_SledSeekPlanReference);

void BM_SledTravelMovingStart(benchmark::State& state) {
  const SledKinematics kin(SledAxisParams{803.6, 50e-6, 0.75});
  Rng rng(2);
  for (auto _ : state) {
    const double y0 = rng.Uniform(-48e-6, 48e-6);
    const double y1 = rng.Uniform(-48e-6, 48e-6);
    benchmark::DoNotOptimize(kin.TravelSeconds(y0, 0.028, y1, -0.028));
  }
}
BENCHMARK(BM_SledTravelMovingStart);

void BM_MemsServiceRequest4K(benchmark::State& state) {
  MemsDevice device;
  Rng rng(3);
  Request req;
  req.block_count = 8;
  for (auto _ : state) {
    req.lbn = rng.UniformInt(device.CapacityBlocks() - 8);
    benchmark::DoNotOptimize(device.ServiceRequest(req, 0.0));
  }
}
BENCHMARK(BM_MemsServiceRequest4K);

void BM_MemsEstimatePositioning(benchmark::State& state) {
  MemsDevice device;
  Rng rng(4);
  Request req;
  req.block_count = 8;
  for (auto _ : state) {
    req.lbn = rng.UniformInt(device.CapacityBlocks() - 8);
    benchmark::DoNotOptimize(device.EstimatePositioningMs(req, 0.0));
  }
}
BENCHMARK(BM_MemsEstimatePositioning);

void BM_DiskServiceRequest4K(benchmark::State& state) {
  DiskDevice device;
  Rng rng(5);
  Request req;
  req.block_count = 8;
  double now = 0.0;
  for (auto _ : state) {
    req.lbn = rng.UniformInt(device.CapacityBlocks() - 8);
    now += device.ServiceRequest(req, now);
    benchmark::DoNotOptimize(now);
  }
}
BENCHMARK(BM_DiskServiceRequest4K);

void BM_SptfPopQueue(benchmark::State& state) {
  MemsDevice device;
  Rng rng(6);
  const int64_t depth = state.range(0);
  for (auto _ : state) {
    state.PauseTiming();
    ServiceOne(device, rng);
    SptfScheduler sched(&device);
    for (int64_t i = 0; i < depth; ++i) {
      Request req;
      req.id = i;
      req.block_count = 8;
      req.lbn = rng.UniformInt(device.CapacityBlocks() - 8);
      sched.Add(req);
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(sched.Pop(0.0));
  }
}
BENCHMARK(BM_SptfPopQueue)->Arg(16)->Arg(64)->Arg(256);

// Batched positioning estimation (the SPTF scan path) after a service, as at
// every dispatch: Y legs come from the device's row-boundary memo, X legs
// are computed once per distinct cylinder for the new state.
void BM_MemsEstimatePositioningBatch(benchmark::State& state) {
  MemsDevice device;
  Rng rng(7);
  const int64_t n = state.range(0);
  std::vector<Request> reqs(static_cast<size_t>(n));
  for (auto& req : reqs) {
    req.block_count = 8;
    req.lbn = rng.UniformInt(device.CapacityBlocks() - 8);
  }
  std::vector<double> out(static_cast<size_t>(n));
  for (auto _ : state) {
    state.PauseTiming();
    ServiceOne(device, rng);
    state.ResumeTiming();
    device.EstimatePositioningBatch(reqs.data(), n, 0.0, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_MemsEstimatePositioningBatch)->Arg(64)->Arg(256);

// Draining a full queue against a stationary device: with epoch-keyed
// caching every Pop after the first re-scans cached costs instead of
// re-estimating all pending requests (the lazy re-scan was O(n * cost)
// per dispatch).
void BM_SptfDrainStationary(benchmark::State& state) {
  MemsDevice device;
  Rng service_rng(9);
  const int64_t depth = state.range(0);
  for (auto _ : state) {
    state.PauseTiming();
    ServiceOne(device, service_rng);
    Rng rng(8);
    SptfScheduler sched(&device);
    for (int64_t i = 0; i < depth; ++i) {
      Request req;
      req.id = i;
      req.block_count = 8;
      req.lbn = rng.UniformInt(device.CapacityBlocks() - 8);
      sched.Add(req);
    }
    state.ResumeTiming();
    while (!sched.Empty()) {
      benchmark::DoNotOptimize(sched.Pop(0.0));
    }
  }
  state.SetItemsProcessed(state.iterations() * depth);
}
BENCHMARK(BM_SptfDrainStationary)->Arg(64)->Arg(256);

}  // namespace

BENCHMARK_MAIN();
