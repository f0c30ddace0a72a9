// Shared helpers for the experiment benches.
//
// Every bench prints an aligned text table by default; the shared flag
// surface is:
//   --csv          machine-readable output
//   --fast         quicker, lower-resolution run (fewer requests)
//   --trials N     independent trials per cell (default 1); tables then show
//                  "mean±ci95" and JSON carries the full aggregate
//   --jobs N       worker threads for the trial fan-out (0 = all cores)
//   --json PATH    write a JSON document of every cell's aggregate
//   --seed S       base seed for the per-trial seed derivation
//   --trace PATH   write a Chrome trace-event JSON of trial 0 of each cell
//                  (one track per cell; per-request phase slices). The trace
//                  comes from a separate serial re-run, so measured results
//                  are byte-identical with and without it.
#ifndef MSTK_BENCH_BENCH_UTIL_H_
#define MSTK_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/core/experiment.h"
#include "src/core/io_scheduler.h"
#include "src/core/storage_device.h"
#include "src/core/trial_runner.h"
#include "src/disk/disk_device.h"
#include "src/fault/fault_experiment.h"
#include "src/layout/layout_map.h"
#include "src/layout/layout_policy.h"
#include "src/mems/mems_device.h"
#include "src/sched/sched_kind.h"
#include "src/sim/check.h"
#include "src/sim/json_writer.h"
#include "src/sim/rng.h"
#include "src/trace/replay.h"
#include "src/trace/scenarios.h"
#include "src/trace/transforms.h"
#include "src/workload/cello_like.h"
#include "src/workload/random_workload.h"
#include "src/workload/tpcc_like.h"

namespace mstk {

struct BenchOptions {
  bool csv = false;
  bool fast = false;
  int64_t trials = 1;
  int jobs = 0;  // 0 = one worker per hardware core
  uint64_t seed = 1;
  // Per-attempt transient-error probability for fault-injection sections
  // (0 disables injection; see docs/USAGE.md "Fault injection").
  double fault_rate = 0.0;
  // Layout-policy selection for the layout benches: "legacy" (default),
  // "all", or a comma list of policy names (see LayoutPolicyNames()).
  std::string layouts;
  // Trace-replay inputs (bench/trace_replay): an external v1 trace file
  // (default: the built-in scenario zoo), the arrival-control mode
  // ("open" / "closed" / "hybrid"), and the N-way client-multiplication
  // fan-in factor.
  std::string trace_file;
  std::string arrival_mode = "open";
  int clients = 1;
  std::string json_path;
  std::string trace_path;

  static BenchOptions Parse(int argc, char** argv) {
    BenchOptions opts;
    for (int i = 1; i < argc; ++i) {
      const char* arg = argv[i];
      auto next = [&]() -> const char* {
        if (i + 1 >= argc) {
          std::fprintf(stderr, "%s: %s needs a value\n", argv[0], arg);
          std::exit(2);
        }
        return argv[++i];
      };
      if (std::strcmp(arg, "--csv") == 0) {
        opts.csv = true;
      } else if (std::strcmp(arg, "--fast") == 0) {
        opts.fast = true;
      } else if (std::strcmp(arg, "--trials") == 0) {
        opts.trials = std::atoll(next());
      } else if (std::strcmp(arg, "--jobs") == 0) {
        opts.jobs = std::atoi(next());
      } else if (std::strcmp(arg, "--seed") == 0) {
        opts.seed = std::strtoull(next(), nullptr, 10);
      } else if (std::strcmp(arg, "--fault-rate") == 0) {
        opts.fault_rate = std::atof(next());
      } else if (std::strcmp(arg, "--layouts") == 0) {
        opts.layouts = next();
      } else if (std::strcmp(arg, "--trace-file") == 0) {
        opts.trace_file = next();
      } else if (std::strcmp(arg, "--arrival-mode") == 0) {
        opts.arrival_mode = next();
      } else if (std::strcmp(arg, "--clients") == 0) {
        opts.clients = std::atoi(next());
      } else if (std::strcmp(arg, "--json") == 0) {
        opts.json_path = next();
      } else if (std::strcmp(arg, "--trace") == 0) {
        opts.trace_path = next();
      } else {
        std::fprintf(stderr,
                     "usage: %s [--csv] [--fast] [--trials N] [--jobs N] "
                     "[--seed S] [--fault-rate P] [--layouts L] [--json PATH] "
                     "[--trace PATH] [--trace-file PATH] "
                     "[--arrival-mode open|closed|hybrid] [--clients N]\n",
                     argv[0]);
        std::exit(2);
      }
    }
    if (opts.trials < 1) opts.trials = 1;
    return opts;
  }

  int64_t Scale(int64_t full) const { return fast ? full / 5 : full; }

  TrialRunner::Options TrialOptions() const {
    TrialRunner::Options t;
    t.trials = trials;
    t.jobs = jobs;
    t.base_seed = seed;
    return t;
  }
};

// Prints one row of either CSV or fixed-width cells.
class TableWriter {
 public:
  explicit TableWriter(bool csv) : csv_(csv) {}

  void Row(const std::vector<std::string>& cells, int width = 14, int first_width = 18) const {
    for (size_t i = 0; i < cells.size(); ++i) {
      if (csv_) {
        std::printf("%s%s", cells[i].c_str(), i + 1 < cells.size() ? "," : "");
      } else {
        // Pad by display width, not bytes: "±" in CI cells is multibyte.
        int display = 0;
        for (unsigned char c : cells[i]) {
          if ((c & 0xC0) != 0x80) ++display;
        }
        const int pad = (i == 0 ? first_width : width) - display;
        std::printf("%s%*s", cells[i].c_str(), pad > 0 ? pad : 0, "");
      }
    }
    std::printf("\n");
  }

 private:
  bool csv_;
};

inline std::string Fmt(const char* fmt, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

// "1.234" for single trials, "1.234±0.056" (95% CI half-width) otherwise.
inline std::string FmtCi(const char* fmt, const AggregateMetric& m) {
  std::string cell = Fmt(fmt, m.mean);
  if (m.ci95_hi > m.ci95_lo) {
    cell += "\xC2\xB1";  // U+00B1 PLUS-MINUS
    cell += Fmt(fmt, (m.ci95_hi - m.ci95_lo) / 2.0);
  }
  return cell;
}

// Collects (cell label -> aggregate) pairs and serializes the whole bench
// as one JSON document: {"bench":..,"trials":..,"cells":[{"name":..,...}]}.
class BenchJson {
 public:
  BenchJson(std::string bench_name, const BenchOptions& opts)
      : bench_name_(std::move(bench_name)), opts_(opts) {}

  void AddCell(const std::string& name, const AggregateResult& agg) {
    cells_.emplace_back(name, agg);
  }

  // Writes the document if --json was given. Returns false on I/O error.
  bool WriteIfRequested() const {
    if (opts_.json_path.empty()) return true;
    JsonWriter json;
    json.BeginObject();
    json.KV("bench", bench_name_);
    json.KV("base_seed", opts_.seed);
    json.KV("trials", opts_.trials);
    json.Key("cells");
    json.BeginArray();
    for (const auto& [name, agg] : cells_) {
      json.BeginObject();
      json.KV("name", name);
      json.Key("result");
      agg.AppendJson(json);
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
    return WriteFileOrReport(opts_.json_path, json.TakeString());
  }

 private:
  std::string bench_name_;
  const BenchOptions& opts_;
  std::vector<std::pair<std::string, AggregateResult>> cells_;
};

// ---------------------------------------------------------------------------
// One trial path. A TrialSpec names one (device, scheduler, workload) cell —
// the unit every scheduling, layout, failure, and trace figure reports — and
// RunTrial runs it on a fresh device and scheduler, so trials are safe to fan
// out across a ThreadPool; randomness comes only from `seed`. Shared by the
// figure benches and tools/mstk_sweep so the sweep artifacts measure exactly
// the figure cells.

// The paper's four scheduling policies (Figs 5-8), in table column order.
constexpr SchedKind kPaperScheds[] = {SchedKind::kFcfs, SchedKind::kSstfLbn, SchedKind::kClook,
                                      SchedKind::kSptf};

enum class TrialDevice { kMems, kDisk };

enum class TrialSource {
  kRandom,     // Poisson random workload at `rate` (Figs 5, 6, 8)
  kCello,      // cello-like trace at time scale `scale` (Fig 7(a))
  kTpcc,       // tpcc-like trace at time scale `scale` (Fig 7(b))
  kBipartite,  // Fig 11 read mix at 500 req/s: 89% 4 KB hot, 11% 64 KB cold
  kScenario,   // zoo `scenario`, times `clients` fan-in, time-warped by `warp`
};

// The logical space a layout policy places (and kBipartite's hot/cold pools).
constexpr int64_t kLayoutHotBlocks = 200000;
constexpr int64_t kLayoutColdBlocks = 800000;

struct TrialSpec {
  TrialDevice device = TrialDevice::kMems;
  SchedKind sched = SchedKind::kSptf;
  TrialSource source = TrialSource::kRandom;
  double rate = 0.0;     // kRandom: arrivals per second
  double scale = 1.0;    // kCello, kTpcc: §4.3 trace time scale
  std::string scenario;  // kScenario
  int clients = 1;       // kScenario
  double warp = 1.0;     // kScenario
  int64_t count = 2000;  // requests (scenario records)
  // Optional placement (MEMS only): the workload is generated over the
  // policy's logical space and mapped through its ExtentLayout. Without one
  // it spans the device's LBNs.
  const LayoutPolicy* layout = nullptr;
  // kClosed / kHybrid replay through trace::Replay with `window` outstanding.
  trace::ArrivalMode arrival = trace::ArrivalMode::kOpen;
  int window = 8;
  // Online fault injection and recovery (§6); open arrivals only.
  std::optional<FaultRunConfig> faults;
};

inline ExperimentResult RunTrial(const TrialSpec& spec, uint64_t seed, TraceTrack trace = {}) {
  std::unique_ptr<StorageDevice> device;
  const MemsGeometry* geometry = nullptr;
  if (spec.device == TrialDevice::kDisk) {
    device = std::make_unique<DiskDevice>();
  } else {
    auto mems = std::make_unique<MemsDevice>();
    geometry = &mems->geometry();
    device = std::move(mems);
  }
  const int64_t space = spec.layout != nullptr ? kLayoutHotBlocks + kLayoutColdBlocks
                                               : device->CapacityBlocks();

  Rng rng(seed);
  std::vector<Request> requests;
  switch (spec.source) {
    case TrialSource::kRandom:
    case TrialSource::kBipartite: {
      const bool bipartite = spec.source == TrialSource::kBipartite;
      RandomWorkloadConfig config;
      config.arrival_rate_per_s = bipartite ? 500.0 : spec.rate;
      config.request_count = spec.count;
      config.capacity_blocks = space;
      requests = GenerateRandomWorkload(config, rng);
      if (!bipartite) break;
      // Reshape into the bipartite mix; arrivals keep the Poisson process.
      for (Request& req : requests) {
        req.type = IoType::kRead;
        if (rng.Bernoulli(0.11)) {
          req.block_count = 128;  // 64 KB cold read
          req.lbn = kLayoutHotBlocks + rng.UniformInt(kLayoutColdBlocks - req.block_count);
        } else {
          req.block_count = 8;  // 4 KB hot read
          req.lbn = rng.UniformInt(kLayoutHotBlocks - req.block_count);
        }
      }
      break;
    }
    case TrialSource::kCello: {
      CelloLikeConfig config;
      config.request_count = spec.count;
      config.capacity_blocks = space;
      config.scale = spec.scale;
      requests = GenerateCelloLike(config, rng);
      break;
    }
    case TrialSource::kTpcc: {
      TpccLikeConfig config;
      config.request_count = spec.count;
      config.capacity_blocks = space;
      config.scale = spec.scale;
      requests = GenerateTpccLike(config, rng);
      break;
    }
    case TrialSource::kScenario: {
      trace::ScenarioConfig config;
      config.request_count = spec.count;
      config.seed = seed;
      trace::ParsedTrace parsed = trace::GenerateScenario(spec.scenario, config);
      if (spec.clients > 1) {
        parsed.records = trace::MultiplyClients(parsed.records, spec.clients,
                                                trace::ScenarioFootprintBlocks(spec.scenario));
      }
      if (spec.warp != 1.0) {
        parsed.records = trace::TimeWarp(parsed.records, spec.warp);
      }
      parsed.records = trace::RemapToCapacity(parsed.records, space, trace::RemapMode::kScale);
      requests = trace::ToRequests(parsed);
      break;
    }
  }
  if (spec.layout != nullptr) {
    MSTK_CHECK(geometry != nullptr, "layout policies place onto a MEMS device");
    LayoutSpec layout_spec;
    layout_spec.geometry = geometry;
    layout_spec.device_capacity_blocks = device->CapacityBlocks();
    layout_spec.hot_blocks = kLayoutHotBlocks;
    layout_spec.cold_blocks = kLayoutColdBlocks;
    requests = ApplyLayout(spec.layout->Build(layout_spec), requests);
  }

  const std::unique_ptr<IoScheduler> scheduler = MakeScheduler(spec.sched, device.get());
  if (spec.faults.has_value()) {
    MSTK_CHECK(spec.arrival == trace::ArrivalMode::kOpen, "fault injection runs open-loop");
    const uint64_t fault_seed = DeriveTrialSeed(seed, /*trial_index=*/0x0fa17);
    return RunFaultInjectedOpenLoop(device.get(), scheduler.get(), requests, *spec.faults,
                                    fault_seed, trace);
  }
  // Open arrivals: trace::Replay is RunOpenLoop.
  trace::ReplayConfig replay;
  replay.mode = spec.arrival;
  replay.window = spec.window;
  return trace::Replay(device.get(), scheduler.get(), requests, replay, trace);
}

}  // namespace mstk

#endif  // MSTK_BENCH_BENCH_UTIL_H_
