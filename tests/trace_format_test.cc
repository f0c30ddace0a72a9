// v1 trace front-end: format parser/writer rejection suite, the v0 and
// DiskSim importers, scaling transforms, arrival-control replay, scenario
// zoo, and the fidelity reporter (including the oltp_burst-vs-tpcc
// "differs" demonstration the CI gate relies on).
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/mems/mems_device.h"
#include "src/sched/fcfs.h"
#include "src/sched/sptf.h"
#include "src/sim/json_writer.h"
#include "src/sim/rng.h"
#include "src/trace/fidelity.h"
#include "src/trace/format.h"
#include "src/trace/replay.h"
#include "src/trace/scenarios.h"
#include "src/trace/transforms.h"
#include "src/workload/random_workload.h"
#include "src/workload/tpcc_like.h"

namespace mstk {
namespace trace {
namespace {

TraceRecord Rec(int64_t ts_us, int64_t lba, int32_t blocks, IoType op, int32_t client) {
  TraceRecord r;
  r.timestamp_us = ts_us;
  r.lba = lba;
  r.blocks = blocks;
  r.op = op;
  r.client = client;
  return r;
}

std::vector<TraceRecord> SampleRecords() {
  return {Rec(0, 100, 8, IoType::kRead, 0), Rec(250, 98304, 16, IoType::kWrite, 1),
          Rec(250, 0, 1, IoType::kRead, 2), Rec(1000, 4096, 256, IoType::kRead, 0)};
}

TEST(TraceFormatTest, RoundTripPreservesRecords) {
  const std::vector<TraceRecord> records = SampleRecords();
  const std::string bytes = SerializeTrace(records);
  ParsedTrace parsed;
  std::string error;
  ASSERT_TRUE(ParseTrace(bytes, &parsed, &error)) << error;
  EXPECT_EQ(parsed.version, kTraceVersion);
  EXPECT_EQ(parsed.records, records);
}

TEST(TraceFormatTest, SerializeIsByteCanonical) {
  // parse -> write reproduces the exact input bytes: the property the CI
  // scenario-regeneration `cmp` gate depends on.
  const std::string bytes = SerializeTrace(SampleRecords());
  ParsedTrace parsed;
  ASSERT_TRUE(ParseTrace(bytes, &parsed, nullptr));
  EXPECT_EQ(SerializeTrace(parsed.records), bytes);
}

TEST(TraceFormatTest, HeaderCarriesMagicAndVersion) {
  const std::string bytes = SerializeTrace({});
  EXPECT_EQ(bytes.rfind("MSTKTRACE 1\n", 0), 0u);
}

TEST(TraceFormatTest, CommentsAndBlankLinesAreIgnored) {
  ParsedTrace parsed;
  std::string error;
  ASSERT_TRUE(ParseTrace("MSTKTRACE 1\n# comment\n\n0 8 4 R 0\n# tail\n", &parsed, &error))
      << error;
  EXPECT_EQ(parsed.records.size(), 1u);
}

struct RejectCase {
  const char* label;
  const char* doc;
  const char* want_error;  // substring of the reported error
};

TEST(TraceFormatTest, ParserRejectionSuite) {
  const RejectCase kCases[] = {
      {"empty document", "", "missing MSTKTRACE header"},
      {"truncated header", "MSTKTRACE", "bad magic"},
      {"truncated magic", "MSTK 1\n", "bad magic"},
      {"missing version", "MSTKTRACE \n", "malformed version"},
      {"bad version", "MSTKTRACE 99\n", "unsupported version 99"},
      {"version trailing garbage", "MSTKTRACE 1 x\n", "malformed version"},
      {"short record", "MSTKTRACE 1\n0 8 4 R\n", "malformed client"},
      {"overlong record", "MSTKTRACE 1\n0 8 4 R 0 7\n", "trailing garbage"},
      {"non-numeric timestamp", "MSTKTRACE 1\nzero 8 4 R 0\n", "malformed timestamp_us"},
      {"negative timestamp", "MSTKTRACE 1\n-5 8 4 R 0\n", "negative timestamp_us"},
      {"non-monotonic timestamps", "MSTKTRACE 1\n100 8 4 R 0\n99 8 4 R 0\n",
       "timestamp_us runs backwards"},
      {"out-of-range lba", "MSTKTRACE 1\n0 -1 4 R 0\n", "out-of-range lba"},
      {"zero blocks", "MSTKTRACE 1\n0 8 0 R 0\n", "out-of-range blocks"},
      {"oversized blocks", "MSTKTRACE 1\n0 8 1048577 R 0\n", "out-of-range blocks"},
      {"bad op", "MSTKTRACE 1\n0 8 4 X 0\n", "malformed op"},
      {"negative client", "MSTKTRACE 1\n0 8 4 R -1\n", "out-of-range client"},
  };
  for (const RejectCase& c : kCases) {
    ParsedTrace parsed;
    std::string error;
    EXPECT_FALSE(ParseTrace(c.doc, &parsed, &error)) << c.label;
    EXPECT_NE(error.find(c.want_error), std::string::npos)
        << c.label << ": got error '" << error << "'";
    EXPECT_NE(error.find("line "), std::string::npos) << c.label << ": no line number";
    EXPECT_TRUE(parsed.records.empty()) << c.label << ": partial document survived";
  }
}

TEST(TraceFormatTest, ErrorNamesTheFailingLine) {
  ParsedTrace parsed;
  std::string error;
  ASSERT_FALSE(ParseTrace("MSTKTRACE 1\n0 8 4 R 0\n10 8 4 Q 0\n", &parsed, &error));
  EXPECT_NE(error.find("line 3"), std::string::npos) << error;
}

TEST(TraceFormatTest, WriterRejectsWhatTheParserRejects) {
  TraceWriter writer;
  EXPECT_FALSE(writer.Append(Rec(-1, 0, 1, IoType::kRead, 0)));
  EXPECT_FALSE(writer.Append(Rec(0, -1, 1, IoType::kRead, 0)));
  EXPECT_FALSE(writer.Append(Rec(0, 0, 0, IoType::kRead, 0)));
  EXPECT_FALSE(writer.Append(Rec(0, 0, 1, IoType::kRead, -1)));
  ASSERT_TRUE(writer.Append(Rec(100, 0, 1, IoType::kRead, 0)));
  EXPECT_FALSE(writer.Append(Rec(99, 0, 1, IoType::kRead, 0)));  // runs backwards
  EXPECT_EQ(writer.records_written(), 1);
}

TEST(TraceFormatTest, RequestConversionRoundTrips) {
  const std::vector<TraceRecord> records = SampleRecords();
  ParsedTrace parsed;
  parsed.records = records;
  const std::vector<Request> requests = ToRequests(parsed);
  ASSERT_EQ(requests.size(), records.size());
  EXPECT_DOUBLE_EQ(requests[1].arrival_ms, 0.25);
  EXPECT_EQ(requests[1].lbn, 98304);
  EXPECT_EQ(requests[1].type, IoType::kWrite);
  const std::vector<TraceRecord> back = FromRequests(requests, /*client=*/7);
  ASSERT_EQ(back.size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(back[i].timestamp_us, records[i].timestamp_us) << i;
    EXPECT_EQ(back[i].lba, records[i].lba) << i;
    EXPECT_EQ(back[i].blocks, records[i].blocks) << i;
    EXPECT_EQ(back[i].op, records[i].op) << i;
    EXPECT_EQ(back[i].client, 7) << i;
  }
}

TEST(TraceTransformTest, TimeWarpCompressesGaps) {
  const std::vector<TraceRecord> warped = TimeWarp(SampleRecords(), 2.0);
  ASSERT_EQ(warped.size(), 4u);
  EXPECT_EQ(warped[0].timestamp_us, 0);
  EXPECT_EQ(warped[1].timestamp_us, 125);
  EXPECT_EQ(warped[3].timestamp_us, 500);
  // Slowing down doubles timestamps.
  EXPECT_EQ(TimeWarp(SampleRecords(), 0.5)[3].timestamp_us, 2000);
}

TEST(TraceTransformTest, TimeWarpRejectsOverflow) {
  // A tiny positive factor would push timestamps past int64; the cast
  // would be undefined and replay would see negative arrival times.
  EXPECT_DEATH(TimeWarp(SampleRecords(), 1e-300), "overflows");
}

TEST(TraceTransformTest, RemapScaleFitsFootprintOnDevice) {
  const std::vector<TraceRecord> mapped = RemapToCapacity(SampleRecords(), 1024, RemapMode::kScale);
  ASSERT_EQ(mapped.size(), 4u);
  for (const TraceRecord& r : mapped) {
    EXPECT_GE(r.lba, 0);
    EXPECT_LE(r.lba + r.blocks, 1024) << "extent escaped the device";
  }
  // Relative order of addresses is preserved by the linear rescale.
  EXPECT_LT(mapped[2].lba, mapped[0].lba);
  EXPECT_LT(mapped[0].lba, mapped[3].lba);
  EXPECT_LT(mapped[3].lba, mapped[1].lba);
}

TEST(TraceTransformTest, RemapScaleLeavesFittingTracesAlone) {
  const std::vector<TraceRecord> records = SampleRecords();
  EXPECT_EQ(RemapToCapacity(records, 1 << 20, RemapMode::kScale), records);
}

TEST(TraceTransformTest, RemapClampDropsAndTruncates) {
  const std::vector<TraceRecord> mapped =
      RemapToCapacity(SampleRecords(), 4200, RemapMode::kClamp);
  // The lba=98304 record starts beyond capacity and is dropped; the 256-block
  // read at 4096 is truncated to the device end.
  ASSERT_EQ(mapped.size(), 3u);
  EXPECT_EQ(mapped[2].lba, 4096);
  EXPECT_EQ(mapped[2].blocks, 104);
}

TEST(TraceTransformTest, MultiplyClientsInterleavesDistinctClients) {
  const int64_t capacity = 1 << 20;
  const std::vector<TraceRecord> records = SampleRecords();
  const std::vector<TraceRecord> multiplied = MultiplyClients(records, 3, capacity);
  ASSERT_EQ(multiplied.size(), records.size() * 3);
  // Copies of one source record share its timestamp; client ids are disjoint
  // per copy (3 original clients -> copy k adds k*3).
  EXPECT_EQ(multiplied[0].timestamp_us, multiplied[1].timestamp_us);
  EXPECT_EQ(multiplied[0].client, 0);
  EXPECT_EQ(multiplied[1].client, 3);
  EXPECT_EQ(multiplied[2].client, 6);
  int64_t last_us = 0;
  for (const TraceRecord& r : multiplied) {
    EXPECT_GE(r.timestamp_us, last_us);
    last_us = r.timestamp_us;
    EXPECT_GE(r.lba, 0);
    EXPECT_LE(r.lba + r.blocks, capacity);
  }
}

// A v0 document with 15 significant digits per arrival, as v0 files were
// written.
std::string V0Text(const std::vector<Request>& requests) {
  std::ostringstream out;
  out.precision(15);
  out << "# mstk trace: arrival_ms R|W lbn block_count\n";
  for (const Request& req : requests) {
    out << req.arrival_ms << ' ' << (req.is_read() ? 'R' : 'W') << ' ' << req.lbn << ' '
        << req.block_count << '\n';
  }
  return out.str();
}

constexpr char kDiskSimSample[] =
    "# DiskSim ascii trace\n"
    "0.000000 0 1000 8 1\n"
    "0.015000 0 2000 16 0\n"
    "0.020000 1 3000 8 1\n"
    "0.031000 0 64 4 3\n";

TEST(TraceTest, WriteReadRoundTrip) {
  // A v0 trace imports, goes through the v1 writer `mstk_trace gen` uses,
  // and parses back to the same stream up to the microsecond quantum.
  RandomWorkloadConfig config;
  config.request_count = 500;
  config.capacity_blocks = 6750000;
  Rng rng(2);
  const std::vector<Request> original = GenerateRandomWorkload(config, rng);
  ParsedTrace imported;
  std::string error;
  ASSERT_TRUE(ImportV0Trace(V0Text(original), &imported, &error)) << error;
  EXPECT_EQ(imported.version, 0);
  EXPECT_EQ(imported.records, FromRequests(original));
  ParsedTrace parsed;
  ASSERT_TRUE(ParseTrace(SerializeTrace(imported.records), &parsed, &error)) << error;
  const std::vector<Request> loaded = ToRequests(parsed);
  ASSERT_EQ(loaded.size(), original.size());
  for (size_t i = 0; i < loaded.size(); ++i) {
    EXPECT_EQ(loaded[i].lbn, original[i].lbn);
    EXPECT_EQ(loaded[i].block_count, original[i].block_count);
    EXPECT_EQ(loaded[i].type, original[i].type);
    EXPECT_NEAR(loaded[i].arrival_ms, original[i].arrival_ms, 1e-3);
  }
}

TEST(TraceTest, ReadRejectsBadRecords) {
  ParsedTrace parsed;
  std::string error;
  EXPECT_FALSE(ImportV0Trace("# header\n1.0 R 100 8\n2.0 X 100 8\n", &parsed, &error));
  EXPECT_TRUE(parsed.records.empty());
  EXPECT_NE(error.find("line 3"), std::string::npos) << error;
}

TEST(TraceTest, MissingFileReportsError) {
  std::string bytes;
  std::string error;
  EXPECT_FALSE(ReadFileBytes("/nonexistent/mstk.trace", &bytes, &error));
  EXPECT_FALSE(error.empty());
  ParsedTrace parsed;
  error.clear();
  EXPECT_FALSE(ReadTraceFile("/nonexistent/mstk.trace", &parsed, &error));
  EXPECT_FALSE(error.empty());
}

TEST(TraceTest, DiskSimFormatParses) {
  ParsedTrace all;
  std::string error;
  ASSERT_TRUE(ImportDiskSimTrace(kDiskSimSample, -1, &all, &error)) << error;
  EXPECT_EQ(all.version, 0);
  ASSERT_EQ(all.records.size(), 4u);
  EXPECT_EQ(all.records[0].timestamp_us, 0);
  EXPECT_EQ(all.records[0].lba, 1000);
  EXPECT_EQ(all.records[0].blocks, 8);
  EXPECT_EQ(all.records[0].op, IoType::kRead);
  EXPECT_EQ(all.records[1].op, IoType::kWrite);
  EXPECT_EQ(all.records[1].timestamp_us, 15000);
  EXPECT_DOUBLE_EQ(ToRequests(all)[1].arrival_ms, 15.0);
  EXPECT_EQ(all.records[3].op, IoType::kRead);  // flags bit 0

  ParsedTrace dev0;
  ASSERT_TRUE(ImportDiskSimTrace(kDiskSimSample, 0, &dev0, &error)) << error;
  EXPECT_EQ(dev0.records.size(), 3u);
  ParsedTrace dev1;
  ASSERT_TRUE(ImportDiskSimTrace(kDiskSimSample, 1, &dev1, &error)) << error;
  ASSERT_EQ(dev1.records.size(), 1u);
  EXPECT_EQ(dev1.records[0].lba, 3000);
}

TEST(TraceTest, DiskSimFormatRejectsGarbage) {
  ParsedTrace parsed;
  std::string error;
  EXPECT_FALSE(ImportDiskSimTrace("0.0 0 1000 8 1\n0.1 0 -5 8 1\n", -1, &parsed, &error));
  EXPECT_TRUE(parsed.records.empty());
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
}

TEST(TraceTest, ImportRejectsBackwardsTime) {
  ParsedTrace parsed;
  std::string error;
  EXPECT_FALSE(ImportV0Trace("5.0 R 1 1\n# note\n4.0 W 1 1\n", &parsed, &error));
  EXPECT_NE(error.find("line 3"), std::string::npos) << error;
  EXPECT_NE(error.find("backwards"), std::string::npos) << error;
  // Time order is a property of the whole DiskSim file, so a record of a
  // filtered-out device still counts.
  EXPECT_FALSE(ImportDiskSimTrace("0.002 0 1 1 1\n0.001 1 1 1 1\n", 0, &parsed, &error));
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
  // Arrivals equal after rounding to microseconds are in order.
  EXPECT_TRUE(ImportV0Trace("1.0002 R 1 1\n1.0001 R 1 1\n", &parsed, &error)) << error;
}

TEST(TraceTest, ImportRejectsMalformedRecords) {
  for (const char* bad : {"nan R 1 1", "inf R 1 1", "-1 R 1 1", "1 R 1 0", "1 R 1 2000000",
                          "1 R 1 1 extra", "1 R1 1", "1e400 R 1 1", "1e30 R 1 1"}) {
    ParsedTrace parsed;
    std::string error;
    EXPECT_FALSE(ImportV0Trace(bad, &parsed, &error)) << bad;
    EXPECT_NE(error.find("line 1"), std::string::npos) << bad << ": " << error;
  }
  for (const char* bad : {"0.1 0 1 1", "0.1 0 1 1 1 1", "x 0 1 1 1", "0.1 0 1 0 1"}) {
    ParsedTrace parsed;
    std::string error;
    EXPECT_FALSE(ImportDiskSimTrace(bad, -1, &parsed, &error)) << bad;
    EXPECT_NE(error.find("line 1"), std::string::npos) << bad << ": " << error;
  }
}

TEST(TraceTest, ScaleDoublesArrivalRate) {
  // An imported v0 trace scaled the way `mstk_trace replay` scales it.
  ParsedTrace parsed;
  ASSERT_TRUE(ImportV0Trace("10 R 0 1\n20 R 0 1\n40 R 0 1\n", &parsed, nullptr));
  parsed.records = TimeWarp(parsed.records, 2.0);
  const std::vector<Request> scaled = ToRequests(parsed);
  ASSERT_EQ(scaled.size(), 3u);
  EXPECT_DOUBLE_EQ(scaled[0].arrival_ms, 5.0);
  EXPECT_DOUBLE_EQ(scaled[1].arrival_ms, 10.0);
  EXPECT_DOUBLE_EQ(scaled[2].arrival_ms, 20.0);
}

TEST(TraceTest, ClampToCapacityDropsAndTruncates) {
  // An imported v0 trace clamped the way `mstk_trace replay` clamps it.
  ParsedTrace parsed;
  ASSERT_TRUE(ImportV0Trace("0 R 10 8\n0 R 95 10\n0 R 200 4\n", &parsed, nullptr));
  parsed.records = RemapToCapacity(parsed.records, 100, RemapMode::kClamp);
  const std::vector<Request> clamped = ToRequests(parsed);
  ASSERT_EQ(clamped.size(), 2u);  // the record at 200 starts beyond the device
  EXPECT_EQ(clamped[1].block_count, 5);
  EXPECT_EQ(clamped[1].last_lbn(), 99);
}

TEST(TraceReplayTest, ArrivalModeNamesParse) {
  ArrivalMode mode = ArrivalMode::kClosed;
  EXPECT_TRUE(ParseArrivalMode("open", &mode));
  EXPECT_EQ(mode, ArrivalMode::kOpen);
  EXPECT_TRUE(ParseArrivalMode("closed", &mode));
  EXPECT_EQ(mode, ArrivalMode::kClosed);
  EXPECT_TRUE(ParseArrivalMode("hybrid", &mode));
  EXPECT_EQ(mode, ArrivalMode::kHybrid);
  EXPECT_FALSE(ParseArrivalMode("poisson", &mode));
}

std::vector<Request> ReplayableRequests(int count) {
  std::vector<Request> requests;
  Rng rng(7);
  double now_ms = 0.0;
  for (int i = 0; i < count; ++i) {
    Request req;
    req.id = i;
    req.lbn = rng.UniformInt(100000);
    req.block_count = 8;
    req.arrival_ms = now_ms;
    now_ms += rng.Exponential(1.0);
    requests.push_back(req);
  }
  return requests;
}

TEST(TraceReplayTest, OpenReplayCompletesEveryRequest) {
  MemsDevice device;
  FcfsScheduler sched;
  ReplayConfig config;
  const ExperimentResult result = Replay(&device, &sched, ReplayableRequests(200), config);
  EXPECT_EQ(result.metrics.completed(), 200);
  EXPECT_GT(result.MeanResponseMs(), 0.0);
}

TEST(TraceReplayTest, OpenReplayMatchesRunOpenLoop) {
  // kOpen is the plain open loop: the replayer must reproduce RunOpenLoop
  // bit-for-bit so replay results are comparable with every generator-driven
  // experiment in the repo.
  const std::vector<Request> requests = ReplayableRequests(300);
  ExperimentResult via_replay;
  {
    MemsDevice device;
    SptfScheduler sched(&device);
    via_replay = Replay(&device, &sched, requests, ReplayConfig{});
  }
  ExperimentResult via_open_loop;
  {
    MemsDevice device;
    SptfScheduler sched(&device);
    via_open_loop = RunOpenLoop(&device, &sched, requests);
  }
  EXPECT_EQ(via_replay.MeanResponseMs(), via_open_loop.MeanResponseMs());
  EXPECT_EQ(via_replay.makespan_ms, via_open_loop.makespan_ms);
}

TEST(TraceReplayTest, ClosedReplayBoundsOutstandingRequests) {
  MemsDevice device;
  FcfsScheduler sched;
  ReplayConfig config;
  config.mode = ArrivalMode::kClosed;
  config.window = 4;
  const ExperimentResult result = Replay(&device, &sched, ReplayableRequests(200), config);
  EXPECT_EQ(result.metrics.completed(), 200);
  // A window-4 closed loop can never queue more than 4 requests.
  EXPECT_LE(result.metrics.queue_depth().max(), 4.0);
}

TEST(TraceReplayTest, HybridWaitsForRecordedArrivals) {
  // With a huge window, hybrid degenerates to open: recorded arrivals are
  // the only throttle, so the makespan must span the trace duration.
  const std::vector<Request> requests = ReplayableRequests(100);
  MemsDevice device;
  FcfsScheduler sched;
  ReplayConfig config;
  config.mode = ArrivalMode::kHybrid;
  config.window = 1 << 20;
  const ExperimentResult result = Replay(&device, &sched, requests, config);
  EXPECT_EQ(result.metrics.completed(), 100);
  EXPECT_GE(result.makespan_ms, requests.back().arrival_ms);
}

TEST(TraceReplayTest, ReplayerWrapperConvertsRecords) {
  // Parsed records replay through ToRequests + Replay, one request each.
  ParsedTrace parsed;
  parsed.records = SampleRecords();
  const std::vector<Request> requests = ToRequests(parsed);
  ASSERT_EQ(requests.size(), 4u);
  MemsDevice device;
  FcfsScheduler sched;
  const ExperimentResult result = Replay(&device, &sched, requests, ReplayConfig{});
  EXPECT_EQ(result.metrics.completed(), 4);
}

TEST(ScenarioZooTest, LibraryIsDeterministic) {
  ScenarioConfig config;
  config.request_count = 300;
  for (const std::string& name : ScenarioNames()) {
    EXPECT_TRUE(IsScenarioName(name));
    const std::string once = ScenarioTraceBytes(name, config);
    EXPECT_EQ(once, ScenarioTraceBytes(name, config)) << name;
    ParsedTrace parsed;
    std::string error;
    ASSERT_TRUE(ParseTrace(once, &parsed, &error)) << name << ": " << error;
    EXPECT_EQ(parsed.records.size(), 300u) << name;
    const int64_t footprint = ScenarioFootprintBlocks(name);
    for (const TraceRecord& r : parsed.records) {
      EXPECT_LE(r.lba + r.blocks, footprint) << name;
    }
  }
  EXPECT_FALSE(IsScenarioName("tpcc"));
}

TEST(ScenarioZooTest, SeedChangesTheTrace) {
  ScenarioConfig a;
  a.request_count = 300;
  ScenarioConfig b = a;
  b.seed = 2;
  EXPECT_NE(ScenarioTraceBytes("oltp_burst", a), ScenarioTraceBytes("oltp_burst", b));
}

TEST(FidelityTest, IdenticalStreamsMatchEverywhere) {
  ParsedTrace parsed;
  parsed.records = SampleRecords();
  const std::vector<Request> requests = ToRequests(parsed);
  const FidelityReport report = CompareStreams("a", requests, "b", requests);
  EXPECT_EQ(report.arrival_interval.distance, 0.0);
  EXPECT_EQ(report.request_size.distance, 0.0);
  EXPECT_EQ(report.spatial_locality.distance, 0.0);
  EXPECT_FALSE(report.AnyDiffers());
}

TEST(FidelityTest, OltpBurstDiffersFromSteadyTpcc) {
  // The CI gate's demonstration: the bursty oltp_burst scenario shares
  // tpcc's size and locality regime but not its steady Poisson arrivals, so
  // the reporter must flag the arrival-interval marginal (and only rely on
  // that to say the traces differ).
  ScenarioConfig config;
  config.request_count = 1000;
  ParsedTrace scenario = GenerateScenario("oltp_burst", config);
  TpccLikeConfig tpcc;
  tpcc.request_count = 1000;
  tpcc.capacity_blocks = ScenarioFootprintBlocks("oltp_burst");
  Rng rng(1);
  const std::vector<Request> synthetic = GenerateTpccLike(tpcc, rng);
  const FidelityReport report =
      CompareStreams("oltp_burst", ToRequests(scenario), "tpcc", synthetic);
  EXPECT_TRUE(report.arrival_interval.differs)
      << "distance " << report.arrival_interval.distance;
  EXPECT_TRUE(report.AnyDiffers());
}

TEST(FidelityTest, JsonHasStableKeys) {
  ParsedTrace parsed;
  parsed.records = SampleRecords();
  const std::vector<Request> requests = ToRequests(parsed);
  const FidelityReport report = CompareStreams("lhs_label", requests, "rhs_label", requests);
  JsonWriter json;
  report.AppendJson(json);
  const std::string doc = json.TakeString();
  for (const char* key : {"\"lhs\"", "\"rhs\"", "\"differs_threshold\"", "\"any_differs\"",
                          "\"marginals\"", "\"arrival_interval_us\"", "\"request_size_blocks\"",
                          "\"spatial_locality_blocks\"", "\"histogram\""}) {
    EXPECT_NE(doc.find(key), std::string::npos) << key;
  }
}

}  // namespace
}  // namespace trace
}  // namespace mstk
