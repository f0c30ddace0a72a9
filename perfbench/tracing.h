// Outside-in layer tracing for the repo benchmark.
//
// The benchmark never edits program source: it measures each layer by
// wrapping that layer's public interface in a decorator (IoScheduler,
// StorageDevice, FaultModel) or by timing the call into a free function
// (trace, layout and workload entry points, ArrayManager::Submit). Every
// timed call is a span; spans nest on a stack, so a layer's self time is its
// spans' duration minus the part covered by spans opened inside them, and
// the run time not covered by any run-phase span is the simulator core's.
//
// Spans are kept in memory (up to a cap) and written out when the run ends.
// With no Tracer attached the decorators still forward every call and log
// each device service, which is what the stability check reads; they then
// read no clock.
#ifndef MSTK_PERFBENCH_TRACING_H_
#define MSTK_PERFBENCH_TRACING_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/core/fault_model.h"
#include "src/core/io_scheduler.h"
#include "src/core/request.h"
#include "src/core/storage_device.h"

namespace mstk {
namespace perfbench {

enum Layer : int {
  kSchedAdd = 0,
  kSchedPop,
  kMemsService,
  kMemsEstimate,
  kDiskService,
  kDiskEstimate,
  kFaultJudge,
  kFaultMap,
  kArraySubmit,
  // Set-up layers: their spans all close before the run phase starts.
  kWorkloadGenerate,
  kTraceSerialize,
  kTraceParse,
  kTraceTransform,
  kLayoutBuild,
  kLayoutApply,
  kLayerCount
};
inline constexpr int kFirstSetupLayer = kWorkloadGenerate;

inline const char* LayerName(int layer) {
  static const char* const kNames[kLayerCount] = {
      "sched.add",         "sched.pop",       "mems.service",    "mems.estimate",
      "disk.service",      "disk.estimate",   "fault.judge",     "fault.map",
      "array.submit",      "workload.generate", "trace.serialize", "trace.parse",
      "trace.transform",   "layout.build",    "layout.apply"};
  return kNames[layer];
}

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct LayerTotals {
  int64_t calls = 0;
  int64_t items = 0;  // layer-specific work count (estimate batch items, ...)
  int64_t total_ns = 0;
  int64_t self_ns = 0;
  int64_t root_ns = 0;  // duration of the spans no other span encloses
};

class Tracer {
 public:
  struct SpanRecord {
    int32_t layer;
    int32_t parent;  // index of the enclosing span; -1 for a root or past the cap
    int64_t start_ns;
    int64_t end_ns;
  };

  // The span buffer is reserved up front and kept across Clear(), so no
  // reallocation lands inside a timed span.
  explicit Tracer(size_t span_cap) : span_cap_(span_cap) { spans_.reserve(span_cap); }

  // Forgets every span and total; keeps the buffer's capacity.
  void Clear() {
    spans_.clear();
    open_.clear();
    for (LayerTotals& t : totals_) {
      t = LayerTotals{};
    }
    dropped_ = 0;
  }

  void Begin(int layer) {
    const int64_t now = NowNs();
    int32_t index = -1;
    if (spans_.size() < span_cap_) {
      index = static_cast<int32_t>(spans_.size());
      spans_.push_back(SpanRecord{layer, open_.empty() ? -1 : open_.back().index, now, 0});
    } else {
      ++dropped_;
    }
    open_.push_back(Open{layer, index, now, 0});
  }

  void End(int64_t items = 0) {
    const int64_t now = NowNs();
    const Open span = open_.back();
    open_.pop_back();
    const int64_t dur = now - span.start_ns;
    LayerTotals& t = totals_[span.layer];
    ++t.calls;
    t.items += items;
    t.total_ns += dur;
    t.self_ns += dur - span.child_ns;
    if (open_.empty()) {
      t.root_ns += dur;
    } else {
      open_.back().child_ns += dur;
    }
    if (span.index >= 0) {
      spans_[static_cast<size_t>(span.index)].end_ns = now;
    }
  }

  const LayerTotals& totals(int layer) const { return totals_[layer]; }
  int64_t dropped() const { return dropped_; }

  // Binary dump: one SpanRecord per span, in opening order.
  bool WriteSpans(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) {
      return false;
    }
    const size_t n = std::fwrite(spans_.data(), sizeof(SpanRecord), spans_.size(), f);
    return std::fclose(f) == 0 && n == spans_.size();
  }

 private:
  struct Open {
    int layer;
    int32_t index;
    int64_t start_ns;
    int64_t child_ns;
  };

  size_t span_cap_;
  std::vector<SpanRecord> spans_;
  std::vector<Open> open_;
  LayerTotals totals_[kLayerCount] = {};
  int64_t dropped_ = 0;
};

// RAII span; a null tracer makes it free.
class Span {
 public:
  Span(Tracer* tracer, int layer) : tracer_(tracer) {
    if (tracer_ != nullptr) {
      tracer_->Begin(layer);
    }
  }
  ~Span() {
    if (tracer_ != nullptr) {
      tracer_->End(items_);
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void set_items(int64_t items) { items_ = items; }

 private:
  Tracer* tracer_;
  int64_t items_ = 0;
};

// One device service as the device saw it, in dispatch order.
struct ServiceEvent {
  TimeMs arrival_ms;
  TimeMs start_ms;
  TimeMs service_ms;
  bool foreground;
};

// activity() is non-virtual, so the decorator's own counters stay empty:
// callers read activity from the wrapped device.
class TracedDevice final : public StorageDevice {
 public:
  // `is_mems` picks the layer the calls are booked under. `log` may be null.
  TracedDevice(StorageDevice* inner, Tracer* tracer, bool is_mems,
               std::vector<ServiceEvent>* log)
      : inner_(inner),
        tracer_(tracer),
        service_layer_(is_mems ? kMemsService : kDiskService),
        estimate_layer_(is_mems ? kMemsEstimate : kDiskEstimate),
        log_(log) {}

  const char* name() const override { return inner_->name(); }
  int64_t CapacityBlocks() const override { return inner_->CapacityBlocks(); }

  [[nodiscard]] double ServiceRequest(const Request& req, TimeMs start_ms,
                                      ServiceBreakdown* breakdown = nullptr) override {
    double ms = 0.0;
    {
      Span span(tracer_, service_layer_);
      ms = inner_->ServiceRequest(req, start_ms, breakdown);
    }
    if (log_ != nullptr) {
      // Array rebuild traffic carries ids from 2^40 up; it is not foreground.
      log_->push_back(ServiceEvent{req.arrival_ms, start_ms, ms,
                                   !req.background && req.id < (int64_t{1} << 40)});
    }
    return ms;
  }

  [[nodiscard]] TimeMs EstimatePositioningMs(const Request& req, TimeMs at_ms) const override {
    Span span(tracer_, estimate_layer_);
    span.set_items(1);
    return inner_->EstimatePositioningMs(req, at_ms);
  }

  void EstimatePositioningBatch(const Request* reqs, int64_t count, TimeMs at_ms,
                                TimeMs* out_ms) const override {
    Span span(tracer_, estimate_layer_);
    span.set_items(count);
    inner_->EstimatePositioningBatch(reqs, count, at_ms, out_ms);
  }

  uint64_t StateEpoch() const override { return inner_->StateEpoch(); }
  bool PositioningIsTimeFree() const override { return inner_->PositioningIsTimeFree(); }
  [[nodiscard]] TimeMs DegradedPenaltyMs() const override { return inner_->DegradedPenaltyMs(); }
  void Reset() override { inner_->Reset(); }

 private:
  StorageDevice* inner_;
  Tracer* tracer_;
  int service_layer_;
  int estimate_layer_;
  std::vector<ServiceEvent>* log_;
};

class TracedScheduler final : public IoScheduler {
 public:
  TracedScheduler(std::unique_ptr<IoScheduler> owned, Tracer* tracer)
      : owned_(std::move(owned)), inner_(owned_.get()), tracer_(tracer) {}
  TracedScheduler(IoScheduler* inner, Tracer* tracer) : inner_(inner), tracer_(tracer) {}

  const char* name() const override { return inner_->name(); }
  void Add(const Request& req) override {
    Span span(tracer_, kSchedAdd);
    inner_->Add(req);
  }
  bool Empty() const override { return inner_->Empty(); }
  int64_t size() const override { return inner_->size(); }
  Request Pop(TimeMs now_ms) override {
    Span span(tracer_, kSchedPop);
    // Items: queue depth at the pop.
    span.set_items(inner_->size());
    return inner_->Pop(now_ms);
  }
  bool PassThroughWhenEmpty() const override { return inner_->PassThroughWhenEmpty(); }
  void Reset() override { inner_->Reset(); }

 private:
  std::unique_ptr<IoScheduler> owned_;
  IoScheduler* inner_;
  Tracer* tracer_;
};

// Fault outcomes seen through the FaultModel interface.
struct FaultTally {
  int64_t retries = 0;   // judged attempts after the first
  int64_t timeouts = 0;  // lost completions
  int64_t remaps = 0;    // permanent faults remapped onto a spare
};

class TracedFaultModel final : public FaultModel {
 public:
  TracedFaultModel(FaultModel* inner, Tracer* tracer, FaultTally* tally)
      : inner_(inner), tracer_(tracer), tally_(tally) {}

  FaultType JudgeAttempt(const Request& req, int attempt) override {
    Span span(tracer_, kFaultJudge);
    const FaultType fate = inner_->JudgeAttempt(req, attempt);
    tally_->retries += attempt > 0 ? 1 : 0;
    tally_->timeouts += fate == FaultType::kLostCompletion ? 1 : 0;
    return fate;
  }
  // Remapping a permanent fault is booked with the mapping work.
  bool OnPermanentFault(const Request& req) override {
    Span span(tracer_, kFaultMap);
    const bool remapped = inner_->OnPermanentFault(req);
    tally_->remaps += remapped ? 1 : 0;
    return remapped;
  }
  void MapPhysical(int64_t lbn, int32_t blocks, std::vector<IoExtent>* out) const override {
    Span span(tracer_, kFaultMap);
    inner_->MapPhysical(lbn, blocks, out);
  }
  bool degraded() const override { return inner_->degraded(); }

 private:
  FaultModel* inner_;
  Tracer* tracer_;
  FaultTally* tally_;
};

}  // namespace perfbench
}  // namespace mstk

#endif  // MSTK_PERFBENCH_TRACING_H_
