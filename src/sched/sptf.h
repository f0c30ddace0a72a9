// Shortest Positioning Time First (§4.1 [SCO90, JW91]): picks the pending
// request with the smallest true positioning delay, computed by the device
// model — seek + rotational latency on disks, max(X seek + settle, Y seek)
// on MEMS-based storage.
//
// Positioning estimates are cached per pending request, keyed on the
// device's StateEpoch(): for devices whose estimates are time-free (MEMS —
// no rotation), an estimate stays valid until the mechanical state actually
// changes, so repeated Pops against a stationary device re-scan cached
// costs instead of re-querying the model. Stale entries are refreshed
// through EstimatePositioningBatch, which lets the device share per-state
// work across the whole scan (the MEMS model memoizes per-cylinder X legs
// keyed on the sled's X, so they outlive a dispatch while the sled stays on
// its cylinder, and Y legs between row boundaries across states; see
// mems_device.h). Selection order is identical to the naive per-request
// scan.
//
// Device estimate methods may fill mutable caches, so a scheduler and its
// device belong to one trial on one thread; never share them across threads.
//
// AgedSptfScheduler adds the aging term of [WGP94]: effective cost =
// max(positioning - age_weight * queue_time, 0), trading a little
// throughput for starvation resistance. The clamp keeps a starved
// request's priority from running away to arbitrarily negative values —
// once several requests hit the floor they dispatch in FIFO order, which
// bounds starvation without letting stale requests monopolize the device.
#ifndef MSTK_SRC_SCHED_SPTF_H_
#define MSTK_SRC_SCHED_SPTF_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/core/io_scheduler.h"
#include "src/core/storage_device.h"
#include "src/sim/units.h"

namespace mstk {

class SptfScheduler : public IoScheduler {
 public:
  // `device` is borrowed; used only through the positioning estimators.
  explicit SptfScheduler(const StorageDevice* device) : device_(device) {}

  const char* name() const override { return "SPTF"; }
  void Add(const Request& req) override { pending_.push_back(Pending{req, 0.0, 0, false}); }
  bool Empty() const override { return pending_.empty(); }
  int64_t size() const override { return static_cast<int64_t>(pending_.size()); }
  Request Pop(TimeMs now_ms) override;
  bool PassThroughWhenEmpty() const override { return true; }
  void Reset() override { pending_.clear(); }

 protected:
  struct Pending {
    Request req;
    TimeMs pos_ms = 0.0;  // cached positioning estimate
    uint64_t epoch = 0;   // device StateEpoch() the estimate was taken at
    bool cached = false;
  };

  // Selection cost given a fresh positioning estimate; subclasses refine it.
  virtual double EffectiveCost(const Pending& entry, TimeMs now_ms) const {
    (void)now_ms;
    return entry.pos_ms;
  }

  // Re-estimates entries whose cached positioning is stale (or all of them,
  // for devices with time-dependent estimates).
  void RefreshEstimates(TimeMs now_ms);

  const StorageDevice* device_;
  std::vector<Pending> pending_;  // arrival order (erase preserves it)

 private:
  // Scratch for RefreshEstimates, kept to avoid per-Pop allocation.
  std::vector<Request> stale_reqs_;
  std::vector<std::size_t> stale_idx_;
  std::vector<double> stale_pos_;
};

class AgedSptfScheduler : public SptfScheduler {
 public:
  AgedSptfScheduler(const StorageDevice* device, double age_weight)
      : SptfScheduler(device), age_weight_(age_weight) {}

  const char* name() const override { return "ASPTF"; }

 protected:
  double EffectiveCost(const Pending& entry, TimeMs now_ms) const override;

 private:
  double age_weight_;
};

}  // namespace mstk

#endif  // MSTK_SRC_SCHED_SPTF_H_
