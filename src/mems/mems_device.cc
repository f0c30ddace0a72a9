#include "src/mems/mems_device.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>

#include "src/sim/check.h"

namespace mstk {

MemsDevice::MemsDevice(const MemsParams& params)
    : geometry_(params),
      kinematics_(SledAxisParams{params.sled_accel_ms2, params.half_range_m(),
                                 params.spring_factor, params.spring_coeff()}),
      v_access_(params.access_velocity()),
      row_pass_s_(params.row_pass_seconds()),
      rows_per_track_(static_cast<uint32_t>(params.rows_per_track())),
      slots_per_row_(static_cast<uint32_t>(params.slots_per_row())),
      tracks_per_cylinder_(static_cast<uint32_t>(params.tracks_per_cylinder())),
      blocks_per_track_(static_cast<uint32_t>(params.blocks_per_track())),
      grid_keys_(2 * (params.rows_per_track() + 1)),
      y_leg_memo_(static_cast<size_t>(grid_keys_) * static_cast<size_t>(grid_keys_), -1.0),
      x_leg_memo_(static_cast<size_t>(params.cylinders())) {
  MSTK_CHECK(geometry_.capacity_blocks() <= int64_t{UINT32_MAX},
             "MEMS capacity must stay below 2^32 blocks (32-bit segment decode)");
  Reset();
}

void MemsDevice::Reset() {
  sled_ = SledState{0.0, 0.0, 0.0};
  sled_key_ = kOffGrid;  // centred at rest: not a row boundary in motion
  activity_ = DeviceActivity{};
  seek_error_rng_ = Rng(seek_error_seed_);
  ++state_epoch_;  // only ever advances, so stale cached estimates die
}

void MemsDevice::EnableSeekErrors(double rate, uint64_t seed) {
  assert(rate >= 0.0 && rate <= 1.0);
  seek_error_rate_ = rate;
  seek_error_seed_ = seed;
  seek_error_rng_ = Rng(seed);
}

TimeMs MemsDevice::CylinderSeekMs(int32_t from_cyl, int32_t to_cyl) const {
  return SecondsToMs(
      kinematics_.SeekSeconds(geometry_.CylinderX(from_cyl), geometry_.CylinderX(to_cyl)));
}

TimeMs MemsDevice::TurnaroundMs(double y) const {
  return SecondsToMs(kinematics_.TurnaroundSeconds(y, v_access_));
}

double MemsDevice::GridYLegSeconds(int from_key, int to_key) const {
  double& ty = y_leg_memo_[static_cast<size_t>(from_key) * static_cast<size_t>(grid_keys_) +
                           static_cast<size_t>(to_key)];
  if (ty < 0.0) {
    ty = kinematics_.TravelSeconds(KeyY(from_key), KeyVy(from_key), KeyY(to_key),
                                   KeyVy(to_key));
  }
  return ty;
}

double MemsDevice::SledYLegSeconds(int to_key) const {
  if (sled_key_ != kOffGrid) {
    return GridYLegSeconds(sled_key_, to_key);
  }
  return kinematics_.TravelSeconds(sled_.y, sled_.vy, KeyY(to_key), KeyVy(to_key));
}

MemsDevice::Segment MemsDevice::TrackSegment(uint32_t lbn, uint32_t last_lbn,
                                             uint32_t* next_lbn) const {
  const uint32_t track = blocks_per_track_.Divide(lbn);  // global track
  const uint32_t track_first = track * blocks_per_track_.value();
  const uint32_t last_offset =
      std::min(last_lbn - track_first, blocks_per_track_.value() - 1);
  *next_lbn = track_first + last_offset + 1;
  uint32_t row_first = slots_per_row_.Divide(lbn - track_first);
  uint32_t row_last = slots_per_row_.Divide(last_offset);
  if ((track & 1u) != 0) {  // serpentine: odd global tracks store rows top-down
    const uint32_t flipped_last = rows_per_track_ - 1 - row_first;
    row_first = rows_per_track_ - 1 - row_last;
    row_last = flipped_last;
  }
  return Segment{static_cast<int32_t>(tracks_per_cylinder_.Divide(track)),
                 static_cast<int32_t>(row_first), static_cast<int32_t>(row_last)};
}

double MemsDevice::PositioningSeconds(const SledState& state, const Segment& seg,
                                      int dir) const {
  const double target_x = geometry_.CylinderX(seg.cylinder);
  double tx = 0.0;
  if (target_x != state.x) {
    tx = kinematics_.SeekSeconds(state.x, target_x) + geometry_.params().settle_seconds();
  }
  const int entry = EntryKey(seg, dir);
  const double ty = kinematics_.TravelSeconds(state.y, state.vy, KeyY(entry), KeyVy(entry));
  return std::max(tx, ty);
}

TimeMs MemsDevice::ServiceRequest(const Request& req, TimeMs start_ms,
                                  ServiceBreakdown* breakdown) {
  (void)start_ms;  // the MEMS model has no time-dependent component (no rotation)
  MSTK_CHECK(req.lbn >= 0 && req.last_lbn() < CapacityBlocks(),
             "request outside device capacity");

  assert(req.block_count > 0);
  const uint32_t last_lbn = static_cast<uint32_t>(req.last_lbn());
  uint32_t next_lbn = 0;
  const Segment first = TrackSegment(static_cast<uint32_t>(req.lbn), last_lbn, &next_lbn);

  // Phase attribution (seconds). Overlapped X/Y intervals are charged to the
  // dominant component: positioning = max(Tx, Ty) goes to seek_x + settle
  // when the X leg dominates, else to seek_y (initial) / turnaround
  // (mid-transfer). The attributed times therefore tile the service time.
  double phase_s[kPhaseCount] = {};
  const double settle_s = geometry_.params().settle_seconds();

  // Initial positioning: pick the cheaper read direction for the first
  // segment. Same expressions as PositioningSeconds, decomposed so the X
  // seek is attributable separately from the settle.
  const double target_x0 = geometry_.CylinderX(first.cylinder);
  double x_seek0_s = 0.0;
  double tx0 = 0.0;
  if (target_x0 != sled_.x) {
    x_seek0_s = kinematics_.SeekSeconds(sled_.x, target_x0);
    tx0 = x_seek0_s + settle_s;
  }
  const double ty0_up = SledYLegSeconds(EntryKey(first, +1));
  const double ty0_down = SledYLegSeconds(EntryKey(first, -1));
  const double pos_up = std::max(tx0, ty0_up);
  const double pos_down = std::max(tx0, ty0_down);
  int dir = pos_up <= pos_down ? +1 : -1;
  double positioning_s = std::min(pos_up, pos_down);
  if (tx0 >= (dir > 0 ? ty0_up : ty0_down)) {
    phase_s[static_cast<int>(Phase::kSeekX)] += x_seek0_s;
    phase_s[static_cast<int>(Phase::kSettle)] += tx0 > 0.0 ? settle_s : 0.0;
  } else {
    phase_s[static_cast<int>(Phase::kSeekY)] += dir > 0 ? ty0_up : ty0_down;
  }

  // Seek-error retry (§6.1.3): the servo check fails and the sled backs up
  // over the sector — up to two turnarounds plus an X re-settle.
  if (seek_error_rate_ > 0.0 && seek_error_rng_.Bernoulli(seek_error_rate_)) {
    const int entry = EntryKey(first, dir);
    const double retry_s =
        2.0 * kinematics_.TurnaroundSeconds(KeyY(entry), KeyVy(entry)) + settle_s;
    positioning_s += retry_s;
    phase_s[static_cast<int>(Phase::kOverhead)] += retry_s;
  }

  // Every segment ends on a row boundary, so each mid-transfer Y leg is
  // between grid states.
  double x = target_x0;
  int key = ExitKey(first, dir);

  double transfer_s = (first.row_last - first.row_first + 1) * row_pass_s_;
  double extra_s = 0.0;

  // The remaining segments, one per track, each read after its own X step
  // and Y reposition.
  while (next_lbn <= last_lbn) {
    const Segment seg = TrackSegment(next_lbn, last_lbn, &next_lbn);
    // X step (zero within a cylinder) overlaps the Y reposition.
    double x_seek_s = 0.0;
    double tx = 0.0;
    const double target_x = geometry_.CylinderX(seg.cylinder);
    if (target_x != x) {
      x_seek_s = kinematics_.SeekSeconds(x, target_x);
      tx = x_seek_s + settle_s;
    }
    // Greedy direction choice; for full-track segments this degenerates to
    // the serpentine turnaround.
    const double ty_up = GridYLegSeconds(key, EntryKey(seg, +1));
    const double ty_down = GridYLegSeconds(key, EntryKey(seg, -1));
    dir = ty_up <= ty_down ? +1 : -1;
    const double ty = std::min(ty_up, ty_down);
    extra_s += std::max(tx, ty);
    if (tx >= ty) {
      phase_s[static_cast<int>(Phase::kSeekX)] += x_seek_s;
      phase_s[static_cast<int>(Phase::kSettle)] += tx > 0.0 ? settle_s : 0.0;
    } else {
      phase_s[static_cast<int>(Phase::kTurnaround)] += ty;
    }

    x = target_x;
    key = ExitKey(seg, dir);
    transfer_s += (seg.row_last - seg.row_first + 1) * row_pass_s_;
  }
  phase_s[static_cast<int>(Phase::kTransfer)] = transfer_s;

  sled_ = SledState{x, KeyY(key), KeyVy(key)};
  sled_key_ = key;
  ++state_epoch_;

  const double positioning_ms = SecondsToMs(positioning_s);
  const double transfer_ms = SecondsToMs(transfer_s);
  const double extra_ms = SecondsToMs(extra_s);
  if (breakdown != nullptr) {
    *breakdown = ServiceBreakdown{positioning_ms, transfer_ms, extra_ms, {}};
    for (int i = 0; i < kPhaseCount; ++i) {
      breakdown->phases.phase_ms[i] = SecondsToMs(phase_s[i]);
    }
  }

  const double total_ms = positioning_ms + transfer_ms + extra_ms;
  activity_.busy_ms += total_ms;
  activity_.positioning_ms += positioning_ms + extra_ms;
  activity_.transfer_ms += transfer_ms;
  activity_.requests += 1;
  if (req.is_read()) {
    activity_.blocks_read += req.block_count;
  } else {
    activity_.blocks_written += req.block_count;
  }
  return total_ms;
}

TimeMs MemsDevice::EstimatePositioningMs(const Request& req, TimeMs at_ms) const {
  (void)at_ms;
  const Segment seg = FirstSegment(req);
  const double pos_up = PositioningSeconds(sled_, seg, +1);
  const double pos_down = PositioningSeconds(sled_, seg, -1);
  return SecondsToMs(std::min(pos_up, pos_down));
}

void MemsDevice::EstimatePositioningBatch(const Request* reqs, int64_t count,
                                          TimeMs at_ms, TimeMs* out_ms) const {
  (void)at_ms;
  // The X leg (seek + settle) depends only on the sled's X and the target
  // cylinder, so it is memoized per cylinder under the sled X's bits; the Y
  // legs come from the grid memo. Same expressions as PositioningSeconds, so
  // results are bit-identical.
  const double settle_s = geometry_.params().settle_seconds();
  const uint64_t x_bits = std::bit_cast<uint64_t>(sled_.x);
  for (int64_t i = 0; i < count; ++i) {
    const Segment seg = FirstSegment(reqs[i]);
    XLeg& leg = x_leg_memo_[static_cast<size_t>(seg.cylinder)];
    if (leg.from_x_bits != x_bits) {
      const double target_x = geometry_.CylinderX(seg.cylinder);
      leg.seconds = target_x != sled_.x
                        ? kinematics_.SeekSeconds(sled_.x, target_x) + settle_s
                        : 0.0;
      leg.from_x_bits = x_bits;
    }
    const double tx = leg.seconds;
    const double ty_up = SledYLegSeconds(EntryKey(seg, +1));
    const double ty_down = SledYLegSeconds(EntryKey(seg, -1));
    out_ms[i] = SecondsToMs(std::min(std::max(tx, ty_up), std::max(tx, ty_down)));
  }
}

}  // namespace mstk
