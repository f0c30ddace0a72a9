// Randomized equivalence checks for the MEMS device's Y-leg and X-leg memos.
//
// The memoized paths (EstimatePositioningBatch, ServiceRequest from a sled
// state on the row-boundary grid) must be bit-identical to the direct
// computation:
//  * after every service, the batch estimate over a random pending set
//    equals the scalar EstimatePositioningMs, which is never memoized, and
//    both equal a reference estimate rebuilt here from public pieces only
//    (MemsGeometry::Decode of both segment ends, the full TravelSeconds
//    plan for every leg, RowBoundaryY), so a wrong segment decode or seek
//    shared by the two device paths is caught too;
//  * every ServiceRequest total, coarse breakdown, phase split, and the sled
//    state it leaves behind equal those of a twin device that is handed
//    set_sled(sled()) before each call, which puts it off the grid and so
//    forces the direct path.
//  * the X-leg memo, keyed on the sled's X, serves an entry only at the X
//    it was computed from: the sled keeps coming back to a few cylinders
//    (and to the centre, through Reset()) in different Y states.
// Covered geometries: Table 1, the resonant spring, and the denser second-
// and third-generation presets (different row counts, so differently sized
// memo tables). Requests include multi-segment transfers that cross tracks
// and cylinders, and seek errors are enabled.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "src/mems/mems_device.h"
#include "src/sim/rng.h"

namespace mstk {
namespace {

struct Preset {
  const char* name;
  MemsParams params;
};

std::vector<Preset> Presets() {
  MemsParams resonant;
  resonant.spring_model = SpringModel::kResonant;
  return {{"table1", MemsParams{}},
          {"resonant", resonant},
          {"second_generation", MemsParams::SecondGeneration()},
          {"third_generation", MemsParams::ThirdGeneration()}};
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

// A random request: mostly small, sometimes starting just before a track or
// cylinder boundary, sometimes spanning several tracks or cylinders.
Request RandomRequest(const MemsParams& p, int64_t capacity, Rng& rng, int64_t id) {
  Request req;
  req.id = id;
  req.type = rng.Bernoulli(0.7) ? IoType::kRead : IoType::kWrite;
  const int64_t track = p.blocks_per_track();
  const int64_t cylinder = p.blocks_per_cylinder();
  const double shape = rng.Uniform(0.0, 1.0);
  if (shape < 0.5) {
    req.block_count = static_cast<int32_t>(1 + rng.UniformInt(16));
  } else if (shape < 0.8) {
    req.block_count = static_cast<int32_t>(1 + rng.UniformInt(3 * track));
  } else {
    req.block_count = static_cast<int32_t>(1 + rng.UniformInt(2 * cylinder));
  }
  const int64_t span = capacity - req.block_count;
  if (rng.Bernoulli(0.3)) {
    // Start a few blocks before a track (or cylinder) boundary.
    const int64_t unit = rng.Bernoulli(0.5) ? track : cylinder;
    const int64_t boundary = unit * (1 + rng.UniformInt(capacity / unit - 1));
    req.lbn = std::clamp<int64_t>(boundary - 1 - rng.UniformInt(24), 0, span);
  } else {
    req.lbn = rng.UniformInt(span + 1);
  }
  return req;
}

void ExpectSameService(MemsDevice& memo, MemsDevice& twin, const Request& req,
                       const char* preset, int step) {
  twin.set_sled(memo.sled());
  ServiceBreakdown got;
  ServiceBreakdown want;
  const double got_ms = memo.ServiceRequest(req, 0.0, &got);
  const double want_ms = twin.ServiceRequest(req, 0.0, &want);
  ASSERT_EQ(Bits(got_ms), Bits(want_ms)) << preset << " step " << step;
  ASSERT_EQ(Bits(got.positioning_ms), Bits(want.positioning_ms)) << preset << " step " << step;
  ASSERT_EQ(Bits(got.transfer_ms), Bits(want.transfer_ms)) << preset << " step " << step;
  ASSERT_EQ(Bits(got.extra_ms), Bits(want.extra_ms)) << preset << " step " << step;
  for (int i = 0; i < kPhaseCount; ++i) {
    ASSERT_EQ(Bits(got.phases.phase_ms[i]), Bits(want.phases.phase_ms[i]))
        << preset << " step " << step << " phase " << i;
  }
  ASSERT_EQ(Bits(memo.sled().x), Bits(twin.sled().x)) << preset << " step " << step;
  ASSERT_EQ(Bits(memo.sled().y), Bits(twin.sled().y)) << preset << " step " << step;
  ASSERT_EQ(Bits(memo.sled().vy), Bits(twin.sled().vy)) << preset << " step " << step;
}

// The positioning estimate for `req` from the device's sled state, built
// from public pieces only: the first segment's rows from decoding both of
// its ends, each leg through the full four-candidate plan.
TimeMs ReferenceEstimateMs(const MemsDevice& device, const Request& req) {
  const MemsGeometry& geometry = device.geometry();
  const MemsParams& p = device.params();
  const SledKinematics& kin = device.kinematics();
  const SledState& sled = device.sled();
  const int64_t track_blocks = p.blocks_per_track();
  const int64_t seg_last =
      std::min((req.lbn / track_blocks + 1) * track_blocks - 1, req.last_lbn());
  const MemsAddress first = geometry.Decode(req.lbn);
  const MemsAddress last = geometry.Decode(seg_last);
  const int32_t row_first = std::min(first.row, last.row);
  const int32_t row_last = std::max(first.row, last.row);
  const double target_x = geometry.CylinderX(first.cylinder);
  const double tx = target_x != sled.x
                        ? kin.TravelSeconds(sled.x, 0.0, target_x, 0.0) + p.settle_seconds()
                        : 0.0;
  const double v = p.access_velocity();
  const double ty_up = kin.TravelSeconds(sled.y, sled.vy, geometry.RowBoundaryY(row_first), v);
  const double ty_down =
      kin.TravelSeconds(sled.y, sled.vy, geometry.RowBoundaryY(row_last + 1), -v);
  return SecondsToMs(std::min(std::max(tx, ty_up), std::max(tx, ty_down)));
}

void ExpectEstimatesMatchReference(const MemsDevice& device, const std::vector<Request>& pending,
                              const char* preset, int step) {
  std::vector<TimeMs> batch(pending.size());
  device.EstimatePositioningBatch(pending.data(), static_cast<int64_t>(pending.size()), 0.0,
                                  batch.data());
  for (size_t i = 0; i < pending.size(); ++i) {
    const uint64_t reference = Bits(ReferenceEstimateMs(device, pending[i]));
    ASSERT_EQ(Bits(device.EstimatePositioningMs(pending[i], 0.0)), reference)
        << preset << " step " << step << " item " << i;
    ASSERT_EQ(Bits(batch[i]), reference) << preset << " step " << step << " item " << i;
  }
}

TEST(MemsMemoPropertyTest, MemoizedPathsMatchDirectComputation) {
  for (const Preset& preset : Presets()) {
    MemsDevice memo(preset.params);
    MemsDevice twin(preset.params);
    memo.EnableSeekErrors(0.05, 97);
    twin.EnableSeekErrors(0.05, 97);
    const int64_t capacity = memo.CapacityBlocks();
    Rng rng(61);
    int64_t next_id = 0;
    for (int step = 0; step < 400; ++step) {
      if (rng.Bernoulli(0.02)) {
        // Back to the centred rest state, which is off the grid.
        memo.Reset();
        twin.Reset();
      }
      const Request req = RandomRequest(preset.params, capacity, rng, next_id++);
      ExpectSameService(memo, twin, req, preset.name, step);

      std::vector<Request> pending(static_cast<size_t>(1 + rng.UniformInt(32)));
      for (Request& p : pending) {
        p = RandomRequest(preset.params, capacity, rng, next_id++);
      }
      ExpectEstimatesMatchReference(memo, pending, preset.name, step);
      // A second scan at the same state reads the X memo back.
      ExpectEstimatesMatchReference(memo, pending, preset.name, step);
    }
  }
}

TEST(MemsMemoPropertyTest, XLegMemoServesOnlyTheXItWasFilledAt) {
  // The sled shuttles between three cylinders, so it comes back to an X it
  // has estimated from before, in a new Y state (other rows, other read
  // direction); now and then Reset() sends it back to the centre, also an
  // X seen before, at rest. The pending set stays fixed, so memo entries
  // filled at one X are looked up again at every other.
  for (const Preset& preset : Presets()) {
    MemsDevice device(preset.params);
    const MemsParams& p = preset.params;
    const int64_t capacity = device.CapacityBlocks();
    Rng rng(71);
    std::vector<Request> pending(48);
    int64_t next_id = 0;
    for (Request& r : pending) {
      r = RandomRequest(p, capacity, rng, next_id++);
    }
    // The third is a pending request's own cylinder (an X leg of zero).
    const int32_t cylinders[] = {static_cast<int32_t>(rng.UniformInt(p.cylinders())),
                                 static_cast<int32_t>(rng.UniformInt(p.cylinders())),
                                 device.geometry().Decode(pending[0].lbn).cylinder};
    for (int step = 0; step < 300; ++step) {
      if (rng.Bernoulli(0.1)) {
        device.Reset();
        ExpectEstimatesMatchReference(device, pending, preset.name, step);
      }
      MemsAddress addr;
      addr.cylinder = cylinders[rng.UniformInt(3)];
      addr.track = static_cast<int32_t>(rng.UniformInt(p.tracks_per_cylinder()));
      addr.row = static_cast<int32_t>(rng.UniformInt(p.rows_per_track()));
      Request req;
      req.id = next_id++;
      req.lbn = device.geometry().Encode(addr);
      req.block_count = static_cast<int32_t>(
          1 + rng.UniformInt(std::min<int64_t>(3 * p.slots_per_row(), capacity - req.lbn)));
      (void)device.ServiceRequest(req, 0.0);
      ExpectEstimatesMatchReference(device, pending, preset.name, step);
    }
  }
}

TEST(MemsMemoPropertyTest, OffGridStatesBypassTheMemo) {
  // Arbitrary sled states, including moving ones between row boundaries and
  // the exact grid values handed in from outside, give the scalar results,
  // also when the sled was on the grid just before set_sled().
  for (const Preset& preset : Presets()) {
    MemsDevice device(preset.params);
    const MemsParams& p = preset.params;
    const double half = p.half_range_m() * 0.9;
    const double v = p.access_velocity();
    const int64_t capacity = device.CapacityBlocks();
    Rng rng(67);
    int64_t next_id = 0;
    for (int step = 0; step < 100; ++step) {
      if (rng.Bernoulli(0.5)) {
        (void)device.ServiceRequest(RandomRequest(p, capacity, rng, next_id++), 0.0);
      }
      SledState state;
      state.x = device.geometry().CylinderX(static_cast<int32_t>(rng.UniformInt(p.cylinders())));
      if (rng.Bernoulli(0.5)) {
        state.y = rng.Uniform(-half, half);
      } else {
        state.y = device.geometry().RowBoundaryY(
            static_cast<int32_t>(rng.UniformInt(p.rows_per_track() + 1)));
      }
      const double pick = rng.Uniform(0.0, 1.0);
      state.vy = pick < 0.2 ? 0.0 : (pick < 0.6 ? v : -v);
      device.set_sled(state);
      std::vector<Request> pending(static_cast<size_t>(1 + rng.UniformInt(16)));
      for (Request& r : pending) {
        r = RandomRequest(p, capacity, rng, next_id++);
      }
      ExpectEstimatesMatchReference(device, pending, preset.name, step);
    }
  }
}

}  // namespace
}  // namespace mstk
