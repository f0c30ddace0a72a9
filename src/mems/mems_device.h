// Performance model of a MEMS-based storage device (§2, [GSGN00]).
//
// The device tracks the media sled's mechanical state (X offset, Y offset,
// Y velocity) between requests. Servicing a request:
//
//   1. Positioning: an X seek to the target cylinder (plus settling time
//      whenever the sled moved in X) proceeds in parallel with a Y seek that
//      delivers the sled to one end of the target row span moving at the
//      access velocity; total positioning = max(Tx, Ty) (§2.4.1). The device
//      picks the cheaper of the two media read directions (the media is
//      readable in both Y directions).
//   2. Transfer: each pass over a row of tip sectors moves `slots_per_row`
//      LBNs concurrently and takes tip_sector_bits / per_tip_rate. Track and
//      cylinder switches mid-transfer cost a turnaround overlapped with the
//      (tiny) X step + settle.
//
// Y-leg memo. Between requests the sled always sits on a row boundary moving
// at +/- access velocity (it just finished reading a segment), and every Y
// target is a row boundary at +/- access velocity too. Every Y leg the device
// plans from such a state is therefore a function of (from boundary, from
// direction, to boundary, to direction), and the device keeps those travel
// times in a lazily filled table of (2 * (rows_per_track + 1))^2 entries
// (56 x 56 with the Table 1 geometry). Each entry is the same TravelSeconds
// call with the same arguments as the direct computation, so memoized and
// direct results are bit-identical. The sled is off the grid after Reset()
// (centred, at rest) and after set_sled(); Y legs from such a state are
// computed directly.
//
// X-leg memo. The sled is at rest in X between requests, so a request's X
// leg (seek + settle) is a function of the sled's X and the target cylinder
// alone. The device keeps one entry per cylinder, stamped with the bits of
// the sled X it was computed from; an entry stays valid for as long as the
// sled's X is unchanged, across services that end on the same cylinder and
// across Reset(), not just for one dispatch.
//
// Thread safety: the memo tables are mutable caches filled from const
// estimate methods, so one device's const methods must not be called
// concurrently. Devices are per-trial, never shared across threads.
#ifndef MSTK_SRC_MEMS_MEMS_DEVICE_H_
#define MSTK_SRC_MEMS_MEMS_DEVICE_H_

#include <cassert>
#include <cmath>
#include <cstdint>
#include <vector>

#include "src/core/storage_device.h"
#include "src/mems/geometry.h"
#include "src/mems/kinematics.h"
#include "src/mems/mems_params.h"
#include "src/sim/rng.h"

namespace mstk {

// Mechanical state of the media sled between requests.
struct SledState {
  double x = 0.0;   // m, sled X offset (always at rest in X between requests)
  double y = 0.0;   // m, sled Y offset
  double vy = 0.0;  // m/s, 0 or +/- access velocity
};

class MemsDevice : public StorageDevice {
 public:
  explicit MemsDevice(const MemsParams& params = MemsParams{});

  const char* name() const override { return "mems"; }
  int64_t CapacityBlocks() const override { return geometry_.capacity_blocks(); }
  [[nodiscard]] double ServiceRequest(const Request& req, TimeMs start_ms,
                        ServiceBreakdown* breakdown = nullptr) override;
  [[nodiscard]] TimeMs EstimatePositioningMs(const Request& req, TimeMs at_ms) const override;
  // Reads both directions' Y legs from the Y-leg memo (when the sled is on
  // the row-boundary grid) and the X leg from the per-cylinder X-leg memo
  // keyed on the sled's X. Bit-identical to the scalar estimate, which stays
  // unmemoized as the independent reference.
  void EstimatePositioningBatch(const Request* reqs, int64_t count, TimeMs at_ms,
                                TimeMs* out_ms) const override;
  // No rotation: estimates depend only on the sled state, never on time.
  bool PositioningIsTimeFree() const override { return true; }
  // Degraded mode (§6.1, spares exhausted): failed tips are masked out, so
  // every access pays one extra row pass to cover the lost concurrency.
  [[nodiscard]] TimeMs DegradedPenaltyMs() const override { return RowPassMs(); }
  void Reset() override;

  // Seek errors (§6.1.3): with probability `rate` per request the servo
  // misses and the sled retries — up to two Y turnarounds plus an X
  // re-settle. Deterministic for a given seed; Reset() restores the seed.
  void EnableSeekErrors(double rate, uint64_t seed);

  const MemsParams& params() const { return geometry_.params(); }
  const MemsGeometry& geometry() const { return geometry_; }
  const SledKinematics& kinematics() const { return kinematics_; }
  const SledState& sled() const { return sled_; }
  // Arbitrary states are treated as off the row-boundary grid: Y legs from
  // them bypass the memo.
  void set_sled(const SledState& state) {
    assert(!std::isnan(state.x));
    sled_ = state;
    sled_key_ = kOffGrid;
    ++state_epoch_;
  }

  // --- direct model probes (tests, Table 2, ablations) -------------------
  // Rest-to-rest X seek between cylinders, ms (no settle included).
  TimeMs CylinderSeekMs(int32_t from_cyl, int32_t to_cyl) const;
  // Settling delay charged after any X motion, ms.
  TimeMs SettleMs() const { return SecondsToMs(params().settle_seconds()); }
  // Turnaround at Y offset `y` moving at +/- access velocity, ms.
  TimeMs TurnaroundMs(double y) const;
  // One row pass (smallest transfer quantum), ms.
  TimeMs RowPassMs() const { return SecondsToMs(params().row_pass_seconds()); }

 private:
  // A contiguous run of physical rows within one (cylinder, track).
  struct Segment {
    int32_t cylinder;
    int32_t row_first;
    int32_t row_last;
  };

  // Exact quotient n / d of 32-bit values for a divisor fixed at
  // construction: the high 64 bits of the 128-bit product M * n with
  // M = ceil(2^64 / d), one multiply instead of a division (Lemire, Kaser
  // and Kurz, "Faster remainder by direct computation", 2019). M overflows
  // for d = 1, which returns n itself.
  class Divisor32 {
   public:
    explicit Divisor32(uint32_t d) : d_(d), m_(UINT64_MAX / d + 1) {}
    uint32_t Divide(uint32_t n) const {
      return d_ == 1 ? n
                     : static_cast<uint32_t>((static_cast<unsigned __int128>(m_) * n) >> 64);
    }
    uint32_t value() const { return d_; }

   private:
    uint32_t d_;
    uint64_t m_;
  };

  // The rows that a transfer of blocks [lbn, last_lbn] covers in the track
  // holding `lbn`; *next_lbn is the first block after them. Same rows as
  // decoding both ends with MemsGeometry::Decode (the serpentine order flips
  // odd global tracks), in 32-bit arithmetic with multiply-shift division.
  Segment TrackSegment(uint32_t lbn, uint32_t last_lbn, uint32_t* next_lbn) const;

  // First segment only (all the positioning estimate needs).
  Segment FirstSegment(const Request& req) const {
    assert(req.lbn >= 0 && req.block_count > 0 && req.last_lbn() < CapacityBlocks());
    uint32_t next_lbn = 0;
    return TrackSegment(static_cast<uint32_t>(req.lbn), static_cast<uint32_t>(req.last_lbn()),
                        &next_lbn);
  }

  // Positioning time (seconds) from `state` to reading segment `seg` in
  // direction `dir` (+1 ascending rows, -1 descending). Tx/Ty overlap.
  double PositioningSeconds(const SledState& state, const Segment& seg, int dir) const;

  // A Y state on the row-boundary grid, encoded as 2 * boundary + (dir > 0):
  // row boundary `boundary` (0..rows_per_track) crossed at dir * v_access_.
  static constexpr int kOffGrid = -1;
  static int GridKey(int32_t boundary, int dir) { return 2 * boundary + (dir > 0 ? 1 : 0); }
  double KeyY(int key) const { return geometry_.RowBoundaryY(key >> 1); }
  double KeyVy(int key) const { return (key & 1) != 0 ? v_access_ : -v_access_; }

  // Grid states where reading `seg` in direction `dir` (+1 ascending rows,
  // -1 descending) starts and ends.
  static int EntryKey(const Segment& seg, int dir) {
    return dir > 0 ? GridKey(seg.row_first, +1) : GridKey(seg.row_last + 1, -1);
  }
  static int ExitKey(const Segment& seg, int dir) {
    return dir > 0 ? GridKey(seg.row_last + 1, +1) : GridKey(seg.row_first, -1);
  }

  // Y travel time (seconds) between two grid states, memoized.
  double GridYLegSeconds(int from_key, int to_key) const;
  // Y travel time (seconds) from the current sled state to a grid state:
  // memoized when the sled is on the grid, computed directly otherwise.
  double SledYLegSeconds(int to_key) const;

  MemsGeometry geometry_;
  SledKinematics kinematics_;
  SledState sled_;
  double v_access_;     // m/s
  double row_pass_s_;   // s
  // Layout for TrackSegment (capacity < 2^32 blocks).
  uint32_t rows_per_track_;
  Divisor32 slots_per_row_;
  Divisor32 tracks_per_cylinder_;
  Divisor32 blocks_per_track_;
  double seek_error_rate_ = 0.0;
  uint64_t seek_error_seed_ = 0;
  Rng seek_error_rng_{seek_error_seed_};

  // Grid key of the sled's Y state, or kOffGrid.
  int sled_key_ = kOffGrid;
  int grid_keys_;  // 2 * (rows_per_track + 1)
  // grid_keys_ x grid_keys_ Y travel times (s), row = from key; < 0 = unfilled.
  mutable std::vector<double> y_leg_memo_;
  // Per-cylinder X leg (seek + settle, s) from the sled X whose bits are
  // `from_x_bits`. The unfilled stamp is a NaN pattern, which no sled X is.
  static constexpr uint64_t kUnfilledX = 0x7ff8'dead'0000'0001;
  struct XLeg {
    uint64_t from_x_bits = kUnfilledX;
    double seconds = 0.0;
  };
  mutable std::vector<XLeg> x_leg_memo_;
};

}  // namespace mstk

#endif  // MSTK_SRC_MEMS_MEMS_DEVICE_H_
