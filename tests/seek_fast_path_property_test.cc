// Bit-identity checks for SledKinematics::SeekSeconds, which evaluates a
// single candidate plan, against the full four-candidate Plan it must agree
// with: every cylinder-centre pair of the Table 1 device, strided pairs of
// the resonant, second- and third-generation presets, and random continuous
// positions (including 0, the range ends and nearly coincident pairs) across
// a sweep of spring, acceleration and resonant-frequency parameters.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "src/mems/kinematics.h"
#include "src/mems/mems_device.h"
#include "src/sim/rng.h"

namespace mstk {
namespace {

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

// Number of (from, to) pairs whose fast seek differs from Plan in any bit;
// the first few are reported.
int64_t CountMismatches(const SledKinematics& kin, const std::vector<double>& from,
                        const std::vector<double>& to) {
  int64_t mismatches = 0;
  for (const double f : from) {
    for (const double t : to) {
      const double fast = kin.SeekSeconds(f, t);
      const double plan = kin.Plan(f, 0.0, t, 0.0).t_total;
      if (Bits(fast) != Bits(plan)) {
        if (++mismatches <= 5) {
          ADD_FAILURE() << "from " << f << " to " << t << ": seek " << fast << " plan " << plan;
        }
      }
    }
  }
  return mismatches;
}

std::vector<double> CylinderCentres(const MemsDevice& device, int32_t stride, int32_t offset) {
  std::vector<double> xs;
  for (int32_t c = offset; c < device.params().cylinders(); c += stride) {
    xs.push_back(device.geometry().CylinderX(c));
  }
  return xs;
}

TEST(SeekFastPathTest, EveryTable1CylinderPair) {
  const MemsDevice device;
  const std::vector<double> xs = CylinderCentres(device, 1, 0);
  EXPECT_EQ(CountMismatches(device.kinematics(), xs, xs), 0);
}

TEST(SeekFastPathTest, StridedCylinderPairsOfOtherPresets) {
  MemsParams resonant;
  resonant.spring_model = SpringModel::kResonant;
  for (const MemsParams& params :
       {resonant, MemsParams::SecondGeneration(), MemsParams::ThirdGeneration()}) {
    const MemsDevice device(params);
    // Coprime strides with different offsets, so the from and to sets
    // interleave and every region of the stroke is paired with every other.
    EXPECT_EQ(CountMismatches(device.kinematics(), CylinderCentres(device, 5, 0),
                              CylinderCentres(device, 7, 3)),
              0)
        << "cylinders " << params.cylinders();
  }
}

TEST(SeekFastPathTest, RandomContinuousPositionsAcrossParameters) {
  Rng rng(73);
  for (int config = 0; config < 48; ++config) {
    SledAxisParams axis;
    axis.a_max = rng.Uniform(300.0, 1500.0);
    axis.p_max = 50e-6;
    if (config % 3 == 2) {
      const double f = rng.Uniform(200.0, 1000.0);  // resonant: c = (2 pi f)^2
      axis.spring_coeff = (6.283185307179586 * f) * (6.283185307179586 * f);
    } else {
      axis.spring_factor = config == 0 ? 0.0 : rng.Uniform(0.0, 0.95);
    }
    const SledKinematics kin(axis);
    const double p = axis.p_max;
    std::vector<double> from = {0.0, p, -p, 1e-12, -1e-12};
    for (int i = 0; i < 60; ++i) {
      from.push_back(rng.Uniform(-p, p));
    }
    std::vector<double> to = from;
    for (int i = 0; i < 60; ++i) {
      to.push_back(rng.Uniform(-p, p));
    }
    EXPECT_EQ(CountMismatches(kin, from, to), 0) << "config " << config;

    // Nearly coincident pairs: 1e-12 m apart, and a few ulps apart, where
    // the switch speed is tiny and the opposite-control candidates are
    // near the edge of Plan's feasibility test.
    for (int i = 0; i < 400; ++i) {
      const double a = i < 4 ? (i < 2 ? 0.0 : (i == 2 ? p : -p)) : rng.Uniform(-p, p);
      const double sign = rng.Bernoulli(0.5) ? 1.0 : -1.0;
      double b = a + sign * 1e-12;
      if (i % 2 == 1) {
        b = a;
        for (int k = 1 + static_cast<int>(rng.UniformInt(4)); k > 0; --k) {
          b = std::nextafter(b, sign * 1.0);
        }
      }
      EXPECT_EQ(CountMismatches(kin, {a}, {b}), 0) << "config " << config << " pair " << i;
      EXPECT_EQ(CountMismatches(kin, {b}, {a}), 0) << "config " << config << " pair " << i;
    }

    // When the spring outpulls the actuator inside the range (equilibrium
    // e = a_max / c < p_max), control toward the target alone swings the
    // sled from `from` to its mirror image 2e - from in half a spring
    // period. Near that target the switch comes at almost zero speed and
    // the candidate switching at the mirrored velocity costs about the
    // same, so these pairs probe the half-period bound.
    const double e = axis.a_max / kin.c();
    if (kin.c() > 0.0 && e < p) {
      for (int i = 0; i < 400; ++i) {
        const double sign = rng.Bernoulli(0.5) ? 1.0 : -1.0;
        const double a = sign * rng.Uniform(std::max(2.0 * e - p, -p), e);
        const double mirror = 2.0 * sign * e - a;
        const double nudge =
            std::pow(10.0, -rng.Uniform(3.0, 12.0)) * (rng.Bernoulli(0.5) ? 1.0 : -1.0);
        const double b = std::clamp(mirror * (1.0 + nudge), -p, p);
        EXPECT_EQ(CountMismatches(kin, {a}, {b, mirror}), 0)
            << "config " << config << " mirror " << i;
      }
    }
  }
}

}  // namespace
}  // namespace mstk
