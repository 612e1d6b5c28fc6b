#include "hotspot/mean_shift.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <vector>

#include "util/rng.h"

namespace actor {
namespace {

std::vector<GeoPoint> TwoClusters(int per_cluster, double spread,
                                  uint64_t seed = 1) {
  Rng rng(seed);
  std::vector<GeoPoint> points;
  for (int i = 0; i < per_cluster; ++i) {
    points.push_back({rng.Gaussian(2.0, spread), rng.Gaussian(2.0, spread)});
    points.push_back({rng.Gaussian(10.0, spread), rng.Gaussian(10.0, spread)});
  }
  return points;
}

TEST(MeanShift2dTest, RecoversTwoClusters) {
  MeanShiftOptions options;
  options.bandwidth = 1.5;
  options.merge_radius = 1.0;
  auto modes = MeanShiftModes2d(TwoClusters(200, 0.3), options);
  ASSERT_TRUE(modes.ok()) << modes.status().ToString();
  ASSERT_EQ(modes->size(), 2u);
  // One mode near each cluster center, in any order.
  const double d0 = std::min(Distance((*modes)[0], {2, 2}),
                             Distance((*modes)[0], {10, 10}));
  const double d1 = std::min(Distance((*modes)[1], {2, 2}),
                             Distance((*modes)[1], {10, 10}));
  EXPECT_LT(d0, 0.3);
  EXPECT_LT(d1, 0.3);
  EXPECT_GT(Distance((*modes)[0], (*modes)[1]), 5.0);
}

TEST(MeanShift2dTest, SinglePoint) {
  MeanShiftOptions options;
  options.bandwidth = 1.0;
  auto modes = MeanShiftModes2d({{3.0, 4.0}}, options);
  ASSERT_TRUE(modes.ok());
  ASSERT_EQ(modes->size(), 1u);
  EXPECT_NEAR((*modes)[0].x, 3.0, 1e-6);
  EXPECT_NEAR((*modes)[0].y, 4.0, 1e-6);
}

TEST(MeanShift2dTest, ModesSortedBySupport) {
  Rng rng(2);
  std::vector<GeoPoint> points;
  for (int i = 0; i < 300; ++i) {
    points.push_back({rng.Gaussian(2.0, 0.2), rng.Gaussian(2.0, 0.2)});
  }
  for (int i = 0; i < 30; ++i) {
    points.push_back({rng.Gaussian(12.0, 0.2), rng.Gaussian(12.0, 0.2)});
  }
  MeanShiftOptions options;
  options.bandwidth = 1.0;
  auto modes = MeanShiftModes2d(points, options);
  ASSERT_TRUE(modes.ok());
  ASSERT_GE(modes->size(), 2u);
  // First mode is the big cluster.
  EXPECT_LT(Distance((*modes)[0], {2, 2}), 0.5);
}

TEST(MeanShift2dTest, LargeMergeRadiusCollapsesModes) {
  MeanShiftOptions options;
  options.bandwidth = 1.5;
  options.merge_radius = 50.0;  // merge everything
  auto modes = MeanShiftModes2d(TwoClusters(50, 0.3), options);
  ASSERT_TRUE(modes.ok());
  EXPECT_EQ(modes->size(), 1u);
}

TEST(MeanShift2dTest, EmptyInputError) {
  MeanShiftOptions options;
  EXPECT_TRUE(MeanShiftModes2d({}, options).status().IsInvalidArgument());
}

TEST(MeanShift2dTest, BadOptionsError) {
  MeanShiftOptions options;
  options.bandwidth = 0.0;
  EXPECT_TRUE(
      MeanShiftModes2d({{0, 0}}, options).status().IsInvalidArgument());
  options.bandwidth = 1.0;
  options.max_iterations = 0;
  EXPECT_TRUE(
      MeanShiftModes2d({{0, 0}}, options).status().IsInvalidArgument());
  options.max_iterations = 10;
  options.merge_radius = -1.0;
  EXPECT_TRUE(
      MeanShiftModes2d({{0, 0}}, options).status().IsInvalidArgument());
}

TEST(MeanShift2dTest, DeterministicAcrossRuns) {
  const auto points = TwoClusters(100, 0.4);
  MeanShiftOptions options;
  options.bandwidth = 1.0;
  auto a = MeanShiftModes2d(points, options);
  auto b = MeanShiftModes2d(points, options);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->size(), b->size());
  for (std::size_t i = 0; i < a->size(); ++i) {
    EXPECT_DOUBLE_EQ((*a)[i].x, (*b)[i].x);
  }
}

TEST(MeanShift1dTest, RecoversCircadianPeaks) {
  Rng rng(3);
  std::vector<double> hours;
  for (int i = 0; i < 300; ++i) {
    hours.push_back(std::fmod(rng.Gaussian(9.0, 0.5) + 24.0, 24.0));
    hours.push_back(std::fmod(rng.Gaussian(20.0, 0.5) + 24.0, 24.0));
  }
  MeanShiftOptions options;
  options.bandwidth = 1.5;
  options.merge_radius = 1.0;
  auto modes = MeanShiftModes1dCircular(hours, 24.0, options);
  ASSERT_TRUE(modes.ok());
  ASSERT_EQ(modes->size(), 2u);
  std::vector<double> sorted = *modes;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_NEAR(sorted[0], 9.0, 0.4);
  EXPECT_NEAR(sorted[1], 20.0, 0.4);
}

TEST(MeanShift1dTest, MidnightSeamCluster) {
  // One cluster straddling midnight: 23.5h..0.5h. A linear-domain method
  // would report two modes; the circular one must report exactly one.
  Rng rng(4);
  std::vector<double> hours;
  for (int i = 0; i < 400; ++i) {
    hours.push_back(std::fmod(rng.Gaussian(24.0, 0.3) + 24.0, 24.0));
  }
  MeanShiftOptions options;
  options.bandwidth = 1.0;
  options.merge_radius = 0.8;
  auto modes = MeanShiftModes1dCircular(hours, 24.0, options);
  ASSERT_TRUE(modes.ok());
  ASSERT_EQ(modes->size(), 1u);
  const double d = std::min((*modes)[0], 24.0 - (*modes)[0]);
  EXPECT_LT(d, 0.3);  // mode near midnight
}

TEST(MeanShift1dTest, ModesWithinPeriod) {
  Rng rng(5);
  std::vector<double> hours;
  for (int i = 0; i < 100; ++i) hours.push_back(rng.UniformRange(0.0, 24.0));
  MeanShiftOptions options;
  options.bandwidth = 2.0;
  auto modes = MeanShiftModes1dCircular(hours, 24.0, options);
  ASSERT_TRUE(modes.ok());
  for (double m : *modes) {
    EXPECT_GE(m, 0.0);
    EXPECT_LT(m, 24.0);
  }
}

/// MeanShiftModes1dCircular as it was with an fmod in its circular
/// distance (options are taken as valid). Every distance it takes is
/// between values already wrapped to [0, period), so the fmod returned its
/// input unchanged; the library dropped it.
std::vector<double> ModesWithDistanceFmod(const std::vector<double>& values,
                                          double period,
                                          const MeanShiftOptions& options) {
  const double h = options.bandwidth;
  const double two_pi = 2.0 * std::numbers::pi;
  auto wrap = [&](double v) {
    v = std::fmod(v, period);
    if (v < 0.0) v += period;
    if (v >= period) v = 0.0;
    return v;
  };
  auto circ_dist = [&](double a, double b) {
    double d = std::fabs(a - b);
    d = std::fmod(d, period);
    return d > period / 2.0 ? period - d : d;
  };
  const double seed_cell =
      options.seed_grid_cell > 0.0 ? options.seed_grid_cell : h / 2.0;
  const int n_bins =
      std::max(1, static_cast<int>(std::ceil(period / seed_cell)));
  std::vector<double> bin_sum(n_bins, 0.0);
  std::vector<std::size_t> bin_count(n_bins, 0);
  std::vector<double> wrapped;
  for (double v : values) {
    const double w = wrap(v);
    wrapped.push_back(w);
    const int b = std::min(n_bins - 1, static_cast<int>(w / seed_cell));
    bin_sum[b] += w;
    ++bin_count[b];
  }
  struct Mode {
    double center;
    std::size_t support;
  };
  std::vector<Mode> modes;
  for (int b = 0; b < n_bins; ++b) {
    if (bin_count[b] == 0) continue;
    double y = bin_sum[b] / static_cast<double>(bin_count[b]);
    std::size_t window_count = 0;
    for (int iter = 0; iter < options.max_iterations; ++iter) {
      double sin_sum = 0.0, cos_sum = 0.0;
      std::size_t m = 0;
      for (double v : wrapped) {
        if (circ_dist(v, y) <= h) {
          const double theta = two_pi * v / period;
          sin_sum += std::sin(theta);
          cos_sum += std::cos(theta);
          ++m;
        }
      }
      if (m == 0) break;
      const double next =
          wrap(std::atan2(sin_sum, cos_sum) / two_pi * period);
      const double shift = circ_dist(next, y);
      y = next;
      window_count = m;
      if (shift < options.convergence_tol) break;
    }
    if (window_count == 0) continue;
    bool merged = false;
    for (auto& mode : modes) {
      if (circ_dist(mode.center, y) <= options.merge_radius) {
        if (window_count > mode.support) {
          mode.center = y;
          mode.support = window_count;
        }
        merged = true;
        break;
      }
    }
    if (!merged) modes.push_back({y, window_count});
  }
  std::sort(modes.begin(), modes.end(),
            [](const Mode& a, const Mode& b) { return a.support > b.support; });
  std::vector<double> out;
  for (const auto& m : modes) out.push_back(m.center);
  return out;
}

TEST(MeanShift1dTest, BitIdenticalToDistanceWithFmod) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    std::vector<double> hours;
    // Clusters (some across midnight) over a uniform background, wrapped
    // to [0, 24); every other seed also feeds unwrapped values.
    const bool unwrapped = seed % 2 == 0;
    for (int i = 0; i < 400; ++i) {
      const double peak = 6.0 * static_cast<double>(i % 4) + 0.5;
      double v = i % 5 == 0 ? rng.UniformRange(0.0, 24.0)
                            : rng.Gaussian(peak, 0.8);
      if (unwrapped) v += 24.0 * static_cast<double>(i % 3 - 1);
      hours.push_back(unwrapped ? v : std::fmod(v + 24.0, 24.0));
    }
    MeanShiftOptions options;
    options.bandwidth = 0.5 + 0.25 * static_cast<double>(seed);
    options.merge_radius = 0.4;
    auto modes = MeanShiftModes1dCircular(hours, 24.0, options);
    ASSERT_TRUE(modes.ok());
    const std::vector<double> expected =
        ModesWithDistanceFmod(hours, 24.0, options);
    ASSERT_FALSE(expected.empty());
    ASSERT_EQ(modes->size(), expected.size()) << "seed " << seed;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(std::bit_cast<uint64_t>((*modes)[i]),
                std::bit_cast<uint64_t>(expected[i]))
          << "seed " << seed << " mode " << i;
    }
  }
}

TEST(MeanShift1dTest, BadPeriodError) {
  MeanShiftOptions options;
  options.bandwidth = 1.0;
  EXPECT_TRUE(MeanShiftModes1dCircular({1.0}, 0.0, options)
                  .status()
                  .IsInvalidArgument());
}

TEST(MeanShift1dTest, EmptyInputError) {
  MeanShiftOptions options;
  EXPECT_TRUE(MeanShiftModes1dCircular({}, 24.0, options)
                  .status()
                  .IsInvalidArgument());
}

TEST(MeanShift2dTest, ThreadCountDoesNotChangeResult) {
  const auto points = TwoClusters(300, 0.5, 17);
  MeanShiftOptions serial;
  serial.bandwidth = 1.0;
  MeanShiftOptions parallel = serial;
  parallel.num_threads = 4;
  auto a = MeanShiftModes2d(points, serial);
  auto b = MeanShiftModes2d(points, parallel);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->size(), b->size());
  for (std::size_t i = 0; i < a->size(); ++i) {
    EXPECT_DOUBLE_EQ((*a)[i].x, (*b)[i].x);
    EXPECT_DOUBLE_EQ((*a)[i].y, (*b)[i].y);
  }
}

class BandwidthSweep : public ::testing::TestWithParam<double> {};

TEST_P(BandwidthSweep, WiderBandwidthFindsFewerOrEqualModes) {
  const auto points = TwoClusters(150, 0.6, 7);
  MeanShiftOptions narrow;
  narrow.bandwidth = GetParam();
  narrow.merge_radius = narrow.bandwidth / 2.0;
  MeanShiftOptions wide = narrow;
  wide.bandwidth = GetParam() * 4.0;
  wide.merge_radius = wide.bandwidth / 2.0;
  auto narrow_modes = MeanShiftModes2d(points, narrow);
  auto wide_modes = MeanShiftModes2d(points, wide);
  ASSERT_TRUE(narrow_modes.ok() && wide_modes.ok());
  EXPECT_LE(wide_modes->size(), narrow_modes->size());
}

INSTANTIATE_TEST_SUITE_P(Bandwidths, BandwidthSweep,
                         ::testing::Values(0.3, 0.5, 1.0, 2.0));

}  // namespace
}  // namespace actor
