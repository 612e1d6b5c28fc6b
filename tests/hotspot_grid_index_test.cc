#include "hotspot/grid_index.h"

#include <gtest/gtest.h>

#include <limits>

#include "util/rng.h"

namespace actor {
namespace {

/// Brute-force nearest with the same tie-break (smallest index).
int32_t BruteNearest(const std::vector<GeoPoint>& points,
                     const GeoPoint& query) {
  int32_t best = -1;
  double best_dist = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < points.size(); ++i) {
    const double d = Distance(query, points[i]);
    if (d < best_dist) {
      best_dist = d;
      best = static_cast<int32_t>(i);
    }
  }
  return best;
}

TEST(GridIndexTest, EmptyReturnsMinusOne) {
  Grid2dIndex index({});
  EXPECT_EQ(index.Nearest({0, 0}), -1);
}

TEST(GridIndexTest, SinglePoint) {
  Grid2dIndex index({{3, 4}});
  EXPECT_EQ(index.Nearest({0, 0}), 0);
  EXPECT_EQ(index.Nearest({100, 100}), 0);
}

TEST(GridIndexTest, ExactHits) {
  std::vector<GeoPoint> points = {{0, 0}, {10, 0}, {0, 10}};
  Grid2dIndex index(points);
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(index.Nearest(points[i]), static_cast<int32_t>(i));
  }
}

TEST(GridIndexTest, FarQueryOutsideGrid) {
  std::vector<GeoPoint> points = {{1, 1}, {2, 2}};
  Grid2dIndex index(points);
  EXPECT_EQ(index.Nearest({-500, -500}), 0);
  EXPECT_EQ(index.Nearest({500, 500}), 1);
}

TEST(GridIndexTest, VeryFarQueryCostIsBoundedByTheOccupiedBox) {
  // 1e12 km is past the cell-index clamp; each ring is clipped to the
  // occupied box, so the walk visits O(box) cells instead of O(ring).
  std::vector<GeoPoint> points = {{0, 0}, {10, 0}, {0, 10}};
  Grid2dIndex index(points);
  const GeoPoint east{1e12, 5};
  EXPECT_EQ(index.Nearest(east), 1);
  for (const GeoPoint& q : {east, GeoPoint{-1e12, 3}, GeoPoint{4, 1e12},
                            GeoPoint{1e12, -1e12}}) {
    EXPECT_EQ(index.Nearest(q), BruteNearest(points, q))
        << q.x << "," << q.y;
  }
}

TEST(GridIndexTest, NonFiniteQueryReturnsMinusOne) {
  Grid2dIndex index({{0, 0}, {10, 0}, {0, 10}});
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(index.Nearest({nan, 0}), -1);
  EXPECT_EQ(index.Nearest({0, nan}), -1);
  EXPECT_EQ(index.Nearest({inf, 0}), -1);
  EXPECT_EQ(index.Nearest({0, -inf}), -1);
}

class GridIndexPropertySweep : public ::testing::TestWithParam<int> {};

TEST_P(GridIndexPropertySweep, MatchesBruteForce) {
  const int n = GetParam();
  Rng rng(n * 31 + 7);
  std::vector<GeoPoint> points(n);
  for (auto& p : points) {
    // Mixture of clustered and scattered points.
    if (rng.Bernoulli(0.5)) {
      p = {rng.Gaussian(10.0, 1.0), rng.Gaussian(10.0, 1.0)};
    } else {
      p = {rng.UniformRange(-40.0, 40.0), rng.UniformRange(-40.0, 40.0)};
    }
  }
  Grid2dIndex index(points);
  for (int q = 0; q < 300; ++q) {
    const GeoPoint query{rng.UniformRange(-50.0, 50.0),
                         rng.UniformRange(-50.0, 50.0)};
    ASSERT_EQ(index.Nearest(query), BruteNearest(points, query))
        << "query (" << query.x << ", " << query.y << ") n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, GridIndexPropertySweep,
                         ::testing::Values(1, 2, 3, 10, 100, 1000));

TEST(GridIndexTest, ExplicitCellSizeWorks) {
  Rng rng(9);
  std::vector<GeoPoint> points(200);
  for (auto& p : points) {
    p = {rng.UniformRange(0.0, 20.0), rng.UniformRange(0.0, 20.0)};
  }
  Grid2dIndex coarse(points, 10.0);
  Grid2dIndex fine(points, 0.1);
  for (int q = 0; q < 100; ++q) {
    const GeoPoint query{rng.UniformRange(0.0, 20.0),
                         rng.UniformRange(0.0, 20.0)};
    EXPECT_EQ(coarse.Nearest(query), fine.Nearest(query));
  }
}

TEST(GridIndexTest, CoincidentPointsTieBreakToSmallestIndex) {
  std::vector<GeoPoint> points = {{5, 5}, {5, 5}, {5, 5}};
  Grid2dIndex index(points);
  EXPECT_EQ(index.Nearest({5, 5}), 0);
  EXPECT_EQ(index.Nearest({6, 6}), 0);
}

}  // namespace
}  // namespace actor
