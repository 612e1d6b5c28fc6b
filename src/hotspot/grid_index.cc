#include "hotspot/grid_index.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace actor {

Grid2dIndex::Grid2dIndex(std::vector<GeoPoint> points, double cell_size)
    : points_(std::move(points)) {
  if (points_.empty()) return;
  if (cell_size > 0.0) {
    cell_ = cell_size;
  } else {
    double min_x = points_[0].x, max_x = points_[0].x;
    double min_y = points_[0].y, max_y = points_[0].y;
    for (const auto& p : points_) {
      min_x = std::min(min_x, p.x);
      max_x = std::max(max_x, p.x);
      min_y = std::min(min_y, p.y);
      max_y = std::max(max_y, p.y);
    }
    const double span = std::max(max_x - min_x, max_y - min_y);
    // A degenerate span (all points coincident) must not create a
    // micro-cell grid: ring expansion from a distant query would walk an
    // astronomical number of empty rings.
    cell_ = span > 0.0
                ? span / std::sqrt(static_cast<double>(points_.size()) + 1.0)
                : 1.0;
  }
  min_ix_ = max_ix_ = CellIndex(points_[0].x);
  min_iy_ = max_iy_ = CellIndex(points_[0].y);
  for (std::size_t i = 0; i < points_.size(); ++i) {
    const int ix = CellIndex(points_[i].x);
    const int iy = CellIndex(points_[i].y);
    min_ix_ = std::min(min_ix_, ix);
    max_ix_ = std::max(max_ix_, ix);
    min_iy_ = std::min(min_iy_, iy);
    max_iy_ = std::max(max_iy_, iy);
    cells_[CellKey(ix, iy)].push_back(static_cast<int32_t>(i));
  }
}

int Grid2dIndex::CellIndex(double v) const {
  // Clamp so extreme queries relative to the cell size cannot overflow
  // the int index (they just land in the outermost ring).
  const double idx =
      std::clamp(std::floor(v / cell_), -1.0e9, 1.0e9);
  return static_cast<int>(idx);
}

int32_t Grid2dIndex::Nearest(const GeoPoint& query) const {
  if (points_.empty() || !std::isfinite(query.x) || !std::isfinite(query.y)) {
    return -1;
  }
  const int cx = CellIndex(query.x);
  const int cy = CellIndex(query.y);
  int32_t best = -1;
  double best_dist = std::numeric_limits<double>::infinity();

  auto visit_cell = [&](int ix, int iy) {
    auto it = cells_.find(CellKey(ix, iy));
    if (it == cells_.end()) return;
    for (int32_t i : it->second) {
      const double d = Distance(query, points_[i]);
      if (d < best_dist || (d == best_dist && i < best)) {
        best_dist = d;
        best = i;
      }
    }
  };

  // Expand rings until the closest possible point in the next ring cannot
  // beat the best found. Ring r's nearest possible distance is
  // (r - 1) * cell (the query can sit anywhere inside its own cell). The
  // outer bound covers every occupied cell from any query position.
  const int max_ring =
      std::max({std::abs(cx - min_ix_), std::abs(cx - max_ix_),
                std::abs(cy - min_iy_), std::abs(cy - max_iy_)}) +
      1;
  // Rings that cannot touch the occupied bounding box are empty; jump
  // straight to the first ring that can (distant queries would otherwise
  // walk a long run of empty rings).
  const int jump_x = std::max({0, min_ix_ - cx, cx - max_ix_});
  const int jump_y = std::max({0, min_iy_ - cy, cy - max_iy_});
  const int first_ring = std::max(jump_x, jump_y);
  // Each ring's sides are clipped to the occupied box: the cells outside
  // it are empty, and ties break by point index, so the result is the
  // same while the work per ring is bounded by the box, not the ring.
  // 64-bit ring coordinates: cx +- r can exceed int near the clamp.
  const auto lo_x = static_cast<int64_t>(min_ix_);
  const auto hi_x = static_cast<int64_t>(max_ix_);
  const auto lo_y = static_cast<int64_t>(min_iy_);
  const auto hi_y = static_cast<int64_t>(max_iy_);
  auto visit_row = [&](int64_t iy, int64_t x0, int64_t x1) {
    if (iy < lo_y || iy > hi_y) return;
    for (int64_t ix = std::max(x0, lo_x); ix <= std::min(x1, hi_x); ++ix) {
      visit_cell(static_cast<int>(ix), static_cast<int>(iy));
    }
  };
  auto visit_column = [&](int64_t ix, int64_t y0, int64_t y1) {
    if (ix < lo_x || ix > hi_x) return;
    for (int64_t iy = std::max(y0, lo_y); iy <= std::min(y1, hi_y); ++iy) {
      visit_cell(static_cast<int>(ix), static_cast<int>(iy));
    }
  };
  for (int64_t r = first_ring; r <= max_ring; ++r) {
    if (best >= 0 && static_cast<double>(r - 1) * cell_ > best_dist) {
      break;
    }
    if (r == 0) {
      visit_cell(cx, cy);
      continue;
    }
    visit_row(cy - r, cx - r, cx + r);
    visit_row(cy + r, cx - r, cx + r);
    visit_column(cx - r, cy - r + 1, cy + r - 1);
    visit_column(cx + r, cy - r + 1, cy + r - 1);
  }
  return best;
}

}  // namespace actor
