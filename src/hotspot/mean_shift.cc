#include "hotspot/mean_shift.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/logging.h"
#include "util/thread_pool.h"

namespace actor {
namespace {

Status ValidateOptions(const MeanShiftOptions& options) {
  if (options.bandwidth <= 0.0) {
    return Status::InvalidArgument("mean-shift bandwidth must be positive");
  }
  if (options.merge_radius < 0.0) {
    return Status::InvalidArgument("merge radius must be non-negative");
  }
  if (options.max_iterations <= 0) {
    return Status::InvalidArgument("max_iterations must be positive");
  }
  return Status::OK();
}

/// Uniform grid over 2-D points with cell size == bandwidth, so a radius-h
/// window is covered by the 3x3 cell neighbourhood.
class PointGrid {
 public:
  PointGrid(const std::vector<GeoPoint>& points, double cell)
      : points_(points), cell_(cell) {
    // cell == bandwidth; a zero/NaN cell would fold every point into one
    // bucket (or scatter them across int-overflowed keys) without any
    // visible error.
    ACTOR_DCHECK(cell > 0.0) << "grid cell size " << cell;
    ACTOR_DCHECK_FINITE(cell);
    cells_.reserve(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
      cells_[Key(points[i])].push_back(i);
    }
  }

  /// Calls fn(point) for every point within `radius` of `center`.
  template <typename Fn>
  void ForEachInRadius(const GeoPoint& center, double radius, Fn&& fn) const {
    const int span = static_cast<int>(std::ceil(radius / cell_));
    const int cx = CellIndex(center.x);
    const int cy = CellIndex(center.y);
    const double r2 = radius * radius;
    for (int ix = cx - span; ix <= cx + span; ++ix) {
      for (int iy = cy - span; iy <= cy + span; ++iy) {
        auto it = cells_.find(Pack(ix, iy));
        if (it == cells_.end()) continue;
        for (std::size_t i : it->second) {
          const double dx = points_[i].x - center.x;
          const double dy = points_[i].y - center.y;
          if (dx * dx + dy * dy <= r2) fn(points_[i]);
        }
      }
    }
  }

 private:
  int CellIndex(double v) const {
    return static_cast<int>(std::floor(v / cell_));
  }
  int64_t Pack(int ix, int iy) const {
    return (static_cast<int64_t>(ix) << 32) ^
           (static_cast<int64_t>(iy) & 0xffffffffLL);
  }
  int64_t Key(const GeoPoint& p) const {
    return Pack(CellIndex(p.x), CellIndex(p.y));
  }

  const std::vector<GeoPoint>& points_;
  double cell_;
  std::unordered_map<int64_t, std::vector<std::size_t>> cells_;
};

}  // namespace

Result<std::vector<GeoPoint>> MeanShiftModes2d(
    const std::vector<GeoPoint>& points, const MeanShiftOptions& options) {
  ACTOR_RETURN_NOT_OK(ValidateOptions(options));
  if (points.empty()) {
    return Status::InvalidArgument("mean shift requires at least one point");
  }
  const double h = options.bandwidth;
  PointGrid grid(points, h);

  // Deduplicate starting points onto a coarse seed grid: every occupied
  // seed cell contributes its centroid as one trajectory start. This keeps
  // the algorithm equivalent to starting from every data point (each point
  // converges to the mode its seed cell converges to) at near-linear cost.
  const double seed_cell =
      options.seed_grid_cell > 0.0 ? options.seed_grid_cell : h / 2.0;
  struct SeedAccum {
    double sx = 0.0, sy = 0.0;
    std::size_t n = 0;
  };
  std::unordered_map<int64_t, SeedAccum> seed_cells;
  for (const auto& p : points) {
    const int ix = static_cast<int>(std::floor(p.x / seed_cell));
    const int iy = static_cast<int>(std::floor(p.y / seed_cell));
    auto& acc = seed_cells[(static_cast<int64_t>(ix) << 32) ^
                           (static_cast<int64_t>(iy) & 0xffffffffLL)];
    acc.sx += p.x;
    acc.sy += p.y;
    ++acc.n;
  }

  struct Mode {
    GeoPoint center;
    std::size_t support;
  };
  auto window_count_at = [&](const GeoPoint& p) {
    std::size_t m = 0;
    grid.ForEachInRadius(p, h, [&](const GeoPoint&) { ++m; });
    return m;
  };

  // Materialize the seeds in a deterministic order so both the serial and
  // the multi-threaded paths merge identically.
  std::vector<std::pair<int64_t, SeedAccum>> seeds(seed_cells.begin(),
                                                   seed_cells.end());
  std::sort(seeds.begin(), seeds.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  // One independent trajectory per seed. Flat-window mean shift can stall
  // on saddle/outlier fixed points of the shadow (Epanechnikov) density;
  // after convergence we probe the 8-neighborhood by window support and
  // restart uphill if any probe is clearly denser.
  auto run_trajectory = [&](const SeedAccum& acc) -> Mode {
    GeoPoint y{acc.sx / acc.n, acc.sy / acc.n};
    std::size_t window_count = 0;
    for (int restart = 0; restart < 4; ++restart) {
      for (int iter = 0; iter < options.max_iterations; ++iter) {
        double sx = 0.0, sy = 0.0;
        std::size_t m = 0;
        grid.ForEachInRadius(y, h, [&](const GeoPoint& p) {
          sx += p.x;
          sy += p.y;
          ++m;
        });
        if (m == 0) break;  // isolated seed; keep current position
        const GeoPoint next{sx / m, sy / m};
        const double shift = Distance(next, y);
        y = next;
        window_count = m;
        if (shift < options.convergence_tol) break;
      }
      if (window_count == 0) break;
      // Uphill probe.
      GeoPoint best = y;
      std::size_t best_count = window_count;
      const double step = h / 2.0;
      for (int dx = -1; dx <= 1; ++dx) {
        for (int dy = -1; dy <= 1; ++dy) {
          if (dx == 0 && dy == 0) continue;
          const GeoPoint probe{y.x + dx * step, y.y + dy * step};
          const std::size_t c = window_count_at(probe);
          if (c > best_count) {
            best_count = c;
            best = probe;
          }
        }
      }
      if (best_count <= window_count) break;  // genuine mode
      y = best;
    }
    return {y, window_count};
  };

  std::vector<Mode> trajectories(seeds.size());
  if (options.num_threads > 1) {
    ThreadPool pool(options.num_threads);
    pool.ParallelFor(0, seeds.size(), [&](std::size_t i) {
      trajectories[i] = run_trajectory(seeds[i].second);
    });
  } else {
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      trajectories[i] = run_trajectory(seeds[i].second);
    }
  }

  // Sequential merge in seed order (order-dependent, hence not parallel).
  std::vector<Mode> modes;
  for (const Mode& t : trajectories) {
    if (t.support == 0) continue;
    bool merged = false;
    for (auto& mode : modes) {
      if (Distance(mode.center, t.center) <= options.merge_radius) {
        if (t.support > mode.support) {
          mode.center = t.center;
          mode.support = t.support;
        }
        merged = true;
        break;
      }
    }
    if (!merged) modes.push_back(t);
  }

  std::sort(modes.begin(), modes.end(),
            [](const Mode& a, const Mode& b) { return a.support > b.support; });
  std::vector<GeoPoint> out;
  out.reserve(modes.size());
  for (const auto& m : modes) out.push_back(m.center);
  return out;
}

Result<std::vector<double>> MeanShiftModes1dCircular(
    const std::vector<double>& values, double period,
    const MeanShiftOptions& options) {
  ACTOR_RETURN_NOT_OK(ValidateOptions(options));
  if (values.empty()) {
    return Status::InvalidArgument("mean shift requires at least one point");
  }
  if (period <= 0.0) {
    return Status::InvalidArgument("period must be positive");
  }
  const double h = options.bandwidth;
  const double two_pi = 2.0 * std::numbers::pi;

  auto wrap = [&](double v) {
    v = std::fmod(v, period);
    if (v < 0.0) v += period;
    // fmod can return exactly `period` when v is a tiny negative number
    // (v + period rounds up); clamp so downstream binning stays in range.
    if (v >= period) v = 0.0;
    ACTOR_DCHECK(v >= 0.0 && v < period)
        << "circular wrap of " << v << " escaped [0, " << period << ")";
    return v;
  };
  // Every argument is already wrapped to [0, period), so |a - b| < period
  // needs no reduction modulo the period.
  auto circ_dist = [&](double a, double b) {
    double d = std::fabs(a - b);
    d = d > period / 2.0 ? period - d : d;
    ACTOR_DCHECK(d >= 0.0 && d <= period / 2.0)
        << "circular distance " << d << " for period " << period;
    return d;
  };

  // Seeds from occupied histogram bins.
  const double seed_cell =
      options.seed_grid_cell > 0.0 ? options.seed_grid_cell : h / 2.0;
  const int n_bins =
      std::max(1, static_cast<int>(std::ceil(period / seed_cell)));
  std::vector<double> bin_sum(n_bins, 0.0);
  std::vector<std::size_t> bin_count(n_bins, 0);
  std::vector<double> wrapped;
  wrapped.reserve(values.size());
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
      // Circular mean of window members via the angular mean.
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
      double next = wrap(std::atan2(sin_sum, cos_sum) / two_pi * period);
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
  out.reserve(modes.size());
  for (const auto& m : modes) out.push_back(m.center);
  return out;
}

}  // namespace actor
