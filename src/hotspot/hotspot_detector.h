#ifndef ACTOR_HOTSPOT_HOTSPOT_DETECTOR_H_
#define ACTOR_HOTSPOT_HOTSPOT_DETECTOR_H_

#include <cstdint>
#include <vector>

#include "data/corpus.h"
#include "data/record.h"
#include "hotspot/grid_index.h"
#include "hotspot/mean_shift.h"
#include "util/result.h"

namespace actor {

/// Detected spatial hotspots (paper Def. 5): the local maxima of the
/// location KDE, found by mean shift. A new point is assigned to the
/// nearest hotspot (paper §4.3 last paragraph).
class SpatialHotspots {
 public:
  explicit SpatialHotspots(std::vector<GeoPoint> centers)
      : centers_(std::move(centers)), index_(centers_) {}

  std::size_t size() const { return centers_.size(); }
  const GeoPoint& center(int32_t id) const { return centers_[id]; }
  const std::vector<GeoPoint>& centers() const { return centers_; }

  /// Id of the nearest hotspot (grid-indexed); -1 if no hotspots exist.
  int32_t Assign(const GeoPoint& p) const { return index_.Nearest(p); }

 private:
  std::vector<GeoPoint> centers_;
  Grid2dIndex index_;
};

/// Index of the hour in `hours` circularly nearest to `hour` (ties keep the
/// lower index); -1 when `hours` is empty. `distance`, when non-null,
/// receives that circular distance in hours (+inf when empty). Batch
/// hotspots and the streaming unit catalogue both resolve through this one
/// scan.
int32_t NearestHour(const std::vector<double>& hours, double hour,
                    double* distance = nullptr);

/// Detected temporal hotspots: local maxima of the hour-of-day KDE on the
/// 24-hour circle.
class TemporalHotspots {
 public:
  explicit TemporalHotspots(std::vector<double> hours)
      : hours_(std::move(hours)) {}

  std::size_t size() const { return hours_.size(); }
  double hour(int32_t id) const { return hours_[id]; }
  const std::vector<double>& hours() const { return hours_; }

  /// Id of the circularly-nearest hotspot for a raw timestamp (seconds);
  /// -1 if no hotspots exist.
  int32_t Assign(double timestamp) const;

  /// Id of the circularly-nearest hotspot for an hour-of-day value.
  int32_t AssignHour(double hour) const;

 private:
  std::vector<double> hours_;
};

/// Tuning knobs for hotspot detection on both modalities.
struct HotspotOptions {
  MeanShiftOptions spatial{/*bandwidth=*/1.0, /*merge_radius=*/0.5};
  MeanShiftOptions temporal{/*bandwidth=*/0.75, /*merge_radius=*/0.5};
};

/// Runs spatial mean shift over record locations. InvalidArgument, naming
/// the record, when a location is not finite.
Result<SpatialHotspots> DetectSpatialHotspots(
    const std::vector<GeoPoint>& locations, const MeanShiftOptions& options);

/// Runs circular temporal mean shift over record hours-of-day.
/// InvalidArgument, naming the record, when a timestamp is not finite.
Result<TemporalHotspots> DetectTemporalHotspots(
    const std::vector<double>& timestamps, const MeanShiftOptions& options);

/// Convenience bundle: both hotspot sets for a corpus.
struct Hotspots {
  SpatialHotspots spatial{{}};
  TemporalHotspots temporal{{}};
};

/// Detects both hotspot families from a tokenized corpus (Algorithm 1,
/// line 1).
Result<Hotspots> DetectHotspots(const TokenizedCorpus& corpus,
                                const HotspotOptions& options = {});

}  // namespace actor

#endif  // ACTOR_HOTSPOT_HOTSPOT_DETECTOR_H_
