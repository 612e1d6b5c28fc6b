#include "hotspot/hotspot_detector.h"

#include <cmath>
#include <limits>

#include "util/string_util.h"

namespace actor {

int32_t NearestHour(const std::vector<double>& hours, double hour,
                    double* distance) {
  int32_t best = -1;
  double best_dist = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < hours.size(); ++i) {
    const double d = CircularHourDistance(hour, hours[i]);
    if (d < best_dist) {
      best_dist = d;
      best = static_cast<int32_t>(i);
    }
  }
  if (distance != nullptr) *distance = best_dist;
  return best;
}

int32_t TemporalHotspots::AssignHour(double hour) const {
  return NearestHour(hours_, hour);
}

int32_t TemporalHotspots::Assign(double timestamp) const {
  return AssignHour(HourOfDay(timestamp));
}

Result<SpatialHotspots> DetectSpatialHotspots(
    const std::vector<GeoPoint>& locations, const MeanShiftOptions& options) {
  for (std::size_t i = 0; i < locations.size(); ++i) {
    if (!std::isfinite(locations[i].x) || !std::isfinite(locations[i].y)) {
      return Status::InvalidArgument(
          StrPrintf("record %zu has a non-finite location", i));
    }
  }
  ACTOR_ASSIGN_OR_RETURN(std::vector<GeoPoint> modes,
                         MeanShiftModes2d(locations, options));
  return SpatialHotspots(std::move(modes));
}

Result<TemporalHotspots> DetectTemporalHotspots(
    const std::vector<double>& timestamps, const MeanShiftOptions& options) {
  std::vector<double> hours;
  hours.reserve(timestamps.size());
  for (std::size_t i = 0; i < timestamps.size(); ++i) {
    if (!std::isfinite(timestamps[i])) {
      return Status::InvalidArgument(
          StrPrintf("record %zu has a non-finite timestamp", i));
    }
    hours.push_back(HourOfDay(timestamps[i]));
  }
  ACTOR_ASSIGN_OR_RETURN(std::vector<double> modes,
                         MeanShiftModes1dCircular(hours, 24.0, options));
  return TemporalHotspots(std::move(modes));
}

Result<Hotspots> DetectHotspots(const TokenizedCorpus& corpus,
                                const HotspotOptions& options) {
  std::vector<GeoPoint> locations;
  std::vector<double> timestamps;
  locations.reserve(corpus.size());
  timestamps.reserve(corpus.size());
  for (const auto& r : corpus.records()) {
    locations.push_back(r.location);
    timestamps.push_back(r.timestamp);
  }
  Hotspots out;
  ACTOR_ASSIGN_OR_RETURN(out.spatial,
                         DetectSpatialHotspots(locations, options.spatial));
  ACTOR_ASSIGN_OR_RETURN(out.temporal,
                         DetectTemporalHotspots(timestamps, options.temporal));
  return out;
}

}  // namespace actor
