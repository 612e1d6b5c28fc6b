#include "serve/model_snapshot.h"

#include <utility>

namespace actor {

OnlineCatalog::Nearest OnlineCatalog::NearestSpatial(
    const GeoPoint& location) const {
  Nearest best;
  for (std::size_t i = 0; i < spatial_centers.size(); ++i) {
    const double d = Distance(location, spatial_centers[i]);
    if (d < best.distance) {
      best.distance = d;
      best.unit = spatial_units[i];
    }
  }
  return best;
}

OnlineCatalog::Nearest OnlineCatalog::NearestTemporal(double hour) const {
  Nearest best;
  const int32_t i = NearestHour(temporal_hours, hour, &best.distance);
  if (i >= 0) best.unit = temporal_units[static_cast<std::size_t>(i)];
  return best;
}

VertexId OnlineCatalog::WordUnit(int32_t word_id) const {
  const auto it = word_units.find(word_id);
  return it == word_units.end() ? kInvalidVertex : it->second;
}

std::shared_ptr<const ModelSnapshot::CatalogState>
ModelSnapshot::MakeCatalogState(OnlineCatalog catalog) {
  auto state = std::make_shared<CatalogState>();
  state->catalog = std::move(catalog);
  for (std::size_t v = 0; v < state->catalog.types.size(); ++v) {
    state->of_type[static_cast<int>(state->catalog.types[v])].push_back(
        static_cast<VertexId>(v));
  }
  return state;
}

std::shared_ptr<const ModelSnapshot> ModelSnapshot::FromBatch(
    const EmbeddingMatrix& center, std::shared_ptr<const BuiltGraphs> graphs,
    std::shared_ptr<const Hotspots> hotspots,
    std::shared_ptr<const Vocabulary> vocab, uint64_t version) {
  auto snap = std::shared_ptr<ModelSnapshot>(new ModelSnapshot());
  snap->version_ = version;
  snap->center_ = ChunkedMatrix::FullCopy(center);
  snap->graphs_ = std::move(graphs);
  snap->hotspots_ = std::move(hotspots);
  snap->vocab_ = std::move(vocab);
  return snap;
}

std::shared_ptr<const ModelSnapshot> ModelSnapshot::FromOnline(
    ChunkedMatrix center, OnlineCatalog catalog, uint64_t version) {
  auto snap = std::shared_ptr<ModelSnapshot>(new ModelSnapshot());
  snap->version_ = version;
  snap->center_ = std::move(center);
  snap->online_ = MakeCatalogState(std::move(catalog));
  return snap;
}

std::shared_ptr<const ModelSnapshot> ModelSnapshot::WithCenter(
    ChunkedMatrix center, uint64_t version) const {
  ACTOR_DCHECK(online_ != nullptr) << "WithCenter needs an online snapshot";
  ACTOR_DCHECK(num_units() == center.rows())
      << "catalogue sharing requires an unchanged unit set (" << num_units()
      << " vs " << center.rows() << " rows)";
  auto snap = std::shared_ptr<ModelSnapshot>(new ModelSnapshot());
  snap->version_ = version;
  snap->center_ = std::move(center);
  snap->online_ = online_;  // unit set unchanged — share outright
  return snap;
}

const std::vector<VertexId>& ModelSnapshot::VerticesOfType(
    VertexType type) const {
  if (graphs_ != nullptr) return graphs_->activity.VerticesOfType(type);
  return online_->of_type[static_cast<int>(type)];
}

VertexType ModelSnapshot::vertex_type(VertexId v) const {
  if (graphs_ != nullptr) return graphs_->activity.vertex_type(v);
  return online_->catalog.types[static_cast<std::size_t>(v)];
}

const std::string& ModelSnapshot::vertex_name(VertexId v) const {
  if (graphs_ != nullptr) return graphs_->activity.vertex_name(v);
  return online_->catalog.names[static_cast<std::size_t>(v)];
}

VertexId ModelSnapshot::SpatialVertex(const GeoPoint& location) const {
  if (graphs_ != nullptr) {
    const int32_t h = hotspots_->spatial.Assign(location);
    return h < 0 ? kInvalidVertex : graphs_->spatial_vertices[h];
  }
  return online_->catalog.NearestSpatial(location).unit;
}

VertexId ModelSnapshot::TemporalVertexAt(double timestamp) const {
  if (graphs_ != nullptr) {
    const int32_t h = hotspots_->temporal.Assign(timestamp);
    return h < 0 ? kInvalidVertex : graphs_->temporal_vertices[h];
  }
  return TemporalVertexAtHour(HourOfDay(timestamp));
}

VertexId ModelSnapshot::TemporalVertexAtHour(double hour) const {
  if (graphs_ != nullptr) {
    const int32_t h = hotspots_->temporal.AssignHour(hour);
    return h < 0 ? kInvalidVertex : graphs_->temporal_vertices[h];
  }
  return online_->catalog.NearestTemporal(hour).unit;
}

VertexId ModelSnapshot::WordVertex(int32_t word_id) const {
  if (graphs_ != nullptr) {
    if (word_id < 0 ||
        static_cast<std::size_t>(word_id) >= graphs_->word_vertices.size()) {
      return kInvalidVertex;
    }
    return graphs_->word_vertices[static_cast<std::size_t>(word_id)];
  }
  return online_->catalog.WordUnit(word_id);
}

int32_t ModelSnapshot::LookupWord(const std::string& keyword) const {
  return vocab_ == nullptr ? -1 : vocab_->Lookup(keyword);
}

}  // namespace actor
