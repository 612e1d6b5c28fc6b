#include "graph/graph_builder.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/string_util.h"

namespace actor {
namespace {

/// Adds weight to {u, v} unless they coincide or either is invalid.
Status AccumulateIfDistinct(Heterograph* g, VertexId u, VertexId v,
                            double w = 1.0) {
  if (u == kInvalidVertex || v == kInvalidVertex || u == v) {
    return Status::OK();
  }
  return g->AccumulateEdge(u, v, w);
}

}  // namespace

Result<BuiltGraphs> BuildGraphs(const TokenizedCorpus& corpus,
                                const Hotspots& hotspots,
                                const GraphBuildOptions& options) {
  if (corpus.empty()) {
    return Status::InvalidArgument("cannot build graphs from empty corpus");
  }
  if (hotspots.spatial.size() == 0 || hotspots.temporal.size() == 0) {
    return Status::InvalidArgument(
        "hotspot detection produced no spatial or temporal hotspots");
  }
  // A non-finite timestamp or location resolves to no hotspot (-1), which
  // would index the hotspot vertex tables out of bounds.
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const TokenizedRecord& rec = corpus.record(i);
    if (!std::isfinite(rec.timestamp) || !std::isfinite(rec.location.x) ||
        !std::isfinite(rec.location.y)) {
      return Status::InvalidArgument(StrPrintf(
          "record %zu has a non-finite timestamp or location", i));
    }
  }
  BuiltGraphs out;

  // --- Vertices ----------------------------------------------------------
  out.temporal_vertices.reserve(hotspots.temporal.size());
  for (std::size_t i = 0; i < hotspots.temporal.size(); ++i) {
    const double h = hotspots.temporal.hour(static_cast<int32_t>(i));
    const int hh = static_cast<int>(h);
    const int mm = static_cast<int>((h - hh) * 60.0);
    out.temporal_vertices.push_back(out.activity.AddVertex(
        VertexType::kTime, StrPrintf("T%zu(%02d:%02d)", i, hh, mm)));
  }
  out.spatial_vertices.reserve(hotspots.spatial.size());
  for (std::size_t i = 0; i < hotspots.spatial.size(); ++i) {
    const GeoPoint& c = hotspots.spatial.center(static_cast<int32_t>(i));
    out.spatial_vertices.push_back(out.activity.AddVertex(
        VertexType::kLocation, StrPrintf("L%zu(%.2f,%.2f)", i, c.x, c.y)));
  }
  out.word_vertices.assign(corpus.vocab().size(), kInvalidVertex);
  for (int32_t w = 0; w < corpus.vocab().size(); ++w) {
    out.word_vertices[w] =
        out.activity.AddVertex(VertexType::kWord, corpus.vocab().word(w));
  }

  auto activity_user = [&](int64_t user_id) -> VertexId {
    auto it = out.activity_users.find(user_id);
    if (it != out.activity_users.end()) return it->second;
    const VertexId v = out.activity.AddVertex(
        VertexType::kUser, StrPrintf("user%lld", static_cast<long long>(user_id)));
    out.activity_users.emplace(user_id, v);
    return v;
  };
  auto interaction_user = [&](int64_t user_id) -> VertexId {
    auto it = out.interaction_users.find(user_id);
    if (it != out.interaction_users.end()) return it->second;
    const VertexId v = out.user_graph.AddVertex(
        VertexType::kUser, StrPrintf("user%lld", static_cast<long long>(user_id)));
    out.interaction_users.emplace(user_id, v);
    return v;
  };

  // --- Edges --------------------------------------------------------------
  out.record_units.reserve(corpus.size());
  for (const auto& rec : corpus.records()) {
    RecordUnits units;
    units.time_unit =
        out.temporal_vertices[hotspots.temporal.Assign(rec.timestamp)];
    units.location_unit =
        out.spatial_vertices[hotspots.spatial.Assign(rec.location)];
    for (int32_t w : rec.word_ids) {
      units.word_units.push_back(out.word_vertices[w]);
    }
    units.author = activity_user(rec.user_id);
    for (int64_t m : rec.mentioned_user_ids) {
      units.mentioned.push_back(activity_user(m));
    }

    // Intra-record co-occurrence edges: TL, LW, WT (Def. 1).
    ACTOR_RETURN_NOT_OK(AccumulateIfDistinct(&out.activity, units.time_unit,
                                             units.location_unit));
    for (VertexId w : units.word_units) {
      ACTOR_RETURN_NOT_OK(
          AccumulateIfDistinct(&out.activity, units.location_unit, w));
      ACTOR_RETURN_NOT_OK(
          AccumulateIfDistinct(&out.activity, w, units.time_unit));
    }
    // WW pairs.
    if (options.include_word_pair_edges) {
      const std::size_t n = std::min<std::size_t>(
          units.word_units.size(),
          static_cast<std::size_t>(options.max_words_for_pairs));
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i + 1; j < n; ++j) {
          ACTOR_RETURN_NOT_OK(AccumulateIfDistinct(
              &out.activity, units.word_units[i], units.word_units[j]));
        }
      }
    }

    // User -> unit edges (the substrate of M_inter = {UT, UW, UL}).
    auto add_user_edges = [&](VertexId user_vertex) -> Status {
      ACTOR_RETURN_NOT_OK(
          AccumulateIfDistinct(&out.activity, user_vertex, units.time_unit));
      ACTOR_RETURN_NOT_OK(AccumulateIfDistinct(&out.activity, user_vertex,
                                               units.location_unit));
      for (VertexId w : units.word_units) {
        ACTOR_RETURN_NOT_OK(AccumulateIfDistinct(&out.activity, user_vertex, w));
      }
      return Status::OK();
    };
    if (options.include_author_edges) {
      ACTOR_RETURN_NOT_OK(add_user_edges(units.author));
    }
    if (options.include_mention_edges) {
      for (VertexId m : units.mentioned) {
        ACTOR_RETURN_NOT_OK(add_user_edges(m));
      }
    }

    // User interaction graph: author mentioned each user once per record
    // ("the edge weight is set to be the mentioned counts", Def. 2).
    const VertexId author_iv = interaction_user(rec.user_id);
    for (int64_t m : rec.mentioned_user_ids) {
      const VertexId target_iv = interaction_user(m);
      ACTOR_RETURN_NOT_OK(
          AccumulateIfDistinct(&out.user_graph, author_iv, target_iv));
    }

    out.record_units.push_back(std::move(units));
  }

  ACTOR_RETURN_NOT_OK(out.activity.Finalize());
  ACTOR_RETURN_NOT_OK(out.user_graph.Finalize());

  // Every record unit must be a live vertex of the expected type in the
  // finalized activity graph — the record-level trainer indexes embedding
  // rows with these ids without further checks.
  if constexpr (kDebugChecksEnabled) {
    const int32_t nv = out.activity.num_vertices();
    for (const RecordUnits& units : out.record_units) {
      ACTOR_DCHECK(units.time_unit >= 0 && units.time_unit < nv);
      ACTOR_DCHECK(out.activity.vertex_type(units.time_unit) ==
                   VertexType::kTime);
      ACTOR_DCHECK(units.location_unit >= 0 && units.location_unit < nv);
      ACTOR_DCHECK(out.activity.vertex_type(units.location_unit) ==
                   VertexType::kLocation);
      for (VertexId w : units.word_units) {
        ACTOR_DCHECK(w >= 0 && w < nv);
        ACTOR_DCHECK(out.activity.vertex_type(w) == VertexType::kWord);
      }
      ACTOR_DCHECK(units.author >= 0 && units.author < nv);
      ACTOR_DCHECK(out.activity.vertex_type(units.author) ==
                   VertexType::kUser);
    }
  }
  return out;
}

}  // namespace actor
