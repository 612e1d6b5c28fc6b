#include "serve/query_engine.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <utility>

#include "util/vec_math.h"

namespace actor {

BatchQuery BatchQuery::Location(const GeoPoint& location,
                                VertexType result_type, int k) {
  BatchQuery q;
  q.kind = Kind::kLocation;
  q.location = location;
  q.result_type = result_type;
  q.k = k;
  return q;
}

BatchQuery BatchQuery::Hour(double hour, VertexType result_type, int k) {
  BatchQuery q;
  q.kind = Kind::kHour;
  q.hour = hour;
  q.result_type = result_type;
  q.k = k;
  return q;
}

BatchQuery BatchQuery::Keyword(std::string keyword, VertexType result_type,
                               int k) {
  BatchQuery q;
  q.kind = Kind::kKeyword;
  q.keyword = std::move(keyword);
  q.result_type = result_type;
  q.k = k;
  return q;
}

BatchQuery BatchQuery::Vector(const float* query, VertexType result_type,
                              int k, VertexId exclude) {
  BatchQuery q;
  q.kind = Kind::kVector;
  q.vector = query;
  q.result_type = result_type;
  q.k = k;
  q.exclude = exclude;
  return q;
}

QueryEngine::QueryEngine(std::shared_ptr<const ModelSnapshot> snapshot)
    : snapshot_(std::move(snapshot)) {}

Result<std::vector<Neighbor>> QueryEngine::QueryByVector(
    const float* query, VertexType result_type, int k,
    VertexId exclude) const {
  if (k <= 0) return Status::InvalidArgument("k must be positive");
  const ModelSnapshot& snap = *snapshot_;
  const ChunkedMatrix& center = snap.center();
  const std::size_t dim = static_cast<std::size_t>(center.dim());
  // One query against the whole type block: the query norm is fixed, so it
  // is computed once here instead of once per row inside Cosine(). The
  // per-row work is a single fused pass (dot + candidate norm).
  const float query_norm = Norm2(query, dim);
  std::vector<Neighbor> results;
  for (VertexId v : snap.VerticesOfType(result_type)) {
    if (v == exclude) continue;
    float dot = 0.0f;
    float norm2 = 0.0f;
    DotAndNorm2(query, center.row(v), dim, &dot, &norm2);
    const float row_norm = std::sqrt(norm2);
    Neighbor n;
    n.vertex = v;
    n.similarity = (query_norm == 0.0f || row_norm == 0.0f)
                       ? 0.0f
                       : dot / (query_norm * row_norm);
    results.push_back(std::move(n));
  }
  const std::size_t keep = std::min<std::size_t>(k, results.size());
  // Ties break toward the lower unit id, making the top-k *set* a pure
  // function of (snapshot, query, k) rather than of candidate scan order.
  std::partial_sort(results.begin(), results.begin() + keep, results.end(),
                    [](const Neighbor& a, const Neighbor& b) {
                      return a.similarity > b.similarity ||
                             (a.similarity == b.similarity &&
                              a.vertex < b.vertex);
                    });
  results.resize(keep);
  for (auto& n : results) {
    n.name = snap.vertex_name(n.vertex);
    n.type = snap.vertex_type(n.vertex);
  }
  return results;
}

std::vector<Result<std::vector<Neighbor>>> QueryEngine::QueryBatch(
    const std::vector<BatchQuery>& queries) const {
  const ModelSnapshot& snap = *snapshot_;
  const ChunkedMatrix& center = snap.center();
  const std::size_t dim = static_cast<std::size_t>(center.dim());
  const std::size_t b = queries.size();

  // Per-request resolution, running each sequential entry point's checks in
  // the same order so error statuses (and their precedence over the k
  // check) match QueryBy*() exactly.
  struct Resolved {
    const float* query = nullptr;
    float query_norm = 0.0f;
    VertexId exclude = kInvalidVertex;
  };
  std::vector<Resolved> resolved(b);
  std::vector<Status> errors(b);  // OK marks the request scorable
  std::vector<std::vector<Neighbor>> candidates(b);
  std::array<std::vector<std::size_t>, kNumVertexTypes> groups;
  for (std::size_t i = 0; i < b; ++i) {
    const BatchQuery& q = queries[i];
    VertexId v = kInvalidVertex;
    switch (q.kind) {
      case BatchQuery::Kind::kLocation:
        v = snap.SpatialVertex(q.location);
        if (v == kInvalidVertex) {
          errors[i] = Status::NotFound("no spatial hotspots available");
          continue;
        }
        break;
      case BatchQuery::Kind::kHour:
        v = snap.TemporalVertexAtHour(q.hour);
        if (v == kInvalidVertex) {
          errors[i] = Status::NotFound("no temporal hotspots available");
          continue;
        }
        break;
      case BatchQuery::Kind::kKeyword: {
        const int32_t w = snap.LookupWord(q.keyword);
        if (w < 0) {
          errors[i] =
              Status::NotFound("keyword not in vocabulary: " + q.keyword);
          continue;
        }
        v = snap.WordVertex(w);
        if (v == kInvalidVertex) {
          errors[i] = Status::NotFound(
              "keyword not present in the activity graph: " + q.keyword);
          continue;
        }
        break;
      }
      case BatchQuery::Kind::kVector:
        break;
    }
    if (q.k <= 0) {
      errors[i] = Status::InvalidArgument("k must be positive");
      continue;
    }
    Resolved& r = resolved[i];
    r.query = v == kInvalidVertex ? q.vector : center.row(v);
    r.exclude = v == kInvalidVertex ? q.exclude : v;
    r.query_norm = Norm2(r.query, dim);
    groups[static_cast<std::size_t>(q.result_type)].push_back(i);
  }

  // One sweep per populated type block: each candidate row streams through
  // the blocked kernel once for the whole group. Computing a dot the
  // sequential path would skip (a row excluded by one group member) is
  // harmless — the value is simply not pushed for that member.
  std::vector<const float*> qptrs;
  std::vector<float> dots;
  for (int t = 0; t < kNumVertexTypes; ++t) {
    const std::vector<std::size_t>& group =
        groups[static_cast<std::size_t>(t)];
    if (group.empty()) continue;
    const std::size_t gb = group.size();
    qptrs.resize(gb);
    dots.resize(gb);
    for (std::size_t jj = 0; jj < gb; ++jj) {
      qptrs[jj] = resolved[group[jj]].query;
    }
    for (VertexId v : snap.VerticesOfType(static_cast<VertexType>(t))) {
      float norm2 = 0.0f;
      DotAndNorm2Batch(qptrs.data(), gb, center.row(v), dim, dots.data(),
                       &norm2);
      const float row_norm = std::sqrt(norm2);
      for (std::size_t jj = 0; jj < gb; ++jj) {
        const Resolved& r = resolved[group[jj]];
        if (v == r.exclude) continue;
        Neighbor n;
        n.vertex = v;
        n.similarity = (r.query_norm == 0.0f || row_norm == 0.0f)
                           ? 0.0f
                           : dots[jj] / (r.query_norm * row_norm);
        candidates[group[jj]].push_back(std::move(n));
      }
    }
  }

  // Per-request top-k selection, identical to the sequential tail: same
  // candidate order in, same comparator, same truncation.
  std::vector<Result<std::vector<Neighbor>>> out;
  out.reserve(b);
  for (std::size_t i = 0; i < b; ++i) {
    if (!errors[i].ok()) {
      out.push_back(errors[i]);
      continue;
    }
    std::vector<Neighbor>& results = candidates[i];
    const std::size_t keep =
        std::min<std::size_t>(queries[i].k, results.size());
    std::partial_sort(results.begin(), results.begin() + keep, results.end(),
                      [](const Neighbor& a, const Neighbor& c) {
                        return a.similarity > c.similarity ||
                               (a.similarity == c.similarity &&
                                a.vertex < c.vertex);
                      });
    results.resize(keep);
    for (auto& n : results) {
      n.name = snap.vertex_name(n.vertex);
      n.type = snap.vertex_type(n.vertex);
    }
    out.push_back(std::move(results));
  }
  return out;
}

Result<std::vector<Neighbor>> QueryEngine::QueryByVertex(
    VertexId v, VertexType result_type, int k) const {
  return QueryByVector(snapshot_->center().row(v), result_type, k, v);
}

Result<std::vector<Neighbor>> QueryEngine::QueryByLocation(
    const GeoPoint& location, VertexType result_type, int k) const {
  const VertexId v = snapshot_->SpatialVertex(location);
  if (v == kInvalidVertex) {
    return Status::NotFound("no spatial hotspots available");
  }
  return QueryByVertex(v, result_type, k);
}

Result<std::vector<Neighbor>> QueryEngine::QueryByHour(
    double hour, VertexType result_type, int k) const {
  const VertexId v = snapshot_->TemporalVertexAtHour(hour);
  if (v == kInvalidVertex) {
    return Status::NotFound("no temporal hotspots available");
  }
  return QueryByVertex(v, result_type, k);
}

Result<std::vector<Neighbor>> QueryEngine::QueryByKeyword(
    const std::string& keyword, VertexType result_type, int k) const {
  const int32_t w = snapshot_->LookupWord(keyword);
  if (w < 0) return Status::NotFound("keyword not in vocabulary: " + keyword);
  const VertexId v = snapshot_->WordVertex(w);
  if (v == kInvalidVertex) {
    return Status::NotFound("keyword not present in the activity graph: " +
                            keyword);
  }
  return QueryByVertex(v, result_type, k);
}

}  // namespace actor
