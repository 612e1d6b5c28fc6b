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

std::vector<Result<std::vector<Neighbor>>> QueryEngine::QueryBatch(
    const std::vector<BatchQuery>& queries) const {
  const ModelSnapshot& snap = *snapshot_;
  const ChunkedMatrix& center = snap.center();
  const std::size_t dim = static_cast<std::size_t>(center.dim());
  const std::size_t b = queries.size();

  // Per-request resolution. Error precedence: a non-finite location or
  // hour, then an unresolvable modality value, then a non-finite query
  // norm, then the k check. A rejected request leaves the others as they
  // would be alone.
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
        if (!std::isfinite(q.location.x) || !std::isfinite(q.location.y)) {
          errors[i] = Status::InvalidArgument("location must be finite");
          continue;
        }
        v = snap.SpatialVertex(q.location);
        if (v == kInvalidVertex) {
          errors[i] = Status::NotFound("no spatial hotspots available");
          continue;
        }
        break;
      case BatchQuery::Kind::kHour:
        if (!std::isfinite(q.hour)) {
          errors[i] = Status::InvalidArgument("hour must be finite");
          continue;
        }
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
    Resolved& r = resolved[i];
    r.query = v == kInvalidVertex ? q.vector : center.row(v);
    r.exclude = v == kInvalidVertex ? q.exclude : v;
    r.query_norm = Norm2(r.query, dim);
    // A NaN similarity would break the top-k comparator's strict weak
    // ordering, so a non-finite query never reaches the sweep.
    if (!std::isfinite(r.query_norm)) {
      errors[i] = Status::InvalidArgument("query vector must be finite");
      continue;
    }
    if (q.k <= 0) {
      errors[i] = Status::InvalidArgument("k must be positive");
      continue;
    }
    groups[static_cast<std::size_t>(q.result_type)].push_back(i);
  }

  // One sweep per populated type block: each candidate row streams through
  // the blocked kernel once for the whole group. A row excluded by one
  // group member is still scored for the others; its dot is simply not
  // pushed for that member.
  std::vector<const float*> qptrs;
  std::vector<float> dots;
  for (int t = 0; t < kNumVertexTypes; ++t) {
    const std::vector<std::size_t>& group =
        groups[static_cast<std::size_t>(t)];
    if (group.empty()) continue;
    const std::vector<VertexId>& block =
        snap.VerticesOfType(static_cast<VertexType>(t));
    const std::size_t gb = group.size();
    qptrs.resize(gb);
    dots.resize(gb);
    for (std::size_t jj = 0; jj < gb; ++jj) {
      qptrs[jj] = resolved[group[jj]].query;
      // Sized up front: growing one candidate vector per row is what a
      // one-request batch would otherwise pay on every query.
      candidates[group[jj]].reserve(block.size());
    }
    for (VertexId v : block) {
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

  // Per-request top-k selection. Ties break toward the lower unit id, so
  // the top-k set is a pure function of (snapshot, query, k), not of
  // candidate scan order or batch composition.
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

// Each entry point is a one-request batch, so resolution, error precedence,
// scoring and top-k exist once. The request vector is built in each body:
// a query root may allocate at its boundary (docs/static-analysis.md, R10).
Result<std::vector<Neighbor>> QueryEngine::QueryByLocation(
    const GeoPoint& location, VertexType result_type, int k) const {
  return std::move(
      QueryBatch({BatchQuery::Location(location, result_type, k)}).front());
}

Result<std::vector<Neighbor>> QueryEngine::QueryByHour(
    double hour, VertexType result_type, int k) const {
  return std::move(
      QueryBatch({BatchQuery::Hour(hour, result_type, k)}).front());
}

Result<std::vector<Neighbor>> QueryEngine::QueryByKeyword(
    const std::string& keyword, VertexType result_type, int k) const {
  return std::move(
      QueryBatch({BatchQuery::Keyword(keyword, result_type, k)}).front());
}

Result<std::vector<Neighbor>> QueryEngine::QueryByVector(
    const float* query, VertexType result_type, int k,
    VertexId exclude) const {
  return std::move(
      QueryBatch({BatchQuery::Vector(query, result_type, k, exclude)})
          .front());
}

}  // namespace actor
