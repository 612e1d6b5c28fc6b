#ifndef ACTOR_SERVE_QUERY_ENGINE_H_
#define ACTOR_SERVE_QUERY_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "data/record.h"
#include "graph/types.h"
#include "serve/model_snapshot.h"
#include "util/result.h"

namespace actor {

/// One cross-modal neighbor (paper §6.4): a unit of the requested type and
/// its cosine similarity to the query. Top-k results order by similarity
/// descending with ties broken by ascending unit id — an explicit total
/// order, so the result set never depends on candidate scan order.
struct Neighbor {
  VertexId vertex = kInvalidVertex;
  std::string name;
  VertexType type = VertexType::kWord;
  double similarity = 0.0;
};

/// One request in a QueryEngine::QueryBatch() call, tagged with the entry
/// point it stands for. Only the fields of the active `kind` are read. For
/// Kind::kVector, `vector` must point at `dim` floats that outlive the
/// QueryBatch() call; the factory helpers fill exactly the fields the kind
/// needs.
struct BatchQuery {
  enum class Kind { kLocation, kHour, kKeyword, kVector };

  static BatchQuery Location(const GeoPoint& location, VertexType result_type,
                             int k);
  static BatchQuery Hour(double hour, VertexType result_type, int k);
  static BatchQuery Keyword(std::string keyword, VertexType result_type,
                            int k);
  static BatchQuery Vector(const float* query, VertexType result_type, int k,
                           VertexId exclude = kInvalidVertex);

  Kind kind = Kind::kVector;
  GeoPoint location{};            // kLocation
  double hour = 0.0;              // kHour
  std::string keyword;            // kKeyword
  const float* vector = nullptr;  // kVector (caller-owned)
  VertexType result_type = VertexType::kWord;
  int k = 10;
  VertexId exclude = kInvalidVertex;  // kVector only
};

/// Cross-modal top-k search over one immutable ModelSnapshot. Backs the
/// spatial / temporal / textual queries of Figs. 9-11 for both batch and
/// streaming models.
///
/// The engine keeps its snapshot alive through the shared_ptr, so it can
/// be constructed from SnapshotStore::Acquire() and used while the trainer
/// keeps ingesting: every query scores against the frozen copy, never the
/// live matrices. All methods are const and thread-safe; results for a
/// given snapshot are deterministic and bit-identical to a per-row Cosine()
/// scan (the query norm is hoisted out of the sweep, and DotAndNorm2Batch
/// preserves Dot/Norm2's reduction order per backend).
///
/// There is one scoring path: each QueryBy*() call is a one-request
/// QueryBatch().
class QueryEngine {
 public:
  explicit QueryEngine(std::shared_ptr<const ModelSnapshot> snapshot);

  const ModelSnapshot& snapshot() const { return *snapshot_; }

  /// Top-k units of `result_type` nearest to a geographic point (the point
  /// is first snapped to its spatial hotspot, Fig. 9). InvalidArgument for
  /// a non-finite point.
  Result<std::vector<Neighbor>> QueryByLocation(const GeoPoint& location,
                                                VertexType result_type,
                                                int k) const;

  /// Top-k units nearest to an hour-of-day (snapped to its temporal
  /// hotspot, Fig. 10). InvalidArgument for a non-finite hour.
  Result<std::vector<Neighbor>> QueryByHour(double hour,
                                            VertexType result_type,
                                            int k) const;

  /// Top-k units nearest to a vocabulary keyword (Fig. 11). NotFound if the
  /// word is unknown or absent from the graph.
  Result<std::vector<Neighbor>> QueryByKeyword(const std::string& keyword,
                                               VertexType result_type,
                                               int k) const;

  /// Top-k units of `result_type` by cosine against an arbitrary query
  /// vector of the embedding dimension. `exclude` is omitted from results.
  /// InvalidArgument when the query's norm is not finite.
  Result<std::vector<Neighbor>> QueryByVector(
      const float* query, VertexType result_type, int k,
      VertexId exclude = kInvalidVertex) const;

  /// Scores a block of requests in one traversal of the snapshot: requests
  /// are grouped by result type and every candidate row is scored against
  /// the whole group by the blocked DotAndNorm2Batch kernel, so each type
  /// block is swept once per batch (one snapshot acquire amortized over B
  /// requests by the caller) instead of once per request. Results come
  /// back in request order, and each is independent of the rest of the
  /// batch — neighbor order, similarity bits and error status are those
  /// of the same request sent alone: the batched kernel preserves each
  /// query's per-backend reduction order (locked in by
  /// serve_query_batch_test).
  std::vector<Result<std::vector<Neighbor>>> QueryBatch(
      const std::vector<BatchQuery>& queries) const;

 private:
  std::shared_ptr<const ModelSnapshot> snapshot_;
};

}  // namespace actor

#endif  // ACTOR_SERVE_QUERY_ENGINE_H_
