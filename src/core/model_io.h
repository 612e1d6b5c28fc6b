#ifndef ACTOR_CORE_MODEL_IO_H_
#define ACTOR_CORE_MODEL_IO_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/actor.h"
#include "graph/graph_builder.h"
#include "serve/model_snapshot.h"
#include "serve/query_engine.h"
#include "util/result.h"

namespace actor {

/// Persists a trained model for downstream use without retraining:
///   <dir>/center.txt    center vectors (EmbeddingMatrix text format)
///   <dir>/context.txt   context vectors
///   <dir>/vertices.tsv  one row per vertex: id \t type \t name
/// The directory is created if missing.
Status SaveActorModel(const ActorModel& model, const BuiltGraphs& graphs,
                      const std::string& dir);

/// A model reloaded from disk: embeddings plus the vertex catalogue, with
/// name-based lookup so queries work without the original graphs. Queries
/// run on a snapshot of the loaded model through the serving QueryEngine.
class LoadedModel {
 public:
  /// Loads `dir`. A vertices.tsv that is malformed, names an out-of-range
  /// id, repeats an id, or does not cover every matrix row is rejected.
  static Result<LoadedModel> Load(const std::string& dir);

  const ChunkedMatrix& center() const { return snapshot_->center(); }
  const EmbeddingMatrix& context() const { return context_; }
  int32_t num_vertices() const { return snapshot_->num_units(); }

  VertexType vertex_type(VertexId v) const {
    return snapshot_->vertex_type(v);
  }
  const std::string& vertex_name(VertexId v) const {
    return snapshot_->vertex_name(v);
  }

  /// Vertex id for a unit name ("coffee", "T3(19:17)", "user42"); -1 when
  /// unknown.
  VertexId Lookup(const std::string& name) const;

  /// Top-k vertices of `type` by cosine against vertex `query` (itself
  /// excluded), ordered by similarity descending, ties by ascending id.
  /// OutOfRange when `query` is not a vertex of this model.
  Result<std::vector<Neighbor>> NearestOfType(VertexId query, VertexType type,
                                              int k) const;

 private:
  EmbeddingMatrix context_;
  std::shared_ptr<const ModelSnapshot> snapshot_;  // center + catalogue
  std::unordered_map<std::string, VertexId> index_;
};

}  // namespace actor

#endif  // ACTOR_CORE_MODEL_IO_H_
