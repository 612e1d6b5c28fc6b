#ifndef ACTOR_EMBEDDING_LINE_H_
#define ACTOR_EMBEDDING_LINE_H_

#include <vector>

#include "embedding/embedding_matrix.h"
#include "graph/heterograph.h"
#include "util/result.h"

namespace actor {

class ThreadPool;

/// Options for LINE [24] training with second-order proximity (separate
/// center and context matrices), the variant the paper's baseline uses.
struct LineOptions {
  int32_t dim = 32;
  /// K in Eq. (7), at most kMaxNegatives.
  int negatives = 5;
  float initial_lr = 0.025f;
  /// Total sampled edges; 0 derives samples_per_edge * |directed edges|.
  int64_t total_samples = 0;
  int samples_per_edge = 50;
  int num_threads = 1;
  uint64_t seed = 3;
  /// Externally-owned persistent worker pool (e.g. TrainActor's); when
  /// null and num_threads > 1 a pool is created for the call. The pool's
  /// worker count overrides num_threads; num_threads <= 1 ignores the
  /// pool (sequential, bit-deterministic path).
  ThreadPool* pool = nullptr;
  /// Edge types to pool; empty means every non-empty type in the graph.
  /// LINE treats the pooled graph as homogeneous: one edge alias table,
  /// one degree-based noise distribution over all vertices.
  std::vector<EdgeType> edge_types;
};

/// A trained embedding pair. `center` holds the vertex representations
/// used by all downstream tasks; `context` is the output-side matrix.
struct LineEmbedding {
  EmbeddingMatrix center;
  EmbeddingMatrix context;
};

/// Trains LINE on the selected edge types of a finalized graph. Also used
/// to pre-train the user interaction graph in ACTOR (Algorithm 1, line 3)
/// with edge_types = {UU}.
Result<LineEmbedding> TrainLine(const Heterograph& graph,
                                const LineOptions& options);

}  // namespace actor

#endif  // ACTOR_EMBEDDING_LINE_H_
