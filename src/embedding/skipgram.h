#ifndef ACTOR_EMBEDDING_SKIPGRAM_H_
#define ACTOR_EMBEDDING_SKIPGRAM_H_

#include <vector>

#include "embedding/embedding_matrix.h"
#include "embedding/line.h"
#include "graph/heterograph.h"
#include "util/result.h"

namespace actor {

class ThreadPool;

/// Options for skip-gram training on random-walk corpora (the second half
/// of metapath2vec [25]).
struct SkipGramOptions {
  int32_t dim = 32;
  /// Window size each side of the center (paper §6.2.3 uses 3).
  int window = 3;
  /// K in Eq. (7), at most kMaxNegatives.
  int negatives = 5;
  float initial_lr = 0.025f;
  int epochs = 2;
  uint64_t seed = 11;
  /// Walks are sharded contiguously across threads; shards update the
  /// shared matrices lock-free (HOGWILD). 1 keeps training deterministic.
  int num_threads = 1;
  /// Externally-owned persistent worker pool; when null and
  /// num_threads > 1 a pool is created for the call.
  ThreadPool* pool = nullptr;
  /// metapath2vec++ heterogeneous negative sampling: negatives share the
  /// context vertex's type. When false, negatives come from the pooled
  /// walk-frequency distribution (plain metapath2vec).
  bool typed_negatives = true;
};

/// Trains skip-gram with negative sampling over vertex walks. Noise
/// distributions use walk-occurrence counts raised to 3/4. Returns the
/// (center, context) pair sized to graph.num_vertices().
Result<LineEmbedding> TrainSkipGramOnWalks(
    const Heterograph& graph, const std::vector<std::vector<VertexId>>& walks,
    const SkipGramOptions& options);

}  // namespace actor

#endif  // ACTOR_EMBEDDING_SKIPGRAM_H_
