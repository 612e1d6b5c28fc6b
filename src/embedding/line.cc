#include "embedding/line.h"

#include <algorithm>
#include <atomic>
#include <memory>

#include "embedding/negative_sampler.h"
#include "embedding/sgd.h"
#include "graph/alias_table.h"
#include "util/thread_pool.h"
#include "util/vec_math.h"

namespace actor {
namespace {

struct PooledEdges {
  std::vector<VertexId> src;
  std::vector<VertexId> dst;
  std::vector<double> weight;
};

PooledEdges PoolEdges(const Heterograph& graph,
                      const std::vector<EdgeType>& types) {
  PooledEdges pooled;
  for (EdgeType e : types) {
    const auto& edges = graph.edges(e);
    pooled.src.insert(pooled.src.end(), edges.src.begin(), edges.src.end());
    pooled.dst.insert(pooled.dst.end(), edges.dst.begin(), edges.dst.end());
    pooled.weight.insert(pooled.weight.end(), edges.weight.begin(),
                         edges.weight.end());
  }
  return pooled;
}

std::vector<EdgeType> NonEmptyTypes(const Heterograph& graph) {
  std::vector<EdgeType> types;
  for (int e = 0; e < kNumEdgeTypes; ++e) {
    if (graph.edges(static_cast<EdgeType>(e)).size() > 0) {
      types.push_back(static_cast<EdgeType>(e));
    }
  }
  return types;
}

}  // namespace

Result<LineEmbedding> TrainLine(const Heterograph& graph,
                                const LineOptions& options) {
  if (!graph.finalized()) {
    return Status::FailedPrecondition("graph must be finalized");
  }
  if (options.dim <= 0) {
    return Status::InvalidArgument("dim must be positive");
  }
  ACTOR_RETURN_NOT_OK(ValidateNegatives(options.negatives));
  std::vector<EdgeType> types =
      options.edge_types.empty() ? NonEmptyTypes(graph) : options.edge_types;
  PooledEdges pooled = PoolEdges(graph, types);
  if (pooled.src.empty()) {
    return Status::InvalidArgument("no edges of the requested types");
  }
  ACTOR_ASSIGN_OR_RETURN(AliasTable edge_table,
                         AliasTable::Create(pooled.weight));
  ACTOR_ASSIGN_OR_RETURN(GlobalNegativeSampler noise,
                         GlobalNegativeSampler::Create(graph, types));

  LineEmbedding result;
  result.center = EmbeddingMatrix(graph.num_vertices(), options.dim);
  Rng init_rng(options.seed);
  result.center.InitUniform(init_rng);
  // Second-order proximity: a distinct context matrix initialized to zero
  // (word2vec convention).
  result.context = EmbeddingMatrix(graph.num_vertices(), options.dim);
  result.context.InitZero();

  const int64_t total_samples =
      options.total_samples > 0
          ? options.total_samples
          : static_cast<int64_t>(pooled.src.size()) * options.samples_per_edge;
  const SigmoidTable sigmoid;

  std::atomic<int64_t> progress{0};
  // Run on the caller's persistent pool when provided; otherwise spin up a
  // pool for this call (only when actually multi-threaded). num_threads <= 1
  // ignores any pool: sequential and bit-deterministic.
  ThreadPool* pool = options.num_threads > 1 ? options.pool : nullptr;
  std::unique_ptr<ThreadPool> owned_pool;
  if (pool == nullptr && options.num_threads > 1) {
    owned_pool = std::make_unique<ThreadPool>(
        static_cast<std::size_t>(options.num_threads));
    pool = owned_pool.get();
  }
  // Per-shard gradient scratch, allocated at the dispatch boundary: the
  // shard body runs on the hot path and must not allocate.
  const std::size_t dim = static_cast<std::size_t>(options.dim);
  const std::size_t workers = pool == nullptr ? 1 : pool->num_threads();
  WorkerScratch shard_grad(workers, dim);
  // The analyzer derives this lambda's HOGWILD scope from the ShardedRange
  // dispatch below (shared rows only through the fused kernels).
  auto shard = [&](int thread_id, int64_t samples) {
    Rng rng(ShardSeed(options.seed, /*step=*/0x11e5u, thread_id));
    float* const grad = shard_grad.slot(static_cast<std::size_t>(thread_id));
    for (int64_t i = 0; i < samples; ++i) {
      // Linear learning-rate decay over the global budget.
      const int64_t done = progress.fetch_add(1, std::memory_order_relaxed);
      const float frac =
          static_cast<float>(done) / static_cast<float>(total_samples);
      const float lr =
          std::max(options.initial_lr * (1.0f - frac), options.initial_lr * 1e-3f);
      const std::size_t idx = edge_table.Sample(rng);
      const VertexId u = pooled.src[idx];
      const VertexId v = pooled.dst[idx];
      NegativeSamplingUpdate(
          result.center.row(u), v, options.negatives, lr, &result.context,
          sigmoid, rng, [&noise](Rng& r) { return noise.Sample(r); }, grad);
    }
  };

  if (pool == nullptr || pool->num_threads() == 1) {
    shard(0, total_samples);
  } else {
    pool->ShardedRange(0, static_cast<std::size_t>(total_samples),
                       [&shard](int t, std::size_t lo, std::size_t hi) {
                         shard(t, static_cast<int64_t>(hi - lo));
                       });
  }

  return result;
}

}  // namespace actor
