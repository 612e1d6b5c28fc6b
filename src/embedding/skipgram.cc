#include "embedding/skipgram.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>

#include "embedding/sgd.h"
#include "graph/alias_table.h"
#include "util/thread_pool.h"
#include "util/vec_math.h"

namespace actor {

Result<LineEmbedding> TrainSkipGramOnWalks(
    const Heterograph& graph, const std::vector<std::vector<VertexId>>& walks,
    const SkipGramOptions& options) {
  if (!graph.finalized()) {
    return Status::FailedPrecondition("graph must be finalized");
  }
  if (options.dim <= 0 || options.window <= 0 || options.epochs <= 0) {
    return Status::InvalidArgument("dim/window/epochs must be positive");
  }
  ACTOR_RETURN_NOT_OK(ValidateNegatives(options.negatives));
  if (walks.empty()) {
    return Status::InvalidArgument("no walks to train on");
  }

  // Walk-occurrence counts per vertex, for the noise distribution.
  std::vector<double> counts(graph.num_vertices(), 0.0);
  int64_t total_positions = 0;
  for (const auto& walk : walks) {
    for (VertexId v : walk) {
      counts[v] += 1.0;
      ++total_positions;
    }
  }

  // Per-type noise tables (metapath2vec++), plus a pooled fallback.
  struct Noise {
    std::vector<VertexId> candidates;
    std::unique_ptr<AliasTable> table;
  };
  Noise typed[kNumVertexTypes];
  Noise pooled;
  auto build_noise = [&](Noise* noise, const std::vector<VertexId>& verts) {
    std::vector<double> weights;
    for (VertexId v : verts) {
      if (counts[v] > 0.0) {
        noise->candidates.push_back(v);
        weights.push_back(std::pow(counts[v], 0.75));
      }
    }
    if (!noise->candidates.empty()) {
      auto table = AliasTable::Create(weights);
      if (table.ok()) {
        noise->table = std::make_unique<AliasTable>(table.MoveValueOrDie());
      }
    }
  };
  if (options.typed_negatives) {
    for (int t = 0; t < kNumVertexTypes; ++t) {
      build_noise(&typed[t], graph.VerticesOfType(static_cast<VertexType>(t)));
    }
  }
  std::vector<VertexId> all(graph.num_vertices());
  for (VertexId v = 0; v < graph.num_vertices(); ++v) all[v] = v;
  build_noise(&pooled, all);
  if (pooled.table == nullptr) {
    return Status::InvalidArgument("walks contain no vertices");
  }

  LineEmbedding result;
  result.center = EmbeddingMatrix(graph.num_vertices(), options.dim);
  result.context = EmbeddingMatrix(graph.num_vertices(), options.dim);
  Rng init_rng(options.seed);
  result.center.InitUniform(init_rng);
  result.context.InitZero();

  const SigmoidTable sigmoid;
  const std::size_t dim = static_cast<std::size_t>(options.dim);
  const int64_t total_steps =
      static_cast<int64_t>(options.epochs) * total_positions;
  // Walk positions processed so far, shared across shards so the linear
  // learning-rate decay follows the global schedule.
  std::atomic<int64_t> done{0};

  // Trains every walk in [walk_lo, walk_hi), all epochs. Shards update the
  // shared matrices lock-free (HOGWILD) — the analyzer derives this scope
  // from the named-lambda ShardedRange dispatch below.
  auto train_walks = [&](int shard, std::size_t walk_lo,
                         std::size_t walk_hi) {
    Rng rng(ShardSeed(options.seed, /*step=*/1, shard));
    std::vector<float> grad(dim);
    for (int epoch = 0; epoch < options.epochs; ++epoch) {
      for (std::size_t w = walk_lo; w < walk_hi; ++w) {
        const auto& walk = walks[w];
        const int len = static_cast<int>(walk.size());
        for (int i = 0; i < len; ++i) {
          const int64_t step = done.fetch_add(1, std::memory_order_relaxed);
          const float frac =
              static_cast<float>(step) / static_cast<float>(total_steps);
          const float lr = std::max(options.initial_lr * (1.0f - frac),
                                    options.initial_lr * 1e-3f);
          const VertexId center = walk[i];
          const int lo = std::max(0, i - options.window);
          const int hi = std::min(len - 1, i + options.window);
          for (int j = lo; j <= hi; ++j) {
            if (j == i) continue;
            const VertexId ctx = walk[j];
            const Noise* noise = &pooled;
            if (options.typed_negatives) {
              const Noise& t =
                  typed[static_cast<int>(graph.vertex_type(ctx))];
              if (t.table != nullptr) noise = &t;
            }
            NegativeSamplingUpdate(
                result.center.row(center), ctx, options.negatives, lr,
                &result.context, sigmoid, rng,
                [noise](Rng& r) {
                  return noise->candidates[noise->table->Sample(r)];
                },
                grad.data());
          }
        }
      }
    }
  };

  // num_threads <= 1 ignores any provided pool (sequential path).
  ThreadPool* pool = options.num_threads > 1 ? options.pool : nullptr;
  std::unique_ptr<ThreadPool> owned_pool;
  if (pool == nullptr && options.num_threads > 1) {
    owned_pool = std::make_unique<ThreadPool>(
        static_cast<std::size_t>(options.num_threads));
    pool = owned_pool.get();
  }
  if (pool == nullptr || pool->num_threads() == 1) {
    train_walks(0, 0, walks.size());
  } else {
    pool->ShardedRange(0, walks.size(), train_walks);
  }
  return result;
}

}  // namespace actor
